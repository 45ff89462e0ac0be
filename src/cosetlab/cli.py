"""Batch verification front end.

One subcommand per claim family, JSON-first reports:

* ``eymard-verify`` - exact coset invariance at the computed level.
* ``kesten``        - spectral-radius lower-bound profile for the free orbit.
* ``reiter``        - almost-invariant unit vector certificate.
* ``reciprocity``   - character suite (reciprocity, stages, invariants).
* ``congruence``    - special linear group orders and separation witnesses.

Each handler returns its report, a dict with a boolean ``pass``; ``main``
names the subcommand in it, emits it, and maps ``pass`` to exit code 0 (all
claims hold) or 1 (claim violation).  Errors exit 2 (usage or parse error)
or 3 (resource cap exceeded).  Reports are deterministic; ``--no-meta`` drops
the timestamped metadata block so identical inputs give byte-identical output.
"""

import argparse
import gc
import math
import sys

from . import __version__
from .errors import ResourceLimitError

# The handlers call the package's public names as `cli.<name>`: this hook
# imports each on first access, so a subcommand loads only the modules it
# runs, and binds it here, so a handler runs whatever `cli.<name>` holds
# (perfbench/tracer.py replaces some).  Any other name, dunders included,
# is refused, so `hasattr` and `import *` see a plain module.
cli = sys.modules[__name__]


def __getattr__(name: str):
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


EXIT_PASS = 0
EXIT_CLAIM = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _parse_radii(text: str, cap: int, k: int) -> list[int]:
    """Radii literal: comma-separated integers and lo..hi ranges, e.g.
    "1..10" or "1,2,5" or "1,3..6,10"; must be strictly increasing.

    A ball of radius r >= 1 in the free orbit of k generators has at least
    2 max(r, k) + 1 nodes, so a radius whose ball cannot fit the node cap
    is rejected before its range is expanded or the generators are built.
    So are radii whose solves or images exceed SOLVE_LIMIT or IMAGE_LIMIT.
    """
    ranges: list[tuple[int, int]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty entry in radii literal {text!r}")
        lo_txt, dots, hi_txt = chunk.partition("..")
        lo = int(lo_txt)
        hi = int(hi_txt) if dots else lo
        if hi < lo:
            raise ValueError(f"empty range {chunk!r} in radii literal")
        if lo < 1:
            raise ValueError(f"radii must be >= 1, got {lo}")
        if ranges and lo <= ranges[-1][1]:
            raise ValueError(f"radii must be strictly increasing ({ranges[-1][1]} then {lo})")
        if 2 * max(hi, k) + 1 > cap:
            raise ResourceLimitError(f"radius {hi} with -k {k} needs at least "
                                     f"{2 * max(hi, k) + 1} orbit nodes, above --cap {cap}")
        ranges.append((lo, hi))
    from . import cosets, spectral  # after the checks: a usage error loads no solver

    spectral.check_solve_steps(ranges)
    images = 2 * k * (2 * max(hi, k) + 1)  # at most what orbit_ball checks
    if images > cosets.IMAGE_LIMIT:
        raise ResourceLimitError(f"radius {hi} with -k {k} exceeds the image limit "
                                 f"{cosets.IMAGE_LIMIT}: its ball would need {images} images")
    return [r for lo, hi in ranges for r in range(lo, hi + 1)]


def _parse_matrix(text: str):
    """Matrix literal: rows separated by ';', integer entries by ','."""
    rows = []
    for row_txt in text.split(";"):
        entries = [e.strip() for e in row_txt.split(",")]
        if not all(entries):
            raise ValueError(f"empty entry in matrix literal {text!r}")
        rows.append(tuple(int(e) for e in entries))
    n = len(rows)
    if n < 2 or any(len(r) != n for r in rows):
        raise ValueError(f"matrix literal {text!r} is not square of size >= 2")
    return tuple(rows)


def _emit(report: dict, args) -> None:
    import json
    if not args.no_meta:
        import datetime
        report = dict(report)
        report["meta"] = {
            "tool": "cosetlab",
            "version": __version__,
            "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)


def _cmd_eymard_verify(args) -> dict:
    words = cli.parse_literals(args.words, "word", cli.parse_word)
    level, deviations = cli.delta_invariance_check(words)
    return {
        "level": level,
        "deviations": {cli.format_word(w): d for w, d in deviations.items()},
        "pass": all(d == 0.0 for d in deviations.values()),
    }


def _cmd_kesten(args) -> dict:
    if args.cap < 1:
        raise ValueError(f"node cap must be positive, got {args.cap}")
    radii = _parse_radii(args.radii, args.cap, args.k)
    gens = cli.free_generator_set(args.k)
    profile = cli.kesten_profile(cli.Coset(0, cli.IDENTITY), gens, radii, cap=args.cap)
    limit = math.sqrt(2 * args.k - 1) / args.k
    if args.csv:
        import csv
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["radius", "estimate"])
            for r, e in profile.rows():
                writer.writerow([r, repr(e)])
    return {
        "k": args.k,
        "generators": profile.generators,
        "rows": [{"radius": r, "estimate": e} for r, e in profile.rows()],
        "free_walk_limit": limit,
        "pass": all(e <= limit + 1e-9 for e in profile.estimates),
    }


def _cmd_reiter(args) -> dict:
    literals = cli.parse_literals(args.generators, "generator", cli.parse_gelement)
    gens = cli.GenSet.symmetrized(literals)
    cert = cli.reiter_search(gens, args.epsilon, max_window=args.window)
    N = cert.window_size
    return {
        "epsilon": args.epsilon,
        "generators": gens.describe(),
        "window_start": cert.window_start,
        "window_size": N,
        # float(N) overflows past 2^1024, which a huge --window admits
        "amplitude": 1.0 / math.sqrt(N) if N < 2**1000 else math.exp(-math.log(N) / 2),
        "deviations": {cli.format_gelement(g): d for g, d in cert.deviations.items()},
        "deviation_squared": {
            cli.format_gelement(g): str(q) for g, q in cert.deviation_squared.items()
        },
        "max_deviation": cert.max_deviation,
        "pass": cert.max_deviation <= args.epsilon,
    }


def _cmd_reciprocity(args) -> dict:
    path = args.suite or cli.default_suite_path()
    try:
        result = cli.run_suite(path)
    except cli.SuiteFormatError as exc:
        raise ValueError("\n".join(f"{path}: {p}" for p in exc.problems)) from None
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return {
        "suite": args.suite or "default",
        "entries": [e._asdict() for e in result.entries],
        "pass": result.passed,
    }


def _cmd_congruence(args) -> dict:
    if (args.n is None) != (args.m is None):
        raise ValueError("matrix size and modulus must be given together")
    if args.n is None and not args.witness:
        raise ValueError("nothing to do: give `n m` and/or --witness")
    report = {"pass": True}
    if args.n is not None:
        group = cli.congruence_group(args.n, args.m, cap=args.cap)
        formula = cli.special_linear_order(args.n, args.m)
        report["n"] = args.n
        report["m"] = args.m
        report["order_bfs"] = len(group)
        report["order_formula"] = formula
        report["order_match"] = report["pass"] = len(group) == formula
    if args.witness:
        matrix = _parse_matrix(args.witness)
        modulus = cli.separation_witness(matrix)
        report["witness"] = {"matrix": args.witness, "modulus": modulus}
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetlab",
        description="verification runner for coset-space amenability claims",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write the JSON report here")
    common.add_argument(
        "--no-meta",
        action="store_true",
        help="omit the timestamped meta block (byte-identical reruns)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "eymard-verify",
        parents=[common],
        help="exact invariance of the basis vector at the computed level",
    )
    p.add_argument(
        "words",
        help="comma-separated word literals, e.g. 'x5 x3 x5^-1, x1'",
    )
    p.set_defaults(func=_cmd_eymard_verify)

    p = sub.add_parser(
        "kesten",
        parents=[common],
        help="norm lower-bound profile on the free orbit, k generators",
    )
    p.add_argument("-k", type=int, default=2, help="free generator count (default 2)")
    p.add_argument(
        "--radii",
        default="1..10",
        help="radii literal: '1..10' or '1,2,5' or mixed (default 1..10)",
    )
    p.add_argument(
        "--cap",
        type=int,
        default=2_000_000,
        help="orbit node cap (default 2000000)",
    )
    p.add_argument("--csv", metavar="PATH", help="also write radius,estimate rows")
    p.set_defaults(func=_cmd_kesten)

    p = sub.add_parser(
        "reiter",
        parents=[common],
        help="almost-invariant unit vector for a generator set",
    )
    p.add_argument(
        "generators",
        help="comma-separated element literals, e.g. 't, x0, x-3' "
        "(closed under inverses automatically)",
    )
    p.add_argument(
        "--epsilon",
        type=float,
        required=True,
        help="deviation bound, in (0, 2)",
    )
    p.add_argument(
        "--window",
        type=int,
        default=1 << 20,
        help="window size cap for the search (default 1048576)",
    )
    p.set_defaults(func=_cmd_reiter)

    p = sub.add_parser(
        "reciprocity",
        parents=[common],
        help="run a character verification suite (default: bundled)",
    )
    p.add_argument("suite", nargs="?", help="suite file path (JSON lines)")
    p.set_defaults(func=_cmd_reciprocity)

    p = sub.add_parser(
        "congruence",
        parents=[common],
        help="special linear group order checks and separation witnesses",
    )
    p.add_argument("n", nargs="?", type=int, help="matrix size")
    p.add_argument("m", nargs="?", type=int, help="modulus")
    p.add_argument(
        "--witness",
        metavar="MATRIX",
        help="integer matrix literal 'a,b;c,d': report its separation modulus",
    )
    p.add_argument(
        "--cap",
        type=int,
        default=10**6,
        help="group enumeration cap (default 1000000)",
    )
    p.set_defaults(func=_cmd_congruence)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse before Python 3.12 drops "--" given as an option's value
        # ("--radii=--") and stores []; no option here takes a list.
        for name, value in vars(args).items():
            if value == []:
                parser.error(f"argument --{name}: expected one argument")
    except SystemExit as exc:
        return EXIT_PASS if exc.code in (0, None) else EXIT_USAGE
    try:
        report = args.func(args)
        report["subcommand"] = args.subcommand
        _emit(report, args)
        return EXIT_PASS if report["pass"] else EXIT_CLAIM
    except (ResourceLimitError, ValueError, OSError) as exc:
        for line in str(exc).split("\n"):
            print(f"error: {line}", file=sys.stderr)
        return EXIT_RESOURCE if isinstance(exc, ResourceLimitError) else EXIT_USAGE


def console_main() -> None:
    """Process entry point: exits with the code of `main`.  numpy's BLAS
    threads are set where numpy loads, in _lazy, as for library use."""
    code = main()
    # The process is about to exit: frozen objects are skipped by shutdown's
    # collection and teardown, which free a heap the OS reclaims anyway.
    # atexit handlers and stream flushes still run.  Not in `main`: a host
    # process would keep every object out of the collector for good.
    gc.freeze()
    raise SystemExit(code)
