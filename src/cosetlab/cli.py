"""Batch verification front end.

One subcommand per claim family, JSON-first reports:

* ``eymard-verify`` - exact coset invariance at the computed level.
* ``kesten``        - spectral-radius lower-bound profile for the free orbit.
* ``reiter``        - almost-invariant unit vector certificate.
* ``reciprocity``   - character suite (reciprocity, stages, invariants).
* ``congruence``    - special linear group orders and separation witnesses.

Exit codes: 0 all claims hold, 1 claim violation, 2 usage or parse error,
3 resource cap exceeded.  Reports are deterministic; ``--no-meta`` drops the
timestamped metadata block so identical inputs give byte-identical output.
"""

import argparse
import csv
import datetime
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .errors import ResourceLimitError
from .freegroup import IDENTITY, format_gelement, format_word
from .freegroup import parse_gelement, parse_literals, parse_word
from .cosets import Coset
from .spectral import (
    GenSet,
    delta_invariance_check,
    free_generator_set,
    kesten_profile,
    reiter_search,
)
from .suite import SuiteFormatError, default_suite_path, run_suite
from .finitegroup import congruence_group, separation_witness, special_linear_order

EXIT_PASS = 0
EXIT_CLAIM = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _parse_radii(text: str, cap: int, k: int) -> List[int]:
    """Radii literal: comma-separated integers and lo..hi ranges, e.g.
    "1..10" or "1,2,5" or "1,3..6,10"; must be strictly increasing.

    A ball of radius r >= 1 in the free orbit of k generators has at least
    2 max(r, k) + 1 nodes, so a radius whose ball cannot fit the node cap
    is rejected before its range is expanded or the generators are built.
    """
    radii: List[int] = []
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
        if radii and lo <= radii[-1]:
            raise ValueError(f"radii must be strictly increasing ({radii[-1]} then {lo})")
        if 2 * max(hi, k) + 1 > cap:
            raise ResourceLimitError(
                f"radius {hi} with -k {k} needs at least {2 * max(hi, k) + 1} "
                f"orbit nodes, above --cap {cap}"
            )
        radii.extend(range(lo, hi + 1))
    return radii


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
    if not args.no_meta:
        report = dict(report)
        report["meta"] = {
            "tool": "cosetlab",
            "version": __version__,
            "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)


def _cmd_eymard_verify(args) -> int:
    words = parse_literals(args.words, "word", parse_word)
    level, deviations = delta_invariance_check(words)
    ok = all(d == 0.0 for d in deviations.values())
    report = {
        "subcommand": "eymard-verify",
        "level": level,
        "deviations": {format_word(w): d for w, d in deviations.items()},
        "pass": ok,
    }
    _emit(report, args)
    return EXIT_PASS if ok else EXIT_CLAIM


def _cmd_kesten(args) -> int:
    if args.cap < 1:
        raise ValueError(f"node cap must be positive, got {args.cap}")
    radii = _parse_radii(args.radii, args.cap, args.k)
    gens = free_generator_set(args.k)
    profile = kesten_profile(Coset(0, IDENTITY), gens, radii, cap=args.cap)
    limit = math.sqrt(2 * args.k - 1) / args.k
    ok = all(e <= limit + 1e-9 for e in profile.estimates)
    report = {
        "subcommand": "kesten",
        "k": args.k,
        "generators": profile.generators,
        "rows": [{"radius": r, "estimate": e} for r, e in profile.rows()],
        "free_walk_limit": limit,
        "pass": ok,
    }
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["radius", "estimate"])
            for r, e in profile.rows():
                writer.writerow([r, repr(e)])
    _emit(report, args)
    return EXIT_PASS if ok else EXIT_CLAIM


def _cmd_reiter(args) -> int:
    gens = GenSet.symmetrized(parse_literals(args.generators, "generator", parse_gelement))
    cert = reiter_search(gens, args.epsilon, max_window=args.window)
    ok = cert.max_deviation <= args.epsilon
    report = {
        "subcommand": "reiter",
        "epsilon": args.epsilon,
        "generators": gens.describe(),
        "window_start": cert.window_start,
        "window_size": cert.window_size,
        "amplitude": 1.0 / math.sqrt(cert.window_size),
        "deviations": {format_gelement(g): d for g, d in cert.deviations.items()},
        "deviation_squared": {
            format_gelement(g): str(q) for g, q in cert.deviation_squared.items()
        },
        "max_deviation": cert.max_deviation,
        "pass": ok,
    }
    _emit(report, args)
    return EXIT_PASS if ok else EXIT_CLAIM


def _cmd_reciprocity(args) -> int:
    path = Path(args.suite) if args.suite else default_suite_path()
    try:
        result = run_suite(path)
    except SuiteFormatError as exc:
        for problem in exc.problems:
            print(f"error: {path}: {problem}", file=sys.stderr)
        return EXIT_USAGE
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    report = {
        "subcommand": "reciprocity",
        "suite": args.suite or "default",
        "entries": [
            {
                "line": e.line,
                "kind": e.kind,
                "description": e.description,
                "passed": e.passed,
                "details": e.details,
            }
            for e in result.entries
        ],
        "pass": result.passed,
    }
    _emit(report, args)
    return EXIT_PASS if result.passed else EXIT_CLAIM


def _cmd_congruence(args) -> int:
    if (args.n is None) != (args.m is None):
        raise ValueError("matrix size and modulus must be given together")
    if args.n is None and not args.witness:
        raise ValueError("nothing to do: give `n m` and/or --witness")
    report = {"subcommand": "congruence"}
    ok = True
    if args.n is not None:
        if args.n < 2 or args.m < 2:
            raise ValueError(
                f"need matrix size >= 2 and modulus >= 2, got {args.n}, {args.m}"
            )
        group = congruence_group(args.n, args.m, cap=args.cap)
        formula = special_linear_order(args.n, args.m)
        report["n"] = args.n
        report["m"] = args.m
        report["order_bfs"] = len(group)
        report["order_formula"] = formula
        report["order_match"] = len(group) == formula
        ok = ok and report["order_match"]
    if args.witness:
        matrix = _parse_matrix(args.witness)
        modulus = separation_witness(matrix)
        report["witness"] = {"matrix": args.witness, "modulus": modulus}
    report["pass"] = ok
    _emit(report, args)
    return EXIT_PASS if ok else EXIT_CLAIM


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


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PASS if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())
