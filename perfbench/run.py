"""cosetlab benchmark: run one workload in fresh processes, check every
output against an independent referee, and print the metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, seed 1, untraced

Untraced (--trace 0), a run times `cosetlab --version` SETUP_LAUNCHES times
for setup_s, then repeats the workload for at least --seconds and MIN_REPS
repetitions and reports medians of wall time, CPU time and peak RSS per
repetition.  Traced (--trace 1), each repetition is an untraced process
followed by the same process under tracer.py; the traced outputs must equal
the untraced ones, and the per-layer metrics come from the traced spans.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Before it, each workload prints a
JSON stamp (versions, BLAS threads in effect, commit, seed, repetitions)
and a table of its metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import workloads

SETUP_LAUNCHES = 5
MIN_REPS = 3
RUN_BUDGET_S = 170.0  # every run must end within 180 s
WORK_DIR = ".perfbench_work"

END_TO_END = {
    "report_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "estimate_gap": "abs",
}

PER_LAYER = {
    "cosets.orbit_ball.s": "s",
    "cosets.orbit_ball.nodes": "count",
    "cosets.orbit_ball.nodes_per_s": "1/s",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "spectral.kesten_profile.self_s": "s",
    "spectral.markov_operator.s": "s",
    "spectral.markov_operator.nnz": "count",
    "cosets.act.calls": "count",
    "cosets.act.s": "s",
    "cosets.act.us_per_call": "us",
    "freegroup.g_mul.calls": "count",
    "freegroup.g_mul.s": "s",
    "freegroup.retract.calls": "count",
    "freegroup.retract.s": "s",
    "freegroup.minimal_level.s": "s",
    "freegroup.parse.s": "s",
    "spectral.reiter_search.self_s": "s",
    "spectral.reiter_search.window_size": "count",
    "finitegroup.congruence_group.s": "s",
    "finitegroup.congruence_group.order": "count",
    "finitegroup.elements_per_s": "1/s",
    "finitegroup.classes.s": "s",
    "characters.induce_character.calls": "count",
    "characters.induce_character.s": "s",
    "characters.frobenius_check.s": "s",
    "characters.stages_check.s": "s",
    "characters.load_character_table.s": "s",
    "suite.registry.s": "s",
    "suite.run_suite.self_s": "s",
    "suite.entries": "count",
    "suite.entries_failed": "count",
    "cli.emit.s": "s",
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The program cannot be launched from this directory."""


@dataclass
class Launch:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    out: str
    err: str


class Runner:
    """Launches workload processes from a checkout, one at a time, and
    measures each from launch to exit."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.work = root / WORK_DIR
        self.work.mkdir(exist_ok=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def launch(self, argv: List[str]) -> Launch:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=out, stderr=err,
                env=self.env, cwd=self.root,
            )
            lock, reaped = threading.Lock(), []

            def kill():
                with lock:
                    if not reaped:
                        proc.kill()

            timer = threading.Timer(max(1.0, self.deadline - perf_counter()), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = perf_counter() - t0
                with lock:
                    reaped.append(True)
                    proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                timer.join()
        return Launch(
            proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,  # KiB on Linux
            out_path.read_text(), err_path.read_text(),
        )

    def argv(self, step: workloads.Step, trace_out: Optional[Path] = None) -> List[str]:
        if trace_out is not None:
            return ["perfbench/tracer.py", str(trace_out), step.kind, *step.args]
        if step.kind == "cli":
            return ["-m", "cosetlab", *step.args]
        return ["perfbench/shift_profile.py", *step.args]

    def close(self) -> None:
        for name in ("stdout", "stderr", "trace.json"):
            (self.work / name).unlink(missing_ok=True)
        self.work.rmdir()


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_setup(runner: Runner, launches: int) -> List[float]:
    """Wall times of `cosetlab --version`, after one untimed warm-up launch
    (which also proves the program is there)."""
    walls = []
    for i in range(launches + 1):
        got = runner.launch(["-m", "cosetlab", "--version"])
        if got.code != 0 or not got.out.strip():
            raise SetupError(f"`cosetlab --version` exited {got.code}: {got.err.strip()}")
        if i:
            walls.append(got.wall)
    return walls


class Rep:
    """One repetition of a workload: all its steps, checked."""

    def __init__(self):
        self.launches: List[Launch] = []
        self.problems: List[str] = []
        self.gap = 0.0

    @property
    def wall(self) -> float:
        return sum(x.wall for x in self.launches)

    @property
    def cpu(self) -> float:
        return sum(x.cpu for x in self.launches)

    @property
    def rss_mb(self) -> float:
        return max((x.rss_mb for x in self.launches), default=0.0)


def run_steps(runner: Runner, wl: workloads.Workload, traced: bool):
    """Launch every step of wl; returns the rep and, traced, the summaries."""
    rep, summaries = Rep(), []
    trace_out = runner.work / "trace.json"
    for step in wl.steps:
        got = runner.launch(runner.argv(step, trace_out if traced else None))
        rep.launches.append(got)
        if got.code != 0:
            rep.problems.append(f"{step.kind} {' '.join(step.args)}: exit {got.code}: "
                                f"{got.err.strip()[-300:]}")
            break
        if traced:
            summaries.append(json.loads(trace_out.read_text()))
    return rep, summaries


def judge(wl: workloads.Workload, rep: Rep, node_counts=None) -> None:
    if rep.problems:
        return
    gap, problems = wl.referee([x.out for x in rep.launches], node_counts)
    rep.gap = gap
    rep.problems.extend(problems)


def repeat(seconds: float, deadline: float, min_reps: int, one_rep) -> None:
    """Call one_rep until the next call would end past `seconds` (at least
    min_reps calls) or past the run's deadline."""
    t0 = perf_counter()
    reps = 0
    while True:
        r0 = perf_counter()
        one_rep()
        reps += 1
        last = perf_counter() - r0
        now = perf_counter()
        if now + last > deadline or (reps >= min_reps and now - t0 + last > seconds):
            return


def run_untraced(runner: Runner, wl, seconds: float) -> dict:
    setup = measure_setup(runner, SETUP_LAUNCHES)
    reps: List[Rep] = []

    def one():
        rep, _ = run_steps(runner, wl, traced=False)
        judge(wl, rep)
        reps.append(rep)

    repeat(seconds, runner.deadline, MIN_REPS, one)
    good = [r for r in reps if not r.problems]
    metrics = {
        "report_s": _median([r.wall for r in good]),
        "cpu_s": _median([r.cpu for r in good]),
        "peak_rss_mb": _median([r.rss_mb for r in good]),
        "setup_s": _median(setup),
        "estimate_gap": max((r.gap for r in good), default=0.0),
    }
    return {"reps": reps, "metrics": metrics, "units": END_TO_END}


def _merge(summaries: List[dict]) -> dict:
    """Sum the trace summaries of one repetition's processes."""
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, object] = {}
    gc_s = gc_n = 0
    for s in summaries:
        for name, agg in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += agg[key]
        for key, value in s["counters"].items():
            counters[key] = value if isinstance(value, list) else counters.get(key, 0) + value
        gc_s += s["gc_s"]
        gc_n += s["gc_collections"]
    return {"spans": spans, "counters": counters, "gc_s": gc_s, "gc_collections": gc_n}


def layer_metrics(trace: dict) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (trace.overhead_s is
    filled in by the caller)."""
    spans, counters = trace["spans"], trace["counters"]

    def span(name: str, key: str = "s") -> float:
        return spans.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ball_s = span("cosets.orbit_ball")
    nodes = counters.get("orbit_ball.nodes", 0)
    act_calls = span("cosets.act", "calls")
    group_s = span("finitegroup.congruence_group")
    order = counters.get("congruence_group.order", 0)
    return {
        "cosets.orbit_ball.s": ball_s,
        "cosets.orbit_ball.nodes": nodes,
        "cosets.orbit_ball.nodes_per_s": ratio(nodes, ball_s),
        "runtime.gc_s": trace["gc_s"],
        "runtime.gc_collections": trace["gc_collections"],
        "spectral.kesten_profile.self_s": span("spectral.kesten_profile", "self_s"),
        "spectral.markov_operator.s": span("spectral.markov_operator"),
        "spectral.markov_operator.nnz": counters.get("markov_operator.nnz", 0),
        "cosets.act.calls": act_calls,
        "cosets.act.s": span("cosets.act"),
        "cosets.act.us_per_call": ratio(1e6 * span("cosets.act"), act_calls),
        "freegroup.g_mul.calls": span("freegroup.g_mul", "calls"),
        "freegroup.g_mul.s": span("freegroup.g_mul"),
        "freegroup.retract.calls": span("freegroup.retract", "calls"),
        "freegroup.retract.s": span("freegroup.retract"),
        "freegroup.minimal_level.s": span("freegroup.minimal_level"),
        "freegroup.parse.s": span("freegroup.parse"),
        "spectral.reiter_search.self_s": span("spectral.reiter_search", "self_s"),
        "spectral.reiter_search.window_size": counters.get("reiter_search.window_size", 0),
        "finitegroup.congruence_group.s": group_s,
        "finitegroup.congruence_group.order": order,
        "finitegroup.elements_per_s": ratio(order, group_s),
        "finitegroup.classes.s": span("finitegroup.classes"),
        "characters.induce_character.calls": span("characters.induce_character", "calls"),
        "characters.induce_character.s": span("characters.induce_character"),
        "characters.frobenius_check.s": span("characters.frobenius_check"),
        "characters.stages_check.s": span("characters.stages_check"),
        "characters.load_character_table.s": span("characters.load_character_table"),
        "suite.registry.s": span("suite.registry"),
        "suite.run_suite.self_s": span("suite.run_suite", "self_s"),
        "suite.entries": counters.get("suite.entries", 0),
        "suite.entries_failed": counters.get("suite.entries_failed", 0),
        "cli.emit.s": span("cli.emit"),
    }


def run_traced(runner: Runner, wl, seconds: float) -> dict:
    measure_setup(runner, 0)
    reps: List[Rep] = []
    plain_walls, traced_walls, layers = [], [], []

    def one():
        plain, _ = run_steps(runner, wl, traced=False)
        judge(wl, plain)
        traced, summaries = run_steps(runner, wl, traced=True)
        if not traced.problems:
            trace = _merge(summaries)
            judge(wl, traced, trace["counters"].get("orbit_ball.prefix_sizes"))
            for a, b, step in zip(plain.launches, traced.launches, wl.steps):
                if a.out != b.out:
                    traced.problems.append(f"traced output of {step.kind} "
                                           f"{' '.join(step.args)} differs")
        reps.extend((plain, traced))
        if not (plain.problems or traced.problems):
            plain_walls.append(plain.wall)
            traced_walls.append(traced.wall)
            layers.append(layer_metrics(trace))

    repeat(seconds, runner.deadline, 1, one)
    # median_low keeps counts whole: it picks an observed repetition's value.
    metrics = {name: statistics.median_low([m[name] for m in layers]) if layers else 0
               for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = _median(traced_walls) - _median(plain_walls)
    return {"reps": reps, "metrics": metrics, "units": PER_LAYER}


def _blas_threads() -> object:
    """Threads OpenBLAS uses in this environment, asked of the library numpy
    loaded; "unknown" where it cannot be found."""
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout at root; the search stops at root, so a
    repository around a non-git checkout is not mistaken for it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return got.stdout.strip() if got.returncode == 0 else "unknown (not a git checkout)"


def stamp(root: Path, args, wl: workloads.Workload, reps: List[Rep]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": wl.name,
        "seed": args.seed,
        "inputs": wl.inputs,
        "steps": [[s.kind, *s.args] for s in wl.steps],
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_reps": len(reps),
        "rep_wall_s": [r.wall for r in reps],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(root),
    }


def run_workload(root: Path, args, name: str) -> dict:
    wl = workloads.make(name, args.seed)
    runner = Runner(root, perf_counter() + RUN_BUDGET_S)
    try:
        body = (run_traced if args.trace else run_untraced)(runner, wl, args.seconds)
    finally:
        runner.close()
    reps = body["reps"]
    failed = [r for r in reps if r.problems]
    for r in failed:
        for p in r.problems:
            print(f"{name}: {p}", file=sys.stderr)
    return {
        "stamp": stamp(root, args, wl, reps),
        "result": {
            "correct": bool(reps) and not failed,
            "attempted": len(reps),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": body["units"][k]}
                        for k, v in body["metrics"].items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.MAKERS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cosetlab" / "__init__.py").is_file():
        print(f"error: no cosetlab source under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(workloads.MAKERS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, args, name)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, res in results.items():
        print(json.dumps(res["stamp"], sort_keys=True))
        r = res["result"]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:<40} {m['value']:>16.9g} {m['unit']}")
    if len(results) == 1:
        final = next(iter(results.values()))["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in results.values()),
            "attempted": sum(r["result"]["attempted"] for r in results.values()),
            "failed": sum(r["result"]["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
