"""Independent correctness referees for the benchmark workloads.

Each referee reads the outputs a workload printed (and, for a traced run,
the node counts the tracer observed) and returns the problems it found plus
the workload's estimate gap.  None of them imports cosetlab: the references
come from closed forms, from a stored table made by make_reference.py with
its own orbit model, or from a separate order formula.  Referees run
outside the timed region.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# An estimate may exceed its reference by at most this much, and the gap is
# resolved to this much: below it the reference itself is not known better.
GAP_RESOLUTION = 1e-12
# An estimate further than this below its reference is too loose to count
# as a correct answer, even though it is still a lower bound.
MAX_GAP = 1e-6

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The bundled suite: 4 reciprocity grids, 4 invariant counts, 7 towers.
SUITE_KINDS = ("frobenius",) * 4 + ("invariants",) * 4 + ("stages",) * 7

Problems = List[str]


def radial_eigenvalue(r: int) -> float:
    """Top eigenvalue of the simple random walk on the free group of rank 2,
    compressed to the ball of radius r.  The top eigenvector is radial, so it
    is the top eigenvalue of the (r+1)-shell tridiagonal matrix: coupling 1/2
    between shells 0 and 1 and sqrt(3)/4 further out."""
    t = np.zeros((r + 1, r + 1))
    for i in range(r):
        t[i, i + 1] = t[i + 1, i] = 0.5 if i == 0 else math.sqrt(3) / 4
    return float(np.linalg.eigvalsh(t)[-1])


def free_ball_nodes(r: int) -> int:
    """Nodes of the radius-r ball in the 4-regular tree."""
    return 2 * 3**r - 1


def sl_order(n: int, m: int) -> int:
    """|SL(n, Z/m)|: multiplicative over prime powers p^a, each contributing
    p^((a-1)(n^2-1)) * |SL(n, p)|, where |SL(n, p)| = |GL(n, p)| / (p - 1)."""
    order, rest, p = 1, m, 2
    while rest > 1:
        a = 0
        while rest % p == 0:
            rest //= p
            a += 1
        if a:
            gl = 1
            for i in range(n):
                gl *= p**n - p**i
            order *= p ** ((a - 1) * (n * n - 1)) * (gl // (p - 1))
        p += 1
    return order


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def _json(text: str, what: str, problems: Problems) -> Optional[dict]:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"{what}: output is not JSON ({exc.msg})")
        return None


def check_profile(
    radii: Sequence[int],
    estimates: Sequence[float],
    references: Sequence[float],
    problems: Problems,
) -> float:
    """Compare a spectral profile with reference top eigenvalues; return the
    largest reference-minus-estimate gap, floored at GAP_RESOLUTION."""
    if len(estimates) != len(references):
        problems.append(f"{len(estimates)} estimates for {len(references)} radii")
        return math.inf
    gap = -math.inf
    for r, est, ref in zip(radii, estimates, references):
        if est > ref + GAP_RESOLUTION:
            problems.append(f"radius {r}: estimate {est!r} above reference {ref!r}")
        if ref - est > MAX_GAP:
            problems.append(f"radius {r}: estimate {est!r} is {ref - est:.3g} below {ref!r}")
        gap = max(gap, ref - est)
    return max(gap, GAP_RESOLUTION)


def check_node_counts(
    observed: Optional[Sequence[int]], expected: Sequence[int], problems: Problems
) -> None:
    """Per-radius ball sizes seen by the tracer (None in an untraced run)."""
    if observed is not None and list(observed) != list(expected):
        problems.append(f"ball sizes {list(observed)} differ from {list(expected)}")


def kesten_free(
    outputs: Sequence[str], radius: int, node_counts: Optional[Sequence[int]] = None
) -> Tuple[float, Problems]:
    """`cosetlab kesten -k 2 --radii 1..radius` against the radial shell
    eigenvalues and the tree ball sizes 2*3^r - 1."""
    problems: Problems = []
    report = _json(outputs[0], "kesten", problems)
    if report is None:
        return math.inf, problems
    radii = list(range(1, radius + 1))
    rows = report.get("rows", [])
    if [row.get("radius") for row in rows] != radii:
        problems.append(f"rows cover radii {[row.get('radius') for row in rows]}")
        return math.inf, problems
    if report.get("pass") is not True:
        problems.append("report does not pass")
    if report.get("free_walk_limit") != math.sqrt(3) / 2:
        problems.append(f"free_walk_limit {report.get('free_walk_limit')!r}")
    refs = [radial_eigenvalue(r) for r in radii]
    gap = check_profile(radii, [row["estimate"] for row in rows], refs, problems)
    check_node_counts(node_counts, [free_ball_nodes(r) for r in radii], problems)
    return gap, problems


def kesten_shift(
    outputs: Sequence[str],
    radius: int,
    offset: int,
    node_counts: Optional[Sequence[int]] = None,
) -> Tuple[float, Problems]:
    """The library profile of Coset(s, e) under t, x_s against the stored
    eigenvalues and ball sizes (the instance is the same for every s)."""
    problems: Problems = []
    report = _json(outputs[0], "kesten-shift", problems)
    if report is None:
        return math.inf, problems
    ref = load_reference()["kesten_shift"]
    radii = list(range(1, radius + 1))
    if report.get("radii") != radii or report.get("offset") != offset:
        problems.append(f"profile of radii {report.get('radii')} at offset {report.get('offset')}")
        return math.inf, problems
    if len(ref["eigenvalues"]) < radius:
        problems.append(f"no stored reference beyond radius {len(ref['eigenvalues'])}")
        return math.inf, problems
    gap = check_profile(radii, report["estimates"], ref["eigenvalues"][:radius], problems)
    check_node_counts(node_counts, ref["nodes"][:radius], problems)
    return gap, problems


def reiter_window(
    outputs: Sequence[str], offset: int, epsilon: float, window: int
) -> Tuple[float, Problems]:
    """`cosetlab reiter "t^5, x{a} x{a+7} x{a}^-1"`: the window of `window`
    cosets starts above level a+7, t^+-5 moves it by sqrt(10/N) and the word
    and its inverse fix it exactly."""
    problems: Problems = []
    report = _json(outputs[0], "reiter", problems)
    if report is None:
        return math.inf, problems
    a = offset
    word = f"x{a} x{a + 7} x{a}^-1"
    word_inv = f"x{a} x{a + 7}^-1 x{a}^-1"
    expected = {"(5; e)", "(-5; e)", f"(0; {word})", f"(0; {word_inv})"}
    devs: Dict[str, float] = report.get("deviations", {})
    if set(devs) != expected:
        problems.append(f"deviations for {sorted(devs)}, expected {sorted(expected)}")
        return math.inf, problems
    if report.get("window_size") != window:
        problems.append(f"window_size {report.get('window_size')} != {window}")
    if report.get("window_start") != a + 7:
        problems.append(f"window_start {report.get('window_start')} != {a + 7}")
    if report.get("pass") is not True or not report.get("max_deviation", 2) <= epsilon:
        problems.append(f"max_deviation {report.get('max_deviation')} above {epsilon}")
    shift_dev = math.sqrt(10 / window)
    gap = 0.0
    for key in ("(5; e)", "(-5; e)"):
        err = abs(devs[key] - shift_dev)
        if err > GAP_RESOLUTION:
            problems.append(f"{key} deviation {devs[key]!r}, expected {shift_dev!r}")
        gap = max(gap, err)
    for key in (f"(0; {word})", f"(0; {word_inv})"):
        if devs[key] != 0.0:
            problems.append(f"{key} deviation {devs[key]!r}, expected exactly 0.0")
    return max(gap, GAP_RESOLUTION), problems


def finite_groups(outputs: Sequence[str], n: int, m: int) -> Tuple[float, Problems]:
    """`cosetlab reciprocity` then `cosetlab congruence n m`: every bundled
    suite entry passes, and the enumerated order equals |SL(n, Z/m)|."""
    problems: Problems = []
    suite = _json(outputs[0], "reciprocity", problems)
    congruence = _json(outputs[1], "congruence", problems)
    if suite is None or congruence is None:
        return math.inf, problems
    entries = suite.get("entries", [])
    if tuple(e.get("kind") for e in entries) != SUITE_KINDS:
        problems.append(f"suite ran kinds {[e.get('kind') for e in entries]}")
    for e in entries:
        if e.get("passed") is not True:
            problems.append(f"suite entry at line {e.get('line')} failed")
        for pair in e.get("details", {}).get("pairs", []):
            if pair["mult_up"] != pair["mult_down"]:
                problems.append(f"line {e.get('line')}: reciprocity fails for {pair}")
    if suite.get("pass") is not True:
        problems.append("suite report does not pass")
    order = sl_order(n, m)
    if not congruence.get("order_bfs") == congruence.get("order_formula") == order:
        problems.append(
            f"SL({n}, Z/{m}): order_bfs {congruence.get('order_bfs')}, "
            f"order_formula {congruence.get('order_formula')}, expected {order}"
        )
    if congruence.get("pass") is not True:
        problems.append("congruence report does not pass")
    return GAP_RESOLUTION, problems
