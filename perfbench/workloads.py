"""The benchmark's workloads: the processes each one runs, built from the
seed, and the referee that judges their outputs.

A workload is a sequence of steps, each one fresh process: `cli` steps run
`python3 -m cosetlab ARGS`, and the `shift` step runs shift_profile.py.
The seed picks an index offset wherever the input admits one; the shifted
instance is isomorphic to the unshifted one, so every reference holds for
every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import referees

# The sizes the benchmark measures (README.md, "Sizes", says why).
SIZE = {"free_radius": 10, "shift_radius": 12, "epsilon": 0.02,
        "window": 25_000, "sl": (3, 3)}

# Offsets are drawn from this range; all are outside CPython's small-int
# cache in practice, so the offset does not change the cost per operation.
OFFSET_RANGE = 10**6

Referee = Callable[[Sequence[str], Optional[List[int]]], Tuple[float, List[str]]]


@dataclass(frozen=True)
class Step:
    kind: str  # "cli" or "shift"
    args: Tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Tuple[Step, ...]
    referee: Referee
    inputs: Dict[str, object] = field(default_factory=dict)


def _kesten_free(seed: int, size: dict) -> Workload:
    r = size["free_radius"]
    return Workload(
        "kesten-free",
        (Step("cli", ("kesten", "-k", "2", "--radii", f"1..{r}", "--no-meta")),),
        lambda outs, nodes: referees.kesten_free(outs, r, nodes),
        {"radius": r, "offset": None},
    )


def _kesten_shift(seed: int, size: dict) -> Workload:
    r = size["shift_radius"]
    s = random.Random(seed).randint(-OFFSET_RANGE, OFFSET_RANGE)
    return Workload(
        "kesten-shift",
        (Step("shift", (str(s), str(r))),),
        lambda outs, nodes: referees.kesten_shift(outs, r, s, nodes),
        {"radius": r, "offset": s},
    )


def _reiter_window(seed: int, size: dict) -> Workload:
    a = random.Random(seed).randint(-OFFSET_RANGE, OFFSET_RANGE)
    eps, n = size["epsilon"], size["window"]
    gens = f"t^5, x{a} x{a + 7} x{a}^-1"
    return Workload(
        "reiter-window",
        (Step("cli", ("reiter", gens, "--epsilon", repr(eps), "--no-meta")),),
        lambda outs, nodes: referees.reiter_window(outs, a, eps, n),
        {"generators": gens, "epsilon": eps, "offset": a},
    )


def _finite_groups(seed: int, size: dict) -> Workload:
    n, m = size["sl"]
    return Workload(
        "finite-groups",
        (
            Step("cli", ("reciprocity", "--no-meta")),
            Step("cli", ("congruence", str(n), str(m), "--no-meta")),
        ),
        lambda outs, nodes: referees.finite_groups(outs, n, m),
        {"congruence": [n, m], "offset": None},
    )


MAKERS = {
    "kesten-free": _kesten_free,
    "kesten-shift": _kesten_shift,
    "reiter-window": _reiter_window,
    "finite-groups": _finite_groups,
}


def make(name: str, seed: int) -> Workload:
    return MAKERS[name](seed, SIZE)
