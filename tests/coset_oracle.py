"""Plain-Python reference model for Reiter window certificates.

The window vector is materialised as a dict from cosets to amplitudes,
moved coset by coset with `act`, and its deviations are summed as float
squares.  This is the float referee for `cosetlab.spectral`'s closed-form
deviations sqrt(2m/N).
"""

import math
from typing import Dict

from cosetlab.cosets import Coset, act
from cosetlab.freegroup import IDENTITY, GElement


def window_vector(start: int, size: int) -> Dict[Coset, float]:
    """Uniform unit vector on Coset(n, e) for start < n <= start + size."""
    amp = 1.0 / math.sqrt(size)
    return {Coset(n, IDENTITY): amp for n in range(start + 1, start + size + 1)}


def _exact_deviations(vector: Dict[Coset, float], gens) -> Dict[GElement, float]:
    devs: Dict[GElement, float] = {}
    for g in gens:
        if g in devs:
            continue
        moved = {act(g, c): a for c, a in vector.items()}
        extra = [c for c in moved if c not in vector]
        acc = 0.0
        for c in vector:
            d = moved.get(c, 0.0) - vector[c]
            acc += d * d
        for c in extra:
            acc += moved[c] * moved[c]
        devs[g] = math.sqrt(acc)
    return devs
