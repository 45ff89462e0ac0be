"""Symmetric generator multisets, exact invariance checks for single basis
vectors, and almost-invariant (Reiter) vectors: uniform on a window of cosets
along the shift direction, with deviations in closed form as exact rationals
2m/N.  Plain Python, with no numpy: only recompute_deviations loads cosets.
The Reiter code imports fractions where it runs, so a Kesten run, which
loads this module for GenSet, loads neither fractions nor decimal."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

from .errors import ResourceLimitError
from .freegroup import (GElement, IDENTITY, Word, format_gelement, g_inv, gamma_member,
                        minimal_level)


class GenSet:
    """A finite nonempty multiset of group elements, closed under inverse
    with multiplicity: partner[s] pairs copy s with a copy of its inverse,
    and an unpaired identity with itself."""

    __slots__ = ("elements", "partner")

    def __init__(self, elements: Iterable[GElement]):
        elems = tuple(elements)
        if not elems:
            raise ValueError("generator multiset must be nonempty")
        for g in elems:
            if not isinstance(g, GElement):
                raise TypeError(f"expected GElement, got {type(g).__name__}")
        partner, waiting = list(range(len(elems))), {}
        for s, g in enumerate(elems):
            if waiting.get(g_inv(g)):
                partner[s] = t = waiting[g_inv(g)].pop()
                partner[t] = s
            else:
                waiting.setdefault(g, []).append(s)
        for g, unpaired in waiting.items():
            if unpaired and g_inv(g) != g:
                raise ValueError(
                    f"generator multiset is not symmetric: {format_gelement(g)} "
                    f"occurs {elems.count(g)} times, its inverse {elems.count(g_inv(g))}"
                )
        self.elements = elems
        self.partner = tuple(partner)

    @classmethod
    def symmetrized(cls, elements: Iterable[GElement]) -> "GenSet":
        """Close a sequence under inverses (appending whatever is missing)."""
        elems = list(elements)
        counts = Counter(elems)
        for g in list(counts):
            missing = counts[g] - counts[g_inv(g)]
            if missing > 0:
                elems.extend([g_inv(g)] * missing)
                counts[g_inv(g)] += missing
        return cls(elems)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def describe(self) -> str:
        return ", ".join(format_gelement(g) for g in self.elements)


def delta_invariance_check(
    S: Iterable[Word],
    level: int | None = None,
) -> tuple[int, dict[Word, float]]:
    """Exact invariance of the basis vector at Coset(level, e) under the
    shift-0 elements (0, s) for s in S.

    level defaults to the largest minimal_level over the non-identity words
    of S (identity words put no constraint on the level; 0 is used if every
    word is the identity).  Each deviation ||(0,s) . delta - delta|| is 0.0
    when the coset is fixed, that is when s is a gamma_member at the level
    (exactly), and sqrt(2) when it moves to a different basis vector.
    """
    words = tuple(S)
    if not words:
        raise ValueError("S must be nonempty")
    for w in words:
        if not isinstance(w, Word):
            raise TypeError(f"expected Word, got {type(w).__name__}")
    if level is None:
        level = max((minimal_level(w) for w in words if w.letters), default=0)
    level = int(level)  # (0, w) sends Coset(level, e) to Coset(level, retract(w, level))
    return level, {w: 0.0 if gamma_member(w, level) else math.sqrt(2.0) for w in words}


class ReiterCertificate:
    """The uniform unit vector xi on the window of cosets Coset(n, e),
    window_start < n <= window_start + window_size, of which g moves
    moved[g] out: ||lambda(g) xi - xi||^2 = 2 moved[g] / window_size
    exactly, and every deviation is at most epsilon."""

    __slots__ = ("moved", "epsilon", "window_start", "window_size")

    def __init__(self, moved, epsilon, window_start, window_size):
        from fractions import Fraction

        self.moved, self.epsilon = dict(moved), epsilon
        self.window_start, self.window_size = window_start, window_size
        if window_size < 1 or not all(0 <= m <= window_size for m in self.moved.values()):
            raise ValueError(f"moved counts {self.moved} do not fit a window of {window_size}")
        if max(self.deviation_squared.values()) > Fraction(epsilon) ** 2:
            raise ValueError(f"max deviation {self.max_deviation} exceeds epsilon {epsilon}")

    @property
    def deviation_squared(self) -> dict[GElement, Fraction]:
        from fractions import Fraction

        return {g: Fraction(2 * m, self.window_size) for g, m in self.moved.items()}

    @property
    def deviations(self) -> dict[GElement, float]:
        # float(2m/N) and sqrt are correctly rounded and rounding is monotone,
        # so 2m/N <= epsilon^2 exactly gives sqrt <= sqrt(fl(epsilon^2)) = epsilon.
        return {g: math.sqrt(q) for g, q in self.deviation_squared.items()}

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values())

    def recompute_deviations(self) -> dict[GElement, float]:
        """Recount every m by acting on each window coset; must reproduce
        the deviations."""
        from fractions import Fraction

        from .cosets import Coset, act

        lo, hi = self.window_start, self.window_start + self.window_size
        window = {Coset(n, IDENTITY) for n in range(lo + 1, hi + 1)}
        moved = {g: sum(act(g, c) not in window for c in window) for g in self.moved}
        return {g: math.sqrt(Fraction(2 * m, hi - lo)) for g, m in moved.items()}


def reiter_search(S, epsilon: float, max_window: int = 1 << 20) -> ReiterCertificate:
    """Construct an almost-invariant unit vector for the generator multiset
    S: uniform amplitude over the window of cosets Coset(n, e) with
    n0 < n <= n0 + N, where n0 is the largest minimal level among the
    word parts of S.

    N = ceil(2K / epsilon^2) in exact rational arithmetic (1 if K = 0), K
    the largest shift: the least window whose bound sqrt(2K/N) is at most
    epsilon.  A window above max_window raises ResourceLimitError.
    """
    from fractions import Fraction

    if not isinstance(S, GenSet):
        S = GenSet(S)
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 2.0):
        raise ValueError(f"epsilon must lie in (0, 2), got {epsilon}")
    if max_window < 1:
        raise ValueError(f"window cap must be positive, got {max_window}")
    n0 = max((minimal_level(g.word) for g in S if g.word.letters), default=0)
    K = max(abs(g.shift) for g in S)
    N = max(1, math.ceil(Fraction(2 * K) / Fraction(epsilon) ** 2))
    if N > max_window:
        size = N if N < 10**30 else f"10^{math.log10(N):.1f}"  # str() refuses > 4,300 digits
        raise ResourceLimitError(
            f"window size {size} exceeds cap {max_window} at epsilon {epsilon}"
        )
    # g = (k, w) sends Coset(n, e) to Coset(n + k, retract(w, n + k)),
    # injectively in n.  An image can be in the window only at a level
    # above n0 >= minimal_level(w), where w retracts to e; so exactly the
    # window cosets with n + k outside (n0, n0 + N] leave, m = min(|k|, N)
    # of them.  xi and lambda(g) xi are uniform on N cosets each and
    # differ on 2m, so ||lambda(g) xi - xi||^2 = 2m / N.  That is at most
    # 2K / N <= epsilon^2 when N >= K, and 2 < epsilon^2 when N < K.
    return ReiterCertificate({g: min(abs(g.shift), N) for g in S}, epsilon, n0, N)
