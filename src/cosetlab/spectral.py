"""Quantitative amenability testing on coset orbit balls.

Markov averaging operators of symmetric generator multisets, certified
spectral-radius lower bounds via power iteration, exact invariance checks
for single basis vectors, and almost-invariant (Reiter) vectors: uniform
on a window of cosets along the shift direction, with their deviations in
closed form as exact rationals 2m/N.  Only the operators load scipy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .cosets import Coset, OrbitBall, act, orbit_ball
from .errors import ResourceLimitError
from .freegroup import (
    GElement,
    IDENTITY,
    Word,
    format_gelement,
    g_inv,
    minimal_level,
    parse_word,
)


class GenSet:
    """A finite nonempty multiset of group elements, closed under inverse
    with multiplicity."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[GElement]):
        elems = tuple(elements)
        if not elems:
            raise ValueError("generator multiset must be nonempty")
        for g in elems:
            if not isinstance(g, GElement):
                raise TypeError(f"expected GElement, got {type(g).__name__}")
        counts = Counter(elems)
        for g, c in counts.items():
            if counts[g_inv(g)] != c:
                raise ValueError(
                    f"generator multiset is not symmetric: {format_gelement(g)} "
                    f"occurs {c} times, its inverse {counts[g_inv(g)]}"
                )
        self.elements = elems

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


def free_generator_set(k: int) -> GenSet:
    """The symmetric set {(0, x_1)^{+-1}, ..., (0, x_k)^{+-1}}."""
    if k < 1:
        raise ValueError(f"need at least one generator, got k={k}")
    elems = []
    for i in range(1, k + 1):
        elems.append(GElement(0, parse_word(f"x{i}")))
        elems.append(GElement(0, parse_word(f"x{i}^-1")))
    return GenSet(elems)


class SparseOperator:
    """Symmetric substochastic operator on an orbit-ball basis.

    Entries are exact rationals count/denominator, held as an integer-count
    sparse matrix plus the common denominator (the generator multiset size).
    Row sums are <= 1, with equality exactly on interior nodes.
    """

    __slots__ = ("counts", "denominator", "_matrix")

    def __init__(self, counts: sp.spmatrix, denominator: int):
        counts = counts.tocsr()
        n, m = counts.shape
        if n != m:
            raise ValueError(f"operator must be square, got {counts.shape}")
        if denominator < 1:
            raise ValueError(f"denominator must be positive, got {denominator}")
        if (counts != counts.T).nnz != 0:
            raise ValueError("operator is not symmetric")
        row_sums = np.asarray(counts.sum(axis=1)).ravel()
        if len(row_sums) and row_sums.max(initial=0) > denominator:
            raise ValueError("row sum exceeds 1")
        if counts.nnz and counts.data.min() < 0:
            raise ValueError("negative entry count")
        self.counts = counts
        self.denominator = denominator
        self._matrix = None

    @property
    def matrix(self) -> sp.csr_matrix:
        """Floating-point form, counts / denominator."""
        if self._matrix is None:
            self._matrix = self.counts.astype(np.float64) / self.denominator
        return self._matrix


def markov_operator(ball: OrbitBall) -> SparseOperator:
    """M = (1/|S|) sum over s in S of the action permutation compressed to
    the ball (images outside the ball dropped: zero boundary).

    The ball's generator multiset must be symmetric; then M is exactly
    symmetric with rational entries of denominator |S|.
    """
    import scipy.sparse as sp

    gens = GenSet(ball.generators)
    n = len(ball)
    images = np.asarray(ball.gen_images)
    mask = images >= 0
    row = np.nonzero(mask)[1].astype(np.int64)
    col = images[mask].astype(np.int64)
    data = np.ones(len(row), dtype=np.int64)
    counts = sp.coo_matrix((data, (row, col)), shape=(n, n)).tocsr()
    return SparseOperator(counts, len(gens))


# Power-iteration budget per radius: stop after ITERATIONS steps, or once the
# Rayleigh quotient improves by less than TOL.
ITERATIONS = 200_000
TOL = 1e-9


def _power_iterate(matrix: sp.csr_matrix, v: np.ndarray) -> Tuple[float, np.ndarray]:
    """Power iteration on (matrix + identity), reading off the Rayleigh
    quotient of matrix itself.

    The +identity shift makes the iterated operator positive semidefinite
    (the matrix is symmetric with norm <= 1), which guarantees the Rayleigh
    readout is nondecreasing along iterates and converges to the top
    eigenvalue even on bipartite balls, where unshifted iteration stalls.
    Returns (best Rayleigh quotient seen, final unit iterate).
    """
    best = -math.inf
    prev = -math.inf
    for _ in range(ITERATIONS):
        mv = matrix @ v
        ray = float(v @ mv)
        if ray > best:
            best = ray
        if ray - prev < TOL:
            break
        prev = ray
        w = mv + v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            break
        v = w / nw
    return best, v


@dataclass(frozen=True)
class SpectralProfile:
    """Certified lower bounds on the Markov operator norm, per ball radius."""

    radii: Tuple[int, ...]
    estimates: Tuple[float, ...]
    generators: str

    def __post_init__(self):
        for e in self.estimates:
            if not (0.0 <= e <= 1.0):
                raise ValueError(f"estimate {e} outside [0, 1]")
        for a, b in zip(self.estimates, self.estimates[1:]):
            if b < a:
                raise ValueError(f"estimates decrease: {a} then {b}")

    def rows(self) -> Tuple[Tuple[int, float], ...]:
        return tuple(zip(self.radii, self.estimates))


def kesten_profile(
    base: Coset,
    gens,
    radii: Sequence[int],
    cap: int = 2_000_000,
) -> SpectralProfile:
    """Norm lower bounds for the Markov operator compressed to orbit balls
    of increasing radius around base.

    One ball is built at the largest radius; because breadth-first order
    lists nodes by distance, the ball at any smaller radius is a prefix, and
    the corresponding operator is exactly the leading principal submatrix.
    Each radius warm-starts from the previous eigenvector estimate, and by
    eigenvalue interlacing every earlier estimate stays a valid lower bound,
    so the profile is nondecreasing by construction.
    """
    if not isinstance(gens, GenSet):
        gens = GenSet(gens)
    radii = tuple(int(r) for r in radii)
    if not radii:
        raise ValueError("radii must be nonempty")
    if radii[0] < 0:
        raise ValueError(f"radii must be >= 0, got {radii[0]}")
    for a, b in zip(radii, radii[1:]):
        if b <= a:
            raise ValueError(f"radii must be strictly increasing, got {a} then {b}")

    ball = orbit_ball(base, gens.elements, radii[-1], cap=cap)
    matrix = markov_operator(ball).matrix

    estimates = []
    prev_est = 0.0
    v: Optional[np.ndarray] = None
    for r in radii:
        nr = ball.prefix_size(r)
        if v is None:
            start = np.full(nr, 1.0 / math.sqrt(nr))
        else:
            start = np.zeros(nr)
            start[: v.size] = v
        est, v = _power_iterate(matrix[:nr, :nr], start)
        # A lower bound at radius r is a lower bound at every larger radius
        # (ball compressions interlace), so the running maximum is certified.
        prev_est = max(est, prev_est)
        estimates.append(prev_est)
    return SpectralProfile(radii, tuple(estimates), gens.describe())


def delta_invariance_check(
    S: Iterable[Word],
    level: Optional[int] = None,
) -> Tuple[int, Dict[Word, float]]:
    """Exact invariance of the basis vector at Coset(level, e) under the
    shift-0 elements (0, s) for s in S.

    level defaults to the largest minimal_level over the non-identity words
    of S (identity words put no constraint on the level; 0 is used if every
    word is the identity).  Each deviation ||(0,s) . delta - delta|| is 0.0
    when the coset is fixed (decided by exact integer comparison) and
    sqrt(2) when it moves to a different basis vector.
    """
    words = tuple(S)
    if not words:
        raise ValueError("S must be nonempty")
    for w in words:
        if not isinstance(w, Word):
            raise TypeError(f"expected Word, got {type(w).__name__}")
    if level is None:
        level = max((minimal_level(w) for w in words if w.letters), default=0)
    base = Coset(int(level), IDENTITY)
    deviations: Dict[Word, float] = {}
    for w in words:
        moved = act(GElement(0, w), base)
        deviations[w] = 0.0 if moved == base else math.sqrt(2.0)
    return int(level), deviations


class ReiterCertificate:
    """The uniform unit vector xi on the window of cosets Coset(n, e),
    window_start < n <= window_start + window_size, of which g moves
    moved[g] out: ||lambda(g) xi - xi||^2 = 2 moved[g] / window_size
    exactly, and every deviation is at most epsilon."""

    __slots__ = ("moved", "epsilon", "window_start", "window_size")

    def __init__(self, moved, epsilon, window_start, window_size):
        self.moved, self.epsilon = dict(moved), epsilon
        self.window_start, self.window_size = window_start, window_size
        if window_size < 1 or not all(0 <= m <= window_size for m in self.moved.values()):
            raise ValueError(f"moved counts {self.moved} do not fit a window of {window_size}")
        if max(self.deviation_squared.values()) > Fraction(epsilon) ** 2:
            raise ValueError(f"max deviation {self.max_deviation} exceeds epsilon {epsilon}")

    @property
    def deviation_squared(self) -> Dict[GElement, Fraction]:
        return {g: Fraction(2 * m, self.window_size) for g, m in self.moved.items()}

    @property
    def deviations(self) -> Dict[GElement, float]:
        # float(2m/N) and sqrt are correctly rounded and rounding is monotone,
        # so 2m/N <= epsilon^2 exactly gives sqrt <= sqrt(fl(epsilon^2)) = epsilon.
        return {g: math.sqrt(q) for g, q in self.deviation_squared.items()}

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values())

    def recompute_deviations(self) -> Dict[GElement, float]:
        """Recount every m by acting on each window coset; must reproduce
        the deviations."""
        lo, hi = self.window_start, self.window_start + self.window_size
        window = {Coset(n, IDENTITY) for n in range(lo + 1, hi + 1)}
        moved = {g: sum(act(g, c) not in window for c in window) for g in self.moved}
        return {g: math.sqrt(Fraction(2 * m, hi - lo)) for g, m in moved.items()}


def reiter_search(S, epsilon: float, max_window: int = 1 << 20) -> ReiterCertificate:
    """Construct an almost-invariant unit vector for the generator multiset
    S: uniform amplitude over the window of cosets Coset(n, e) with
    n0 < n <= n0 + N, where n0 is the largest minimal level among the
    word parts of S.

    N starts at the smallest value the bound sqrt(2K/N) admits, K the
    largest shift, and doubles until 2 max m / N <= epsilon^2 in exact
    rational arithmetic.
    """
    if not isinstance(S, GenSet):
        S = GenSet(S)
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 2.0):
        raise ValueError(f"epsilon must lie in (0, 2), got {epsilon}")
    n0 = max((minimal_level(g.word) for g in S if g.word.letters), default=0)
    K = max(abs(g.shift) for g in S)
    N = max(1, math.ceil(2 * K / (epsilon * epsilon)))
    while True:
        if N > max_window:
            raise ResourceLimitError(
                f"window size {N} exceeds cap {max_window} at epsilon {epsilon}"
            )
        # g = (k, w) sends Coset(n, e) to Coset(n + k, retract(w, n + k)),
        # injectively in n.  An image can be in the window only at a level
        # above n0 >= minimal_level(w), where w retracts to e; so exactly the
        # window cosets with n + k outside (n0, n0 + N] leave, m = min(|k|, N)
        # of them.  xi and lambda(g) xi are uniform on N cosets each and
        # differ on 2m, so ||lambda(g) xi - xi||^2 = 2m / N.
        moved = {g: min(abs(g.shift), N) for g in S}
        if Fraction(2 * max(moved.values()), N) <= Fraction(epsilon) ** 2:
            return ReiterCertificate(moved, epsilon, n0, N)
        N *= 2
