"""Quantitative amenability testing on coset orbit balls.

Markov averaging operators of symmetric generator multisets, certified
spectral-radius lower bounds by a matrix-free LOBPCG on a ball's generator
images, exact invariance checks for single basis vectors, and
almost-invariant (Reiter) vectors: uniform on a window of cosets along the
shift direction, with their deviations in closed form as exact rationals
2m/N.  numpy, imported lazily, runs only for the solve and the operator.
scipy is needed only by markov_operator, the sparse-matrix referee; it
comes with the test extra, not with the runtime dependencies.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from ._lazy import lazy_import
from .cosets import Coset, OrbitBall, act, orbit_ball
from .errors import ResourceLimitError
from .freegroup import (
    GElement,
    IDENTITY,
    Word,
    format_gelement,
    g_inv,
    gamma_member,
    minimal_level,
    parse_word,
)

np = lazy_import("numpy")


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


def free_generator_set(k: int) -> GenSet:
    """The symmetric set {(0, x_1)^{+-1}, ..., (0, x_k)^{+-1}}."""
    if k < 1:
        raise ValueError(f"need at least one generator, got k={k}")
    elems = []
    for i in range(1, k + 1):
        elems.append(GElement(0, parse_word(f"x{i}")))
        elems.append(GElement(0, parse_word(f"x{i}^-1")))
    return GenSet(elems)


class MarkovOperator(NamedTuple):
    """A symmetric substochastic operator on an orbit-ball basis, with exact
    rational entries: an integer-count CSR matrix over a common denominator
    (the generator multiset size)."""

    counts: "scipy.sparse.csr_matrix"
    denominator: int

    @property
    def matrix(self) -> "scipy.sparse.csr_matrix":
        """Floating-point form, counts / denominator."""
        return self.counts / self.denominator


def markov_operator(ball: OrbitBall) -> MarkovOperator:
    """M = (1/|S|) sum over s in S of the action permutation compressed to
    the ball (images outside the ball dropped: zero boundary).

    M must come out exactly symmetric, or ValueError: eigvalsh reads one
    triangle only.  This is the sparse-matrix referee for kesten_profile,
    so it shares none of the solver's code.
    """
    import scipy.sparse as sp

    n = len(ball)
    images = np.asarray(ball.gen_images)
    mask = images >= 0
    row = np.nonzero(mask)[1].astype(np.int64)
    col = images[mask].astype(np.int64)
    data = np.ones(len(row), dtype=np.int64)
    counts = sp.coo_matrix((data, (row, col)), shape=(n, n)).tocsr()
    if (counts != counts.T).nnz:
        raise ValueError("operator is not symmetric")
    return MarkovOperator(counts, len(ball.generators))


# A radius stops once the Rayleigh quotient gains less than GAIN, or after
# MAX_STEPS steps.  A Gram matrix of unit vectors with an eigenvalue below
# RANK_FLOOR has lost rank.
GAIN, MAX_STEPS, RANK_FLOOR = 1e-13, 10_000, 1e-10


def _edges(gens: GenSet, images) -> Tuple[np.ndarray, np.ndarray]:
    """The (node, image) pairs of the generator images inside the ball,
    sorted by node, once each generator's partner is checked to undo it on
    each: then the walk operator is symmetric at every radius."""
    generators, partner = gens.elements, gens.partner
    for s, row in enumerate(images):
        at = np.flatnonzero(row >= 0)
        if (images[partner[s], row[at]] != at).any():
            raise ValueError(
                f"operator is not symmetric: {format_gelement(generators[partner[s]])} "
                f"does not undo {format_gelement(generators[s])} on the ball")
    inside = (images >= 0).T  # node-major, as the pairs are sorted
    nodes = np.repeat(np.arange(len(inside)), inside.sum(axis=1))
    return nodes, images.T[inside].astype(np.intp)


def _walk(edges: Tuple[np.ndarray, np.ndarray], n: int, size: int):
    """v -> Mv for the walk of size generators compressed to the first n
    nodes: (Mv)_i sums v over the images of node i in the prefix, over size."""
    m = int(np.searchsorted(edges[0], n))
    rows, cols = edges[0][:m], edges[1][:m]
    if not (cols < n).all():
        rows, cols = rows[cols < n], cols[cols < n]
    # bincount counts in int64 when there are no pairs at all
    return lambda v: np.bincount(rows, v[cols], n).astype(float, copy=False) / size


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum, not BLAS: a two-thread ddot ran up to 50x slower at these sizes
    return float(np.einsum("i,i", a, b))


def _top_eigenpair(apply, x: np.ndarray) -> Tuple[float, np.ndarray]:
    """Largest eigenvalue of the symmetric operator apply, by single-vector
    LOBPCG (Knyazev 2001) from x (updated in place): Rayleigh-Ritz on
    span{x, r, p}, with r the residual of x and p the previous step.

    Returns (x.Mx / x.x, x) for the best iterate x, with Mx a fresh product.
    A step is kept only if it raises that quotient, so the 3x3 arithmetic
    never enters the bound.
    """
    p, mp, prev = np.zeros(x.size), np.zeros(x.size), np.empty(x.size)
    mx, best, k = apply(x), -math.inf, 2  # span{x, r} until there is a step
    for _ in range(MAX_STEPS):
        xx, xmx = _dot(x, x), _dot(x, mx)
        rho = xmx / xx
        if rho - best < GAIN:
            if rho < best:
                np.copyto(x, prev)  # the step lost to rounding: undo it
            break
        best = rho
        r = np.multiply(x, -rho)
        r += mx
        mr = apply(r)
        c = _ritz((x, r, p)[:k], (mx, mr, mp)[:k], xx, xmx)
        if c is None and k == 3:  # p has fallen into span{x, r}: drop it
            c, k = _ritz((x, r), (mx, mr), xx, xmx), 2
        if c is None:
            break
        np.copyto(prev, x)
        for v, w, u in ((p, r, x), (mp, mr, mx)):  # p <- c1 r + c2 p, x <- c0 x + p
            v *= c[2] if k == 3 else 0.0
            w *= c[1]
            v += w
            u *= c[0]
            u += v
        k = 3
    return _dot(x, apply(x)) / _dot(x, x), x


def _ritz(basis, images, xx: float, xmx: float) -> Optional[np.ndarray]:
    """Coefficients of the top Ritz vector in the span of basis (images
    holds M of each vector; xx = x.x and xmx = x.Mx for the first), or None
    when the Gram matrix has lost rank."""
    k = len(basis)
    gram, proj = np.full((k, k), xx), np.full((k, k), xmx)
    for i in range(k):
        for j in range(max(i, 1), k):
            gram[i, j] = gram[j, i] = _dot(basis[i], basis[j])
            proj[i, j] = proj[j, i] = _dot(basis[i], images[j])
    if gram.diagonal().min() <= 0.0:
        return None  # a zero vector, e.g. a vanishing residual
    scale = 1.0 / np.sqrt(gram.diagonal())
    vals, vecs = np.linalg.eigh(gram * np.outer(scale, scale))
    if vals[0] < RANK_FLOOR:
        return None
    ortho = vecs / np.sqrt(vals)
    ritz = np.linalg.eigh(ortho.T @ (proj * np.outer(scale, scale)) @ ortho)[1][:, -1]
    return scale * (ortho @ ritz)


class SpectralProfile(NamedTuple("SpectralProfile", [
        ("radii", Tuple[int, ...]), ("estimates", Tuple[float, ...]), ("generators", str)])):
    """Certified lower bounds on the Markov operator norm, per ball radius."""

    __slots__ = ()

    def __new__(cls, radii, estimates, generators):
        for e in estimates:
            if not (0.0 <= e <= 1.0):
                raise ValueError(f"estimate {e} outside [0, 1]")
        for a, b in zip(estimates, estimates[1:]):
            if b < a:
                raise ValueError(f"estimates decrease: {a} then {b}")
        return super().__new__(cls, radii, estimates, generators)

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
    Each estimate is the Rayleigh quotient of an explicit vector, from a
    LOBPCG solve on the in-ball generator images that starts from |x| of the
    previous radius, padded with its minimum.  By eigenvalue interlacing
    every earlier estimate stays a valid lower bound, so the profile is
    nondecreasing by construction.
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
    images, sizes = ball.gen_images, [ball.prefix_size(r) for r in radii]
    del ball  # the solver reads only the images: free the node and tail tables
    edges = _edges(gens, images)
    del images
    estimates, x = [], np.ones(1)  # the base node alone
    for n in sizes:
        start = np.full(n, np.abs(x).min())
        start[: x.size] = np.abs(x)
        est, x = _top_eigenpair(_walk(edges, n, len(gens)), start)
        # A lower bound at radius r is a lower bound at every larger radius
        # (ball compressions interlace), so the running maximum is certified.
        estimates.append(max(est, 0.0, *estimates[-1:]))
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

    N = ceil(2K / epsilon^2) in exact rational arithmetic (1 if K = 0), K
    the largest shift: the least window whose bound sqrt(2K/N) is at most
    epsilon.  A window above max_window raises ResourceLimitError.
    """
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
