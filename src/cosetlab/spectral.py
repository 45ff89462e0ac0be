"""Quantitative amenability testing on coset orbit balls.

Markov averaging operators of symmetric generator multisets, certified
spectral-radius lower bounds by a matrix-free LOBPCG on a ball's generator
images (preconditioned by the exact factor of cI - M, c just above the top
eigenvalue, wherever the ball is a tree apart from loops), exact invariance
checks for single basis vectors, and almost-invariant (Reiter) vectors:
uniform on a window of cosets along the shift direction, with deviations in
closed form as exact rationals 2m/N.  numpy, imported lazily, runs only for
the solve and the operator.
scipy is needed only by markov_operator, the sparse-matrix referee; it
comes with the test extra, not with the runtime dependencies.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

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


class MarkovOperator(namedtuple("MarkovOperator", "counts denominator")):
    """A symmetric substochastic operator on an orbit-ball basis, with exact
    rational entries: an integer-count CSR matrix (counts) over a common
    denominator (the generator multiset size)."""

    __slots__ = ()

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


def _edges(gens: GenSet, images):
    """The walk on the ball as its breadth-first tree plus cross edges, once
    each generator's partner is checked to undo it on each node: each node's
    parent (its least neighbour, one layer in; the base is its own), the
    numbers of generators joining it to its parent and fixing it, and the
    (node, image) pairs of every other in-ball image."""
    generators, partner = gens.elements, gens.partner
    for s, row in enumerate(images):
        at = np.flatnonzero(row >= 0)
        if (images[partner[s], row[at]] != at).any():
            raise ValueError(
                f"operator is not symmetric: {format_gelement(generators[partner[s]])} "
                f"does not undo {format_gelement(generators[s])} on the ball")
    node = np.arange(images.shape[1])
    parent = np.where(images >= 0, images, len(node)).min(axis=0).astype(np.intp)
    parent[0] = 0
    count = np.min_scalar_type(len(images))
    joins, loops = ((images == a).sum(0, count) for a in (parent, node))
    joins[0] = 0  # it counted the base's loops: the base is its own parent
    gen, rows = np.nonzero((images >= 0) & (images != parent) & (images != node))
    cols = images[gen, rows].astype(np.intp)
    keep = parent[cols] != rows  # nor a child
    return parent, joins, loops, (rows[keep], cols[keep])


def _walk(form, n: int, size: int):
    """v -> Mv for the walk of size generators compressed to the first n
    nodes, from its form in _edges: over size, a node's sum over its parent,
    its children, itself and its cross images in the prefix."""
    parent, joins, loops = (a[:n] for a in form[:3])  # a prefix holds its parents
    keep = (form[3][0] < n) & (form[3][1] < n)
    rows, cols, fixed = form[3][0][keep], form[3][1][keep], loops.any()

    def apply(v):
        w = np.bincount(parent, joins * v, n)
        w += joins * v[parent]
        if fixed:  # a pass over n saved where no generator fixes a node
            w += loops * v
        if len(rows):  # bincount with no pairs counts in int64
            w += np.bincount(rows, v[cols], n)
        w /= size
        return w
    return apply


def _tree_solve(form, ends: Sequence[int], size: int, c: float = 1.0):
    """r -> (cI - M)^-1 r, in place, for M the walk of size generators on the
    prefix of ends[-1] nodes, ends[d] of them within distance d: the exact
    factor of cI - M on a tree apart from loops, eliminated from the outer
    layer inward, so with no fill-in.  None if the prefix has a cross edge
    or a pivot is <= 0 (then c is at most the top eigenvalue of M)."""
    parent, joins, loops, (rows, cols) = form
    n = ends[-1]
    if ((rows < n) & (cols < n)).any():
        return None
    # link[i]: M's entry between node i and its parent, then that over i's pivot
    link, pivot = joins[:n] / size, c - loops[:n] / size
    layers = [(ends[d - 1], ends[d]) for d in range(len(ends) - 1, 0, -1)]
    for lo, hi in layers:  # a layer's pivots are final once its children are out
        link[lo:hi] /= pivot[lo:hi]
        pivot[:lo] -= np.bincount(parent[lo:hi], link[lo:hi] * joins[lo:hi] / size, lo)
    if not (pivot > 0.0).all():  # only the base's can be: any other subtree leaks
        return None

    def solve(r):
        for lo, hi in layers:  # fold each layer into its parents, outer first
            r[:lo] += np.bincount(parent[lo:hi], link[lo:hi] * r[lo:hi], lo)
        r /= pivot
        for lo, hi in reversed(layers):  # then each layer from its parents
            r[lo:hi] += link[lo:hi] * r[parent[lo:hi]]
    return solve


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum, not BLAS: a two-thread ddot ran up to 50x slower at these sizes
    return float(np.einsum("i,i", a, b))


def _top_eigenpair(apply, x: np.ndarray, precondition) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the symmetric operator apply, by single-vector
    LOBPCG (Knyazev 2001) from x (updated in place): Rayleigh-Ritz on
    span{x, r, p}, with r the residual of x and p the previous step.  Unless
    precondition is None, it maps r in place to (cI - M)^-1 r, c above the
    top eigenvalue: that steers the search and never enters the bound.

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
        if precondition is not None:
            precondition(r)
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


def _ritz(basis, images, xx: float, xmx: float) -> np.ndarray | None:
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


class SpectralProfile(namedtuple("SpectralProfile", "radii estimates generators")):
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

    def rows(self) -> tuple[tuple[int, float], ...]:
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
    previous radius, padded with its minimum, and preconditioned by the exact
    factor of cI - M (_tree_solve) where the ball is a tree apart from loops,
    as it is for free sets; a ball with a cycle runs without.  From the third
    radius on, c is the last estimate plus twice its last gain, just above
    the top eigenvalue, or 1 where that is not below 1 or not above it.  By
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
    images, ends = ball.gen_images, [ball.prefix_size(d) for d in range(radii[-1] + 1)]
    del ball  # the solver reads only the images: free the node and tail tables
    form = _edges(gens, images)
    del images
    estimates, x = [], np.ones(1)  # the base node alone
    for r in radii:
        start = np.full(ends[r], np.abs(x).min())
        start[: x.size] = np.abs(x)
        c = min(1.0, 3 * estimates[-1] - 2 * estimates[-2]) if len(estimates) > 1 else 1.0
        solve = _tree_solve(form, ends[: r + 1], len(gens), c)  # None: c <= top eigenvalue
        est, x = _top_eigenpair(_walk(form, ends[r], len(gens)), start,
                                solve or _tree_solve(form, ends[: r + 1], len(gens)))
        # A lower bound at radius r is a lower bound at every larger radius
        # (ball compressions interlace), so the running maximum is certified.
        estimates.append(max(est, 0.0, *estimates[-1:]))
    return SpectralProfile(radii, tuple(estimates), gens.describe())


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
        self.moved, self.epsilon = dict(moved), epsilon
        self.window_start, self.window_size = window_start, window_size
        if window_size < 1 or not all(0 <= m <= window_size for m in self.moved.values()):
            raise ValueError(f"moved counts {self.moved} do not fit a window of {window_size}")
        if max(self.deviation_squared.values()) > Fraction(epsilon) ** 2:
            raise ValueError(f"max deviation {self.max_deviation} exceeds epsilon {epsilon}")

    @property
    def deviation_squared(self) -> dict[GElement, Fraction]:
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
