"""Kesten-style norm estimates on coset orbit balls.

Markov averaging operators of symmetric generator multisets, and float
estimates of spectral-radius lower bounds by a matrix-free LOBPCG on a ball's
generator images (preconditioned by the exact factor of cI - M, c just above
the top eigenvalue, wherever the ball is a tree apart from loops).  numpy
runs only for the solve and the operator; scipy only for markov_operator, the
sparse-matrix referee, and it comes with the test extra, not the runtime.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from ._lazy import np
# act, minimal_level and the invariance names stay bound for callers and perfbench/tracer.py
from .cosets import Coset, OrbitBall, act, orbit_ball
from .freegroup import GElement, format_gelement, minimal_level, parse_word
from .invariance import GenSet, ReiterCertificate, delta_invariance_check, reiter_search


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
        if not (pivot[lo:hi] > 0.0).all():  # a pivot <= 0: stop before dividing by it
            return None
        link[lo:hi] /= pivot[lo:hi]
        pivot[:lo] -= np.bincount(parent[lo:hi], link[lo:hi] * joins[lo:hi] / size, lo)
    if not (pivot > 0.0).all():  # the base's, the last to be final
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
    """Per-radius lower bounds on the Markov operator norm, as floats that may round above it."""

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
        # (ball compressions interlace), so the running maximum is one too.
        estimates.append(max(est, 0.0, *estimates[-1:]))
    return SpectralProfile(radii, tuple(estimates), gens.describe())
