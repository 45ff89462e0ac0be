"""Kesten-style norm estimates on coset orbit balls.

Markov averaging operators of symmetric generator multisets, and float
estimates of spectral-radius lower bounds by a matrix-free LOBPCG on a ball's
generator images, solved on the ball's class tree (an equitable partition of
its nodes with the same top eigenvalue) and preconditioned by the exact
factor of cI - T, for T the walk's tree part and c just above the top
eigenvalue.  numpy runs only for the solve and the operator;
scipy only for markov_operator, the sparse-matrix referee, and it comes with
the test extra, not the runtime.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from ._lazy import np
from .errors import ResourceLimitError
# act, minimal_level and the invariance names stay bound for callers and perfbench/tracer.py
from .cosets import Coset, OrbitBall, act, orbit_ball
from .freegroup import GElement, format_gelement, minimal_level, parse_word
from .invariance import GenSet, ReiterCertificate, delta_invariance_check, reiter_search


def free_generator_set(k: int) -> GenSet:
    """The symmetric set {(0, x_1)^{+-1}, ..., (0, x_k)^{+-1}}."""
    if k < 1:
        raise ValueError(f"need at least one generator, got k={k}")
    return GenSet(GElement(0, parse_word(f"x{i}{e}"))
                  for i in range(1, k + 1) for e in ("", "^-1"))


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
# Python layer steps a profile may take, checked before its ball is built:
# the solve at radius r steps through up to r + 1 layers in Python, so a profile
# costs the sum over its radii of r + 1.  The vectors' entries are left to
# the node cap, as numpy works through them far faster: on a 2-vCPU guest
# `kesten -k 1 --radii 1..510` (130,815 steps, no vector above 511 entries)
# took 3.4 s, and the `x1, x2, x1 x2` profile to radius 9 (54 steps on
# 524,287 nodes) 1.2 s.
SOLVE_LIMIT = 1 << 17


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


def _classes(form, ends: Sequence[int]):
    """Each node's class in a ball (form from _edges, ends[d] nodes within
    distance d), and the class prefix sizes.  Two nodes share a class when
    their parents do and their subtrees have the same shape: joins, loops and
    the multiset of their children's shapes.  A node with a cross pair is a
    class of its own, ranked above every shape in its layer, so its ancestors
    are too: a class of two or more has no cross pair, and its members share
    the parent class, joins, loops and child classes, so the partition is
    equitable on every prefix.  Classes are numbered by depth."""
    parent, joins, loops = form[:3]
    cls, top, bounds = np.zeros(len(parent), np.int64), np.iinfo(np.int64).max, [0, *ends]
    cross = np.zeros(len(parent), bool)
    cross[form[3][0]] = True  # the pairs come both ways round
    for d in range(len(ends) - 1, -1, -1):  # shapes, outer layer first
        lo, hi, nxt = bounds[d], bounds[d + 1], bounds[min(d + 2, len(ends))]
        key = joins[lo:hi].astype(np.int64) << 32 | loops[lo:hi]  # counts below 2^32
        base = int(cls[hi:nxt].max(initial=-1)) + 2
        kids = np.sort((parent[hi:nxt] - lo) * base + cls[hi:nxt])  # by parent, then shape
        up, shape = kids // base, kids % base
        place = np.arange(len(up)) - np.searchsorted(up, up)
        for j in range(int(place.max(initial=-1)) + 1):  # one digit per child place, 0 if none
            if key.max() > top // base - 1:  # the next digit could overflow: re-rank
                key = np.unique(key, return_inverse=True)[1]
            key *= base
            at = place == j
            key[up[at]] += shape[at] + 1
        cls[lo:hi] = np.unique(key, return_inverse=True)[1]
        cls[lo:hi][cross[lo:hi]] = hi - lo + np.arange(np.count_nonzero(cross[lo:hi]))
    cends = [1]
    for lo, hi in zip(ends, ends[1:]):  # then (parent's class, shape), inner layer first
        key = cls[parent[lo:hi]] * (int(cls[lo:hi].max(initial=0)) + 1) + cls[lo:hi]
        cls[lo:hi] = cends[-1] + np.unique(key, return_inverse=True)[1]
        cends.append(int(cls[lo:hi].max(initial=cends[-1] - 1)) + 1)
    return cls, cends


def _quotient(form, ends: Sequence[int]):
    """The walk of form (from _edges) folded by its classes (_classes), in
    _edges' shape, with the class prefix sizes and √ of the class sizes n.
    Q = D^½ B D^-½, for B the quotient of M and D = diag(n), is symmetric,
    has M's top eigenvalue, and z.Qz / z.z is the Rayleigh quotient of the
    lift D^-½ z on M: a class's joins become j √(n / n of its parent class),
    and a cross pair, joining singletons, keeps weight 1."""
    parent, joins, loops, (rows, cols) = form
    cls, ends = _classes(form, ends)
    n = np.bincount(cls)
    first = np.empty(len(n), np.intp)
    first[cls] = np.arange(len(cls))  # a member of each class
    up = cls[parent[first]]
    form = up, joins[first] * np.sqrt(n / n[up]), loops[first], (cls[rows], cls[cols])
    return form, ends, np.sqrt(n)


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
    """r -> (cI - T)^-1 r, in place, for T the walk of size generators on the
    prefix of ends[-1] nodes, ends[d] of them within distance d, less its
    cross pairs: the exact factor, eliminated from the outer layer inward, so
    with no fill-in.  None if a pivot is <= 0: then c is at most the top
    eigenvalue of T, so of M (T <= M entry by entry).  Positive pivots make a
    positive definite factor, but put c above M's top only with no cross pair."""
    parent, joins, loops = (a[: ends[-1]] for a in form[:3])
    # link[i]: M's entry between node i and its parent, then that over i's pivot
    link, pivot = joins / size, c - loops / size
    # (start of the parents' layer, start, end) of each layer, outer first
    layers = list(zip([0, 0, *ends], [0, *ends], ends))[:0:-1]
    for up, lo, hi in layers:  # a layer's pivots are final once its children are out
        if not (pivot[lo:hi] > 0.0).all():  # a pivot <= 0: stop before dividing by it
            return None
        link[lo:hi] /= pivot[lo:hi]
        fold = link[lo:hi] * joins[lo:hi] / size
        pivot[up:lo] -= np.bincount(parent[lo:hi] - up, fold, lo - up)
    if not (pivot > 0.0).all():  # the base's, the last to be final
        return None

    def solve(r):
        for up, lo, hi in layers:  # fold each layer into its parents, outer first
            r[up:lo] += np.bincount(parent[lo:hi] - up, link[lo:hi] * r[lo:hi], lo - up)
        r /= pivot
        for _, lo, hi in reversed(layers):  # then each layer from its parents
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


def check_solve_steps(ranges) -> None:
    """Raise unless solves at every radius of the (lo, hi) ranges, r + 1
    layer steps at radius r, fit SOLVE_LIMIT; in closed form, so a range is
    never expanded."""
    steps = sum((hi + 1) * (hi + 2) - lo * (lo + 1) for lo, hi in ranges) // 2
    if steps > SOLVE_LIMIT:
        raise ResourceLimitError(
            f"kesten profile exceeds SOLVE_LIMIT = {SOLVE_LIMIT}: its radii "
            f"need {steps} layer steps")


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
    factor of cI - T (_tree_solve), T the walk's tree part.  It runs on the
    ball's class tree (_quotient), where cross pairs join singletons: z there
    stands for the node vector D^-½ z, with the same Rayleigh quotient, and
    its prefixes are the balls of smaller radius.  From the third
    radius on, c is the last estimate plus twice its last gain, just above
    the top eigenvalue, or 1 where that is not below 1 or not above it.  By
    eigenvalue interlacing every earlier estimate stays a valid lower bound,
    so the profile is nondecreasing by construction.  Radii whose solves
    take more than SOLVE_LIMIT layer steps raise ResourceLimitError before
    the ball is built.
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

    check_solve_steps(zip(radii, radii))
    ball = orbit_ball(base, gens.elements, radii[-1], cap=cap)
    images, ends = ball.gen_images, [ball.prefix_size(d) for d in range(radii[-1] + 1)]
    del ball  # the solver reads only the images: free the node and tail tables
    form = _edges(gens, images)
    del images
    form, ends, root = _quotient(form, ends)
    estimates, x = [], np.ones(1)  # the base node alone
    for r in radii:
        y = np.abs(x) / root[: x.size]  # |x| lifted to the nodes
        start = np.full(ends[r], y.min())
        start[: x.size] = y
        start *= root[: ends[r]]
        c = min(1.0, 3 * estimates[-1] - 2 * estimates[-2]) if len(estimates) > 1 else 1.0
        solve = _tree_solve(form, ends[: r + 1], len(gens), c)  # None: c <= top eigenvalue
        est, x = _top_eigenpair(_walk(form, ends[r], len(gens)), start,
                                solve or _tree_solve(form, ends[: r + 1], len(gens)))
        # A lower bound at radius r is a lower bound at every larger radius
        # (ball compressions interlace), so the running maximum is one too.
        estimates.append(max(est, 0.0, *estimates[-1:]))
    return SpectralProfile(radii, tuple(estimates), gens.describe())
