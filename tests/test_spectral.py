"""Markov operators, norm lower bounds, and almost-invariant vectors."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cosetlab import spectral
from cosetlab.cosets import Coset, orbit_ball
from cosetlab.errors import ResourceLimitError
from cosetlab.freegroup import (
    G_IDENTITY, GElement, IDENTITY, parse_gelement, parse_word, reduce,
)
from cosetlab.spectral import (
    GenSet,
    ReiterCertificate,
    SpectralProfile,
    delta_invariance_check,
    free_generator_set,
    kesten_profile,
    markov_operator,
    reiter_search,
)

from coset_oracle import _exact_deviations, window_vector
from helpers import traced_peak

# Largest eigenvalues of the radius-r ball truncations of the simple random
# walk on a rank-2 free group, computed from the radial reduction: the walk
# seen from the root is a tridiagonal operator on distance shells with
# couplings 1/2 (shell 0 to 1) and sqrt(3)/4 afterwards.
BALL_NORM = {
    1: 0.5,
    2: 0.6614378277661477,
    3: 0.7333804979112131,
    4: 0.7722281586887512,
    5: 0.7958353556126486,
    6: 0.8113619196946872,
}

FREE_WALK_NORM_2 = math.sqrt(3) / 2  # limit of the truncations above


def radial_oracle(r: int) -> float:
    """Independent check: eigenvalue of the (r+1) x (r+1) shell matrix."""
    t = np.zeros((r + 1, r + 1))
    for i in range(r):
        c = 0.5 if i == 0 else math.sqrt(3) / 4
        t[i, i + 1] = t[i + 1, i] = c
    return float(np.linalg.eigvalsh(t)[-1])


def test_genset_requires_symmetry():
    with pytest.raises(ValueError):
        GenSet([parse_gelement("x1")])
    with pytest.raises(ValueError, match="must be nonempty"):
        GenSet([])
    with pytest.raises(TypeError, match="expected GElement, got Word"):
        GenSet([parse_word("x1"), parse_word("x1^-1")])
    s = GenSet.symmetrized([parse_gelement("x1")])
    assert len(s) == 2
    both = GenSet([parse_gelement("x1"), parse_gelement("x1^-1")])
    assert len(both) == 2


def test_genset_multiset_symmetry():
    a = parse_gelement("x1")
    b = parse_gelement("x1^-1")
    GenSet([a, a, b, b])
    with pytest.raises(ValueError):
        GenSet([a, a, b])


def test_genset_pairs_each_copy_with_an_inverse():
    a, b = parse_gelement("x1"), parse_gelement("x1^-1")
    assert GenSet([a, a, b, b]).partner == (3, 2, 1, 0)
    # the identity pairs with itself; an odd copy is its own partner
    assert GenSet([G_IDENTITY, G_IDENTITY, G_IDENTITY, b, a]).partner == (1, 0, 2, 4, 3)


def test_free_generator_set():
    s = free_generator_set(2)
    assert len(s) == 4
    assert free_generator_set(1).describe() == "(0; x1), (0; x1^-1)"
    with pytest.raises(ValueError):
        free_generator_set(0)


def test_markov_operator_entries():
    ball = orbit_ball(Coset(0, IDENTITY), tuple(free_generator_set(2)), 2)
    op = markov_operator(ball)
    assert op.denominator == 4
    counts = op.counts.toarray()
    assert counts.dtype.kind == "i"
    assert counts[0, 1] == 1  # entry 1/4
    assert counts[0, 0] == 0
    assert (counts == counts.T).all()
    row_sums = counts.sum(axis=1)
    assert (row_sums <= op.denominator).all()
    # interior rows are stochastic, boundary rows are deficient
    assert row_sums[0] == op.denominator
    boundary_rows = set(np.nonzero((np.asarray(ball.gen_images) < 0).any(axis=0))[0])
    assert boundary_rows == {i for i in range(len(ball)) if ball.distance(i) == 2}
    for i in boundary_rows:
        assert row_sums[i] < op.denominator


def test_norm_lower_bound_on_a_path():
    # radius-r ball for one free generator is a path with 2r + 1 nodes;
    # its walk operator has norm cos(pi / (2r + 2))
    for r in (1, 2, 5, 10):
        profile = kesten_profile(Coset(0, IDENTITY), free_generator_set(1), (r,))
        est = profile.estimates[0]
        truth = math.cos(math.pi / (2 * r + 2))
        assert est <= truth + 1e-12
        assert est >= truth - 1e-6


def test_norm_lower_bound_is_a_lower_bound():
    radii = (1, 2, 3)
    profile = kesten_profile(Coset(0, IDENTITY), free_generator_set(2), radii)
    for r, est in profile.rows():
        ball = orbit_ball(Coset(0, IDENTITY), tuple(free_generator_set(2)), r)
        dense = markov_operator(ball).matrix.toarray()
        truth = float(np.linalg.eigvalsh(dense)[-1])
        assert est <= truth + 1e-12
        assert est >= truth - 1e-6


def test_kesten_profile_values():
    radii = (1, 2, 3, 4, 5, 6)
    profile = kesten_profile(Coset(0, IDENTITY), free_generator_set(2), radii)
    assert profile.radii == radii
    for r, est in profile.rows():
        assert est <= BALL_NORM[r] + 1e-9
        assert est >= BALL_NORM[r] - 1e-6
        assert abs(radial_oracle(r) - BALL_NORM[r]) < 1e-12
    for a, b in zip(profile.estimates, profile.estimates[1:]):
        assert b >= a


def test_kesten_profile_validates_radii():
    gens = free_generator_set(2)
    with pytest.raises(ValueError):
        kesten_profile(Coset(0, IDENTITY), gens, (2, 2))
    with pytest.raises(ValueError):
        kesten_profile(Coset(0, IDENTITY), gens, (3, 1))
    with pytest.raises(ValueError):
        kesten_profile(Coset(0, IDENTITY), gens, ())
    with pytest.raises(ValueError, match="radii must be >= 0, got -1"):
        kesten_profile(Coset(0, IDENTITY), gens, [-1, 2])
    # a plain list of generators is made a GenSet, and checked as one
    assert kesten_profile(Coset(0, IDENTITY), list(gens), (1, 2)).estimates == \
        kesten_profile(Coset(0, IDENTITY), gens, (1, 2)).estimates
    with pytest.raises(ValueError, match="not symmetric"):
        kesten_profile(Coset(0, IDENTITY), [parse_gelement("x1")], (1,))


def test_kesten_profile_matches_direct_balls():
    # warm-started prefix computation must agree with one-shot runs
    profile = kesten_profile(Coset(0, IDENTITY), free_generator_set(2), (2, 4))
    single = kesten_profile(Coset(0, IDENTITY), free_generator_set(2), (4,))
    assert abs(profile.estimates[-1] - single.estimates[-1]) < 1e-6


@st.composite
def kesten_inputs(draw):
    level = draw(st.integers(-2, 2))
    letters = st.tuples(st.integers(level - 2, level + 2), st.sampled_from((1, -1)))
    # letters from 2 below to 2 above the base level straddle it, and a
    # letter of index >= level fixes the base coset (a self-loop)
    gens = [GElement(draw(st.integers(-2, 2)), reduce(draw(st.lists(letters, max_size=2))))
            for _ in range(draw(st.integers(1, 2)))]
    radii = sorted(set(draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))))
    return Coset(level, IDENTITY), GenSet.symmetrized(gens), tuple(radii)


@settings(max_examples=60, deadline=None)
@given(kesten_inputs())
@example((Coset(0, IDENTITY), free_generator_set(1), (0, 1, 2, 7, 12)))  # bipartite paths
@example((Coset(0, IDENTITY), GenSet.symmetrized([parse_gelement("t"), parse_gelement("x0")]),
          (0, 1, 2, 3, 4)))
@example((Coset(0, IDENTITY), GenSet.symmetrized([G_IDENTITY, parse_gelement("x1")]),
          (0, 1, 3)))  # the identity is its own partner
@example((Coset(0, IDENTITY), GenSet.symmetrized(map(parse_gelement, ("x1", "x2", "x1 x2"))),
          (0, 1, 2, 3)))  # cycles: cross pairs are singleton classes
@example((Coset(0, IDENTITY), free_generator_set(2), (1, 2, 3, 4, 5, 6)))  # the shifted factor
# 3 e(6) - 2 e(5) = 0.99293 is below the r=30 top eigenvalue 0.99872: the
# shifted factor has a negative pivot, and the solve falls back to c = 1
@example((Coset(0, IDENTITY), free_generator_set(1), (5, 6, 30)))
# a one-node orbit (x0 fixes the base coset): every layer past 0 is empty,
# and the class pass once took the max of one; each estimate is 1.0
@example((Coset(0, IDENTITY), GenSet.symmetrized([parse_gelement("x0")]), (1, 2, 5)))
def test_kesten_profile_matches_dense_eigenvalues(inputs):
    base, gens, radii = inputs
    profile = kesten_profile(base, gens, radii)
    for r, est in profile.rows():
        ball = orbit_ball(base, gens.elements, r)
        truth = float(np.linalg.eigvalsh(markov_operator(ball).matrix.toarray())[-1])
        assert truth - 1e-10 <= est <= truth + 1e-12


def _corrupted_ball(*args, **kwargs):
    # the first generator's images of nodes 1 and 2 swapped
    ball = orbit_ball(*args, **kwargs)
    ball.gen_images[0, [1, 2]] = ball.gen_images[0, [2, 1]]
    return ball


def test_kesten_profile_rejects_an_asymmetric_ball(monkeypatch):
    monkeypatch.setattr(spectral, "orbit_ball", _corrupted_ball)
    with pytest.raises(ValueError, match="not symmetric"):
        kesten_profile(Coset(0, IDENTITY), free_generator_set(2), (1, 2))


def test_markov_operator_rejects_an_asymmetric_ball():
    # the referee sees the same corruption with none of the solver's code
    ball = _corrupted_ball(Coset(0, IDENTITY), tuple(free_generator_set(2)), 2)
    with pytest.raises(ValueError, match="not symmetric"):
        markov_operator(ball)


def test_kesten_profile_traced_peak_is_bounded():
    # the radius-10 ball holds 118,097 nodes, and the solve reads only its
    # images.  Building it with 9 MiB of temporaries per slice, and keeping
    # its node and tail tables through the solve, peaked at 22.4 MiB.
    profile, peak, _ = traced_peak(
        lambda: kesten_profile(Coset(0, IDENTITY), free_generator_set(2), range(1, 11)))
    assert profile.estimates[-1] == pytest.approx(0.8404454698, abs=1e-9)
    assert peak <= 16 << 20


T_X0 = GenSet.symmetrized([parse_gelement("t"), parse_gelement("x0")])


def _tree_form(gens, radius, base=Coset(0, IDENTITY)):
    ball = orbit_ball(base, gens.elements, radius)
    form = spectral._edges(gens, ball.gen_images)
    return ball, form, [ball.prefix_size(d) for d in range(radius + 1)]


def test_tree_factor_inverts_i_minus_m_on_a_ball_with_loops():
    ball, form, ends = _tree_form(T_X0, 5)
    dense = markov_operator(ball).matrix.toarray()
    assert dense.diagonal().any()  # x0 fixes some nodes
    top = float(np.linalg.eigvalsh(dense)[-1])
    rng = np.random.default_rng(5)
    for c in (1.0, top + 1e-6):  # the factor of cI - M, c above every prefix's top
        for r in (0, 3, 5):  # each prefix is factored with its own boundary
            n = ends[r]
            solve = spectral._tree_solve(form, ends[: r + 1], len(T_X0), c)
            v = rng.standard_normal(n)
            rhs = c * v - dense[:n, :n] @ v
            solve(rhs)
            # cI - M has condition number about 1 / (c - top)
            assert np.abs(rhs - v).max() < max(1e-12, 1e-16 / (c - top))
    # below the top eigenvalue cI - M is indefinite: a pivot is negative
    assert spectral._tree_solve(form, ends, len(T_X0), top - 1e-6) is None


def test_tree_factor_inverts_ci_minus_the_tree_part_of_a_ball_with_cycles():
    # on a ball with cross pairs the factor is of cI - T, for T the walk
    # without them: T <= M entry by entry, so its top eigenvalue is at most M's
    gens = GenSet.symmetrized(map(parse_gelement, ("x1", "x2", "x1 x2")))
    ball, form, ends = _tree_form(gens, 3)
    dense = markov_operator(ball).matrix.toarray()
    tree = dense.copy()
    assert len(form[3][0])
    tree[form[3]] = 0.0
    top = float(np.linalg.eigvalsh(tree)[-1])
    assert top < float(np.linalg.eigvalsh(dense)[-1])
    v = np.random.default_rng(3).standard_normal(len(tree))
    for c in (1.0, top + 1e-6):
        rhs = c * v - tree @ v
        spectral._tree_solve(form, ends, len(gens), c)(rhs)
        assert np.abs(rhs - v).max() < max(1e-12, 1e-16 / (c - top))
    assert spectral._tree_solve(form, ends, len(gens), top - 1e-6) is None


def test_tree_factor_stops_at_a_bad_pivot_before_it_divides():
    # at c = 0 the outer layer of the loop-free k=2 ball has zero pivots:
    # dividing by them first warned of a division by zero
    gens = free_generator_set(2)
    ball, form, ends = _tree_form(gens, 4)
    dense = markov_operator(ball).matrix.toarray()
    top = float(np.linalg.eigvalsh(dense)[-1])
    v = np.random.default_rng(2).standard_normal(len(dense))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (0.0, -1.0, top / 2, top - 1e-6):  # cI - M is not positive definite
            assert spectral._tree_solve(form, ends, len(gens), c) is None
        for c in (top + 1e-6, 1.0):
            rhs = c * v - dense @ v
            spectral._tree_solve(form, ends, len(gens), c)(rhs)
            assert np.abs(rhs - v).max() < max(1e-12, 1e-16 / (c - top))


def test_tree_factor_cuts_the_matvecs_of_the_shift_profile(monkeypatch):
    real, calls = spectral._walk, []

    def counted(*args):
        apply = real(*args)
        return lambda v: calls.append(v.size) or apply(v)

    monkeypatch.setattr(spectral, "_walk", counted)
    cases = [
        # 436 products without the factor: the top two eigenvalues of the
        # r=12 ball, 0.98850 and 0.98224, lie close together.  The r=12 top
        # eigenvalue is the one in perfbench/reference.json.  The products
        # run on the class tree: 4,277 classes for 128,649 nodes.
        (T_X0, range(1, 13), 0.9885030151951841, 150, 4277),
        # 78 products with the factor of I - M, whose top eigenvalue at r=10
        # is 0.84: LOBPCG took 10 steps at each of r = 8, 9 and 10.  A free
        # ball of radius r has r + 1 classes, one per distance.
        (free_generator_set(2), range(1, 11), radial_oracle(10), 66, 11),
        # c = 0.99293 is below the top eigenvalue of the r=30 path, cos(pi/62):
        # 70 products if that radius ran with no factor instead of c = 1
        (free_generator_set(1), (5, 6, 30), math.cos(math.pi / 62), 30, 31),
        # cross pairs: 355 products on the nodes with no factor.  Folded, the
        # r=9 ball's 194,413 nodes make 125,198 classes, most of them singletons.
        (GenSet.symmetrized(map(parse_gelement, ("t", "x0", "x1 x0"))), range(1, 10),
         0.98569950454229, 130, 126_000),
    ]
    for gens, radii, top, most, width in cases:
        calls.clear()
        profile = kesten_profile(Coset(0, IDENTITY), gens, radii)
        assert profile.estimates[-1] == pytest.approx(top, abs=1e-12)
        assert len(calls) <= most
        assert max(calls) <= width


@st.composite
def tree_inputs(draw):
    """Small generator sets whose balls are mostly trees apart from loops
    (about one in ten has cross pairs): shifts, words of up to 3 letters,
    letters fixing cosets (loops), and a repeated generator (two joins to
    one parent)."""
    level = draw(st.integers(-2, 2))
    letters = st.tuples(st.integers(level - 2, level + 2), st.sampled_from((1, -1)))
    gens = [GElement(draw(st.integers(-2, 2)), reduce(draw(st.lists(letters, max_size=3))))
            for _ in range(draw(st.integers(1, 2)))]
    gens += gens[: draw(st.integers(0, 1))]
    radii = sorted(set(draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))))
    return Coset(level, IDENTITY), GenSet.symmetrized(gens), tuple(radii)


def _node_classes(form, ends):
    # every node its own class: _quotient gives back _edges' form, with
    # joins as floats, and the profile runs LOBPCG on the nodes
    return np.arange(len(form[0])), list(ends)


@settings(max_examples=60, deadline=None)
@given(tree_inputs(), st.integers(1, 3))
# 1,025 nodes at r=2: a radius-1 node's key, joins << 32, takes 31 child
# digits and would overflow int64, so the class pass re-ranks the keys once
@example((Coset(0, IDENTITY), GenSet.symmetrized(map(parse_gelement, ["x1"] + [
    f"x{i}" for i in range(1, 17)])), (1, 2)), 1)
@example((Coset(0, IDENTITY), GenSet.symmetrized(map(parse_gelement, ("t", "x0", "x1 x0"))),
          (1, 2, 4)), 2)  # cross pairs with a shift
def test_class_tree_is_equitable_and_keeps_the_node_estimates(inputs, k):
    base, gens, radii = inputs
    _, form, ends = _tree_form(gens, radii[-1], base)
    parent, joins, loops, (rows, cols) = form
    cls, cends = spectral._classes(form, ends)
    children, cross = [[] for _ in cls], [[] for _ in cls]
    for i in range(1, len(cls)):
        children[parent[i]].append(cls[i])
    for i, j in zip(rows, cols):
        cross[i].append(cls[j])
    shapes = {}  # each class's parent class, joins, loops, child and cross classes
    for i, c in enumerate(cls):
        shape = (cls[parent[i]], joins[i], loops[i], sorted(children[i]), sorted(cross[i]))
        assert shapes.setdefault(c, shape) == shape
    for r, n in enumerate(ends):  # the classes within depth r are a prefix
        assert sorted(set(cls[:n])) == list(range(cends[r]))
        assert (cls[n:] >= cends[r]).all()
    free = _tree_form(free_generator_set(k), radii[-1])
    assert spectral._classes(*free[1:])[1] == list(range(1, radii[-1] + 2))
    estimates = kesten_profile(base, gens, radii).estimates
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectral, "_classes", _node_classes)
        nodes = kesten_profile(base, gens, radii).estimates
    assert np.abs(np.subtract(estimates, nodes)).max() <= 1e-12


def test_shift_profile_traced_peak_is_bounded():
    # 128,649 nodes at r=12; 14.5 MiB when the solve held the edge list
    _, peak, _ = traced_peak(lambda: kesten_profile(Coset(0, IDENTITY), T_X0, range(1, 13)))
    assert peak <= 16 << 20


def test_spectral_profile_validation():
    with pytest.raises(ValueError):
        SpectralProfile((1, 2), (0.6, 0.5), "g")
    with pytest.raises(ValueError):
        SpectralProfile((1,), (1.5,), "g")


def test_resource_cap_reports_radius():
    with pytest.raises(ResourceLimitError) as exc:
        kesten_profile(Coset(0, IDENTITY), free_generator_set(2), (1, 8), cap=100)
    assert "radius" in str(exc.value)


def test_kesten_profile_bounds_its_solve_work(monkeypatch):
    # radius r costs r + 1 layer steps, however many nodes its ball holds
    cyclic = GenSet.symmetrized(map(parse_gelement, ("x1", "x2", "x1 x2")))
    for gens in (free_generator_set(2), cyclic):
        monkeypatch.setattr(spectral, "SOLVE_LIMIT", 2 + 5)
        assert len(kesten_profile(Coset(0, IDENTITY), gens, (1, 4)).estimates) == 2
        monkeypatch.setattr(spectral, "SOLVE_LIMIT", 2 + 5 - 1)
        with pytest.raises(ResourceLimitError, match="need 7 layer steps"):
            kesten_profile(Coset(0, IDENTITY), gens, (1, 4))
    # a one-node orbit: refused before a ball of 100,001 layers is built
    monkeypatch.setattr(spectral, "orbit_ball", None)
    x0 = GenSet.symmetrized([parse_gelement("x0")])
    with pytest.raises(ResourceLimitError, match="need 5000150000 layer steps"):
        kesten_profile(Coset(5, IDENTITY), x0, range(1, 100_001))


def test_kesten_profile_on_nodes_within_the_cap_fits_the_solve_limit():
    # a ball with a cross edge is solved on its 524,287 nodes: the node cap,
    # not SOLVE_LIMIT, bounds them
    cyclic = GenSet.symmetrized(map(parse_gelement, ("x1", "x2", "x1 x2")))
    profile = kesten_profile(Coset(0, IDENTITY), cyclic, range(1, 10))
    assert len(profile.estimates) == 9 and 0.8 < profile.estimates[-1] < 1.0


def test_delta_invariance_basic():
    level, devs = delta_invariance_check([parse_word("x0")])
    assert level == 0
    assert devs[parse_word("x0")] == 0.0
    level, devs = delta_invariance_check(
        [parse_word("x5 x3 x5^-1"), parse_word("x1")]
    )
    assert level == 3
    assert all(d == 0.0 for d in devs.values())


def test_delta_invariance_level_override():
    # below the required level the coset moves and the deviation is sqrt(2)
    w = parse_word("x5 x3 x5^-1")
    level, devs = delta_invariance_check([w], level=2)
    assert level == 2
    assert devs[w] == math.sqrt(2.0)


def test_delta_invariance_identity_words():
    level, devs = delta_invariance_check([parse_word("e")])
    assert level == 0
    assert devs[parse_word("e")] == 0.0
    with pytest.raises(ValueError):
        delta_invariance_check([])
    with pytest.raises(TypeError, match="expected Word, got str"):
        delta_invariance_check(["x1"])


def test_reiter_search_shift_only():
    gens = GenSet.symmetrized([parse_gelement("t")])
    cert = reiter_search(gens, 0.2)
    assert cert.window_size == 50
    assert cert.max_deviation == 0.2
    assert cert.max_deviation == math.sqrt(2.0 / cert.window_size)
    # exact recomputation from the stored vector
    assert cert.recompute_deviations() == cert.deviations


def test_reiter_search_deviation_formula():
    # a +-1 shift moves exactly the two window edges: deviation sqrt(2/N)
    gens = GenSet.symmetrized([parse_gelement("t")])
    for eps in (0.3, 0.15, 0.07):
        cert = reiter_search(gens, eps)
        expected = math.sqrt(2.0 / cert.window_size)
        assert abs(cert.max_deviation - expected) < 1e-12
        assert cert.max_deviation <= eps


def test_reiter_search_word_generators_are_absorbed():
    gens = GenSet.symmetrized([parse_gelement("x0")])
    cert = reiter_search(gens, 0.5)
    assert cert.window_size == 1
    assert cert.max_deviation == 0.0
    assert cert.window_start == 0


def test_reiter_search_mixed_generators():
    gens = GenSet.symmetrized(
        [parse_gelement("t"), parse_gelement("x0"), parse_gelement("x-3")]
    )
    cert = reiter_search(gens, 0.1)
    assert cert.max_deviation <= 0.1
    # word parts act trivially above their levels, so only shifts deviate
    for g, d in cert.deviations.items():
        if g.shift == 0:
            assert d == 0.0
    vector = window_vector(cert.window_start, cert.window_size)
    assert abs(sum(a * a for a in vector.values()) - 1.0) < 1e-12
    oracle = _exact_deviations(vector, gens)
    assert all(abs(oracle[g] - d) < 1e-12 for g, d in cert.deviations.items())


def test_reiter_search_validates_epsilon():
    gens = GenSet.symmetrized([parse_gelement("t")])
    for eps in (0.0, 2.0, -1.0, 3.0):
        with pytest.raises(ValueError):
            reiter_search(gens, eps)
    # a plain list of generators is made a GenSet, and checked as one
    listed, genset = reiter_search(list(gens), 0.5), reiter_search(gens, 0.5)
    assert (listed.window_size, listed.deviations) == (genset.window_size, genset.deviations)
    with pytest.raises(ValueError, match="not symmetric"):
        reiter_search([parse_gelement("t")], 0.5)


def test_reiter_search_window_cap():
    gens = GenSet.symmetrized([parse_gelement("t")])
    with pytest.raises(ResourceLimitError):
        reiter_search(gens, 0.01, max_window=100)
    for cap in (0, -5):
        with pytest.raises(ValueError, match="window cap must be positive"):
            reiter_search(gens, 0.5, max_window=cap)
    # a shift past float range is still a window past the cap, not a crash
    huge = GenSet.symmetrized([GElement(10**400, IDENTITY)])
    with pytest.raises(ResourceLimitError, match="exceeds cap 1048576"):
        reiter_search(huge, 1.9)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6) | st.integers(0, 10**400), st.floats(1e-3, 1.999))
def test_reiter_search_window_is_the_least_the_bound_admits(K, eps):
    gens = GenSet.symmetrized([GElement(K, parse_word("x0"))])
    N = reiter_search(gens, eps, max_window=10**500).window_size
    admits = lambda n: Fraction(2 * K, n) <= Fraction(eps) ** 2
    assert admits(N) and (N == 1 or not admits(N - 1))


def test_reiter_certificate_validation():
    t = parse_gelement("t")
    assert ReiterCertificate({t: 1}, 0.2, 0, 50).deviations == {t: 0.2}
    # deviation 0.5 above epsilon, and sqrt(2/49) just above it
    for size in (8, 49):
        with pytest.raises(ValueError):
            ReiterCertificate({t: 1}, 0.2, 0, size)
    # the uniform vector has unit norm only on a nonempty window, and a
    # generator moves between 0 and all of its cosets
    for moved, size in (({t: 0}, 0), ({t: -1}, 50), ({t: 51}, 50)):
        with pytest.raises(ValueError):
            ReiterCertificate(moved, 0.2, 0, size)


def test_reiter_deviation_bound_randomized():
    # deviation of a K-shift against an N-window is at most sqrt(2K/N)
    rng = random.Random(83)
    for _ in range(30):
        k = rng.randint(1, 4)
        gens = GenSet.symmetrized([GElement(k, IDENTITY)])
        eps = rng.choice((0.5, 0.3, 0.2))
        cert = reiter_search(gens, eps)
        bound = math.sqrt(2.0 * k / cert.window_size)
        assert cert.max_deviation <= bound + 1e-12


@st.composite
def reiter_inputs(draw):
    offset = draw(st.sampled_from((0, 10**6, -(10**6))))

    def word():
        letters = st.tuples(st.integers(offset - 3, offset + 3), st.sampled_from((1, -1)))
        return reduce(draw(st.lists(letters, max_size=4)))

    # letters within 3 of the offset straddle the window start, the largest
    # minimal level of the word parts; epsilon >= 0.44 keeps the window
    # at most 2 * 6 / 0.44^2 < 64 cosets, with shifts above it as well
    gens = [GElement(draw(st.integers(-6, 6)), word()) for _ in range(draw(st.integers(1, 3)))]
    return GenSet.symmetrized(gens), draw(st.floats(0.44, 1.99))


@settings(max_examples=150, deadline=None)
@given(reiter_inputs())
def test_reiter_closed_form_matches_recount(inputs):
    gens, eps = inputs
    cert = reiter_search(gens, eps)
    assert cert.window_size <= 64
    assert cert.max_deviation <= eps
    # the act recount compares integer counts: sqrt(2m/N) is injective in m
    assert cert.recompute_deviations() == cert.deviations
    oracle = _exact_deviations(window_vector(cert.window_start, cert.window_size), gens)
    assert all(abs(oracle[g] - d) < 1e-12 for g, d in cert.deviations.items())
    assert all(abs(float(q) - oracle[g] ** 2) < 1e-12 for g, q in cert.deviation_squared.items())
