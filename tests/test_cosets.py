"""Coset canonical forms, the group action, and orbit balls."""

import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cosetlab import cosets
from cosetlab.cosets import (
    Coset,
    OrbitBall,
    act,
    h_orbit_partition,
    normal_form,
    orbit_ball,
)
from cosetlab.errors import ResourceLimitError
from cosetlab.freegroup import (
    G_IDENTITY,
    GElement,
    IDENTITY,
    g_inv,
    g_mul,
    parse_gelement,
    parse_word,
    reduce,
)
from cosetlab.spectral import GenSet, free_generator_set

from helpers import child_peak_rss, random_closure_member, random_gelement, traced_peak


def gens_x12():
    return tuple(free_generator_set(2))


def test_coset_validation():
    Coset(2, parse_word("x3 x5"))
    with pytest.raises(ValueError):
        Coset(2, parse_word("x2"))
    with pytest.raises(ValueError):
        Coset(0, parse_word("x-1"))
    with pytest.raises(TypeError, match="tail must be a Word"):
        Coset(0, "x1")
    with pytest.raises(TypeError, match="word must be a Word"):
        GElement(0, "x1")
    with pytest.raises(ValueError, match="radius must be >= 0, got -1"):
        orbit_ball(Coset(0, IDENTITY), gens_x12(), -1)
    with pytest.raises(ValueError, match="generator sequence must be nonempty"):
        orbit_ball(Coset(0, IDENTITY), (), 2)
    with pytest.raises(TypeError, match="generators must be GElements, got Word"):
        orbit_ball(Coset(0, IDENTITY), (parse_word("x1"),), 2)


def test_normal_form_examples():
    assert normal_form(parse_gelement("(2; x1 x3)")) == Coset(2, parse_word("x3"))
    assert normal_form(G_IDENTITY) == Coset(0, IDENTITY)
    assert normal_form(parse_gelement("t^4")) == Coset(4, IDENTITY)
    assert normal_form(parse_gelement("(0; x0)")) == Coset(0, IDENTITY)
    assert normal_form(parse_gelement("(0; x1)")) == Coset(0, parse_word("x1"))


def test_normal_form_constant_on_cosets():
    # right-multiplying by a closure element at level 0 keeps the coset
    rng = random.Random(61)
    for _ in range(400):
        a = random_gelement(rng)
        h = GElement(0, random_closure_member(rng, 0))
        assert normal_form(g_mul(a, h)) == normal_form(a)


def test_normal_form_separates_cosets():
    # two elements with the same normal form differ by a stabilizer element
    rng = random.Random(67)
    from cosetlab.freegroup import gamma_member

    for _ in range(400):
        a = random_gelement(rng)
        b = random_gelement(rng)
        d = g_mul(g_inv(a), b)
        same = normal_form(a) == normal_form(b)
        assert same == (d.shift == 0 and gamma_member(d.word, 0))


def test_act_is_a_left_action():
    rng = random.Random(71)
    for _ in range(400):
        g = random_gelement(rng)
        h = random_gelement(rng)
        c = normal_form(random_gelement(rng))
        assert act(G_IDENTITY, c) == c
        assert act(g, act(h, c)) == act(g_mul(g, h), c)


def test_act_matches_multiplication_of_representatives():
    rng = random.Random(73)
    for _ in range(400):
        g = random_gelement(rng)
        a = random_gelement(rng)
        assert act(g, normal_form(a)) == normal_form(g_mul(g, a))


def test_act_examples():
    c = Coset(0, IDENTITY)
    t = parse_gelement("t")
    assert act(t, c) == Coset(1, IDENTITY)
    x1 = parse_gelement("x1")
    assert act(x1, c) == Coset(0, parse_word("x1"))
    # at level 1 the generator x1 is absorbed
    assert act(x1, Coset(1, IDENTITY)) == Coset(1, IDENTITY)


def test_orbit_ball_free_sizes():
    # the level-0 orbit of {x1, x2} is a rank-2 free group: ball sizes
    # 1 + 2(3^r - 1)
    base = Coset(0, IDENTITY)
    for r in range(6):
        ball = orbit_ball(base, gens_x12(), r)
        assert len(ball) == 1 + 2 * (3**r - 1)


def test_orbit_ball_prefix_property():
    base = Coset(0, IDENTITY)
    big = orbit_ball(base, gens_x12(), 5)
    for r in range(6):
        small = orbit_ball(base, gens_x12(), r)
        assert len(small) == big.prefix_size(r)
        for i in range(len(small)):
            assert small.node(i) == big.node(i)
            assert small.distance(i) == big.distance(i)


def test_orbit_ball_distances_and_images():
    base = Coset(0, IDENTITY)
    gens = gens_x12()
    ball = orbit_ball(base, gens, 4)
    assert ball.node(0) == base and ball.distance(0) == 0
    last = 0
    for i in range(len(ball)):
        d = ball.distance(i)
        assert d >= last  # breadth-first order
        last = d
    for i in range(len(ball)):
        for j, g in enumerate(gens):
            target = act(g, ball.node(i))
            k = ball.image(i, j)
            if k >= 0:
                assert ball.node(k) == target
            else:
                # boundary: the image exists but lies outside the ball
                assert ball.find(target) is None
                assert ball.distance(i) == 4
    # a level or a letter index past 1 << 31 is outside any ball
    assert ball.find(Coset(1 << 31, IDENTITY)) is None
    assert ball.find(Coset(0, parse_word(f"x{1 << 31}"))) is None


def test_orbit_ball_edges_are_symmetric():
    ball = orbit_ball(Coset(0, IDENTITY), gens_x12(), 3)
    seen = {}
    for img in ball.gen_images:
        for src, dst in enumerate(img.tolist()):
            if dst >= 0:
                seen[(src, dst)] = seen.get((src, dst), 0) + 1
    for (src, dst), count in seen.items():
        assert seen.get((dst, src), 0) == count


def test_orbit_ball_cap():
    with pytest.raises(ResourceLimitError) as exc:
        orbit_ball(Coset(0, IDENTITY), gens_x12(), 10, cap=50)
    assert "radius" in str(exc.value)
    with pytest.raises(ValueError, match="node cap must be positive, got 0"):
        orbit_ball(Coset(0, IDENTITY), gens_x12(), 2, cap=0)


def test_orbit_ball_image_limit_is_checked_before_each_layer(monkeypatch):
    # the radius-2 ball of x1, x2 and inverses has 1 + 4 + 12 = 17 nodes,
    # so its 4 generators store 68 images
    monkeypatch.setattr(cosets, "IMAGE_LIMIT", 68)
    assert len(orbit_ball(Coset(0, IDENTITY), gens_x12(), 2)) == 17
    monkeypatch.setattr(cosets, "IMAGE_LIMIT", 67)
    with pytest.raises(ResourceLimitError) as exc:
        orbit_ball(Coset(0, IDENTITY), gens_x12(), 2)
    assert "image limit 67" in str(exc.value) and "need 68 images" in str(exc.value)


def test_h_orbit_partition_levels():
    parts = h_orbit_partition(range(6), gens_x12(), 3)
    assert set(parts) == set(range(6))
    # level 0 is free of rank 2, level 1 free of rank 1, level >= 2 trivial
    assert len(parts[0]) == 1 + 2 * (3**3 - 1)
    assert len(parts[1]) == 2 * 3 + 1
    for n in range(2, 6):
        assert len(parts[n]) == 1
        assert parts[n].node(0) == Coset(n, IDENTITY)


def test_h_orbit_partition_rejects_shifts():
    with pytest.raises(ValueError):
        h_orbit_partition(range(2), [parse_gelement("t")], 2)


def reference_ball(base, gens, radius):
    """Node-by-node breadth-first search on act() and a dict: the referee
    for the layer-vectorized orbit_ball."""
    nodes, index, dist = [base], {base: 0}, [0]
    images = [[] for _ in gens]
    i = 0
    while i < len(nodes):
        for gi, g in enumerate(gens):
            target = act(g, nodes[i])
            j = index.get(target, -1)
            if j < 0 and dist[i] < radius:
                j = len(nodes)
                index[target] = j
                nodes.append(target)
                dist.append(dist[i] + 1)
            images[gi].append(j)
        i += 1
    return nodes, dist, images


@st.composite
def ball_inputs(draw):
    level = draw(st.sampled_from((0, 10**6, -(10**6)))) + draw(st.integers(-2, 2))

    def word(lo, hi):
        letters = st.tuples(st.integers(lo, hi), st.sampled_from((1, -1)))
        return reduce(draw(st.lists(letters, max_size=3)))

    # letters from 3 below to 4 above the base level straddle the levels
    # that shifts of -3..3 reach within the drawn radii
    gens = [GElement(draw(st.integers(-3, 3)), word(level - 3, level + 4))
            for _ in range(draw(st.integers(1, 3)))]
    base = Coset(level, word(level + 1, level + 4))
    return base, GenSet.symmetrized(gens).elements, draw(st.integers(0, 3))


@settings(max_examples=80, deadline=None)
@given(ball_inputs(), st.sampled_from([1, 5, cosets.SLICE_PAIRS]))
# x0 makes an unseen tail, x-1 is skipped at level -1, and x0^-1 cancels
# back to e: the outer layer's images are [[0], [0]], loops, though the
# intermediate tail is in no ball
@example((Coset(-1, IDENTITY),
          GenSet.symmetrized([parse_gelement("(0; x0^-1 x-1 x0)")]).elements, 0), 1)
def test_orbit_ball_matches_reference_bfs(inputs, slice_pairs):
    # small slices number one layer's nodes and tails across many slices
    base, gens, radius = inputs
    with mock.patch.object(cosets, "SLICE_PAIRS", slice_pairs):
        ball = orbit_ball(base, gens, radius)
    nodes, dist, images = reference_ball(base, gens, radius)
    assert [ball.node(i) for i in range(len(ball))] == nodes
    assert ball.distances.tolist() == dist
    assert [img.tolist() for img in ball.gen_images] == images
    for i, c in enumerate(nodes):
        assert ball.find(c) == i
    for gi, g in enumerate(gens):
        for i in np.flatnonzero(ball.gen_images[gi] < 0):
            assert ball.find(act(g, nodes[i])) is None


def test_orbit_ball_rejects_unpackable_codes():
    x = parse_gelement(f"x{2**70}")
    t = parse_gelement(f"t^{2**40}")
    for radius in (0, 1):  # at radius 0 the base's images are only looked up
        with pytest.raises(ValueError, match="INDEX_LIMIT"):
            orbit_ball(Coset(0, IDENTITY), [x, g_inv(x)], radius)
        with pytest.raises(ValueError, match="LEVEL_LIMIT"):
            orbit_ball(Coset(0, IDENTITY), [t, g_inv(t)], radius)


def test_orbit_ball_checks_the_tail_limit(monkeypatch):
    cases = [
        # one-letter words: the outer layer looks its tails up, so radius 2
        # of the rank-2 free orbit interns only its own 1 + 4 + 12 tails
        (("x1", "x2"), 17, 17, 17),
        # the first letters of x1 x2 and its inverse number two tails of the
        # outer layer, in no ball, besides the radius-2 ball's own 9
        (("x1 x2",), 5, 9, 11),
    ]
    for words, nodes, tails, limit in cases:
        gens = GenSet.symmetrized(map(parse_gelement, words)).elements
        monkeypatch.setattr(cosets, "TAIL_LIMIT", limit)
        ball = orbit_ball(Coset(0, IDENTITY), gens, 2)
        assert (len(ball), len(ball._tails)) == (nodes, tails)
        monkeypatch.setattr(cosets, "TAIL_LIMIT", limit - 1)
        with pytest.raises(ValueError, match=f"TAIL_LIMIT = {limit - 1}"):
            orbit_ball(Coset(0, IDENTITY), gens, 2)


def test_orbit_ball_huge_radius_stops_at_cap_or_orbit_end():
    t = parse_gelement("t")
    with pytest.raises(ResourceLimitError, match="cap 10"):
        orbit_ball(Coset(0, IDENTITY), [t, g_inv(t)], 10**15, cap=10)
    x0 = parse_gelement("x0")
    ball = orbit_ball(Coset(5, IDENTITY), [x0, g_inv(x0)], 10**15)
    assert len(ball) == 1
    assert ball.gen_images.tolist() == [[0], [0]]


def test_kesten_cap_bounds_layer_memory():
    # radius 3 of the rank-50 free orbit has 980,201 nodes: the layer must
    # stop at the cap, not after computing its images
    code, err, maxrss_kb = child_peak_rss(
        [sys.executable, "-m", "cosetlab", "kesten", "-k", "50", "--radii", "1..4",
         "--cap", "100000"])
    assert code == 3
    assert "node cap 100000" in err
    # computing the whole layer before checking the cap peaked near 200 MB
    assert maxrss_kb < 150 * 1024


def test_orbit_ball_outer_slices_leave_nothing_behind(monkeypatch):
    # The outer layer's images are looked up, not grown, and written in
    # place into the ball's image array, so a slice leaves nothing traced
    # behind it.  Returning views of a slice's buffers kept two of them
    # alive per slice until the layer ended.
    monkeypatch.setattr(cosets, "SLICE_PAIRS", 1024)
    expand, after = cosets._expand, []

    def spy(*args):
        out = expand(*args)
        if args[-1] is None:  # no list for new nodes: a slice of the outer layer
            after.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(cosets, "_expand", spy)
    ball, _, _ = traced_peak(lambda: orbit_ball(Coset(0, IDENTITY), gens_x12(), 8))
    assert len(ball) == 13121
    assert len(after) == 35  # 8,748 outer nodes times 4 generators, in slices of 1,024
    assert max(after) - after[0] < 1024 * 8  # less than one slice buffer in all


def test_orbit_ball_traced_peak_is_close_to_what_it_holds():
    # the radius-10 ball holds 3.6 MiB: its images, and the node and tail
    # keys, each table its own index (6.3 MiB while each kept a sorted copy
    # and int32 ids).  Its traced peak was 1.47 times what it held while each
    # layer's images were a block of their own, concatenated at the end, and
    # a layer's key view kept the untrimmed node keys alive through the last
    # commits; 1.34 times while the last commit trimmed the node keys by a
    # copy, held next to the untrimmed ones; trimmed in place, about 4.6 MiB,
    # 1.26 times, reached while the outer layer fills the images.
    ball, peak, held = traced_peak(
        lambda: orbit_ball(Coset(0, IDENTITY), gens_x12(), 10))
    assert len(ball) == 118_097
    assert peak <= 1.3 * held
