"""Acceptance checks, one numbered test (or test group) per criterion.

Criterion 2 is split into its labeled sub-claims (monotonicity, the
radius-10 estimate window, the 0.87 bound, the dense cross-check, and the
runtime guard) so each pass/fail line is visible on its own.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from cosetlab.characters import (
    Character,
    frobenius_check,
    induce_character,
    invariant_dimension,
)
from cosetlab.cli import main as cli_main
from cosetlab.cosets import Coset, act, h_orbit_partition, normal_form, orbit_ball
from cosetlab.finitegroup import congruence_group, separation_witness, special_linear_order
from cosetlab.freegroup import (
    G_IDENTITY,
    GElement,
    IDENTITY,
    g_inv,
    g_mul,
    gamma_member,
    minimal_level,
    parse_gelement,
    retract,
    shift_word,
    w_inv,
    w_mul,
)
from cosetlab.spectral import (
    GenSet,
    delta_invariance_check,
    free_generator_set,
    kesten_profile,
    markov_operator,
    reiter_search,
)
from cosetlab.suite import default_suite_path, irreducibles, registry

from helpers import (
    MAT_ID,
    mat_mul,
    matrix_image,
    random_closure_member,
    random_gelement,
    random_word,
)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_exact_invariance_on_random_sets():
    rng = random.Random(2024)
    started = time.perf_counter()
    for _ in range(100):
        words = [random_word(rng, max_len=6, lo=-5, hi=5)
                 for _ in range(rng.randint(1, 4))]
        level, deviations = delta_invariance_check(words)
        levels = [minimal_level(w) for w in words if w.letters]
        assert level == (max(levels) if levels else 0)
        for w, d in deviations.items():
            assert d == 0.0, (w, level)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"invariance checks took {elapsed:.3f}s"


# ---------------------------------------------------------------- criterion 2


@pytest.fixture(scope="module")
def profile12():
    started = time.perf_counter()
    profile = kesten_profile(
        Coset(0, IDENTITY), free_generator_set(2), tuple(range(1, 13))
    )
    elapsed = time.perf_counter() - started
    return profile, elapsed


def test_criterion_2a_estimates_monotone(profile12):
    profile, _ = profile12
    assert profile.radii == tuple(range(1, 13))
    for a, b in zip(profile.estimates, profile.estimates[1:]):
        assert b >= a


def test_criterion_2b_radius_10_estimate_window(profile12):
    # The radius-10 truncation of this walk has largest eigenvalue
    # 0.8404454698082207 (radial shell reduction; see the dense cross-check
    # below for the same computation at smaller radii).  A certified lower
    # bound on the truncated operator therefore cannot reach 0.85, so the
    # window asserted here is not attainable; the assertion is kept as
    # stated rather than silently widened.
    profile, _ = profile12
    estimate = dict(profile.rows())[10]
    assert 0.85 <= estimate <= 0.8661, (
        f"radius-10 estimate {estimate!r} outside [0.85, 0.8661]"
    )


def test_criterion_2c_no_estimate_exceeds_087(profile12):
    profile, _ = profile12
    assert all(e <= 0.87 for e in profile.estimates)


def test_criterion_2_dense_cross_check(profile12):
    profile, _ = profile12
    by_radius = dict(profile.rows())
    limit = math.sqrt(3) / 2
    previous = 0.0
    for r in range(1, 7):
        ball = orbit_ball(Coset(0, IDENTITY), tuple(free_generator_set(2)), r)
        dense = markov_operator(ball).matrix.toarray()
        top = float(np.linalg.eigvalsh(dense)[-1])
        assert previous < top < limit
        assert by_radius[r] <= top + 1e-9
        assert by_radius[r] >= top - 1e-6
        previous = top
    # the radius-6 value is within 4e-2 of the limit and climbing toward it
    assert limit - previous < 0.06


def test_criterion_2_runtime(profile12):
    _, elapsed = profile12
    assert elapsed < 60.0, f"radius-12 profile took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_reiter_certificate(capsys):
    code = cli_main(
        ["reiter", "t, x0, x-3", "--epsilon", "0.1", "--no-meta"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["window_size"] <= 400
    assert report["max_deviation"] <= 0.1

    gens = GenSet.symmetrized(
        [parse_gelement("t"), parse_gelement("x0"), parse_gelement("x-3")]
    )
    cert = reiter_search(gens, 0.1)
    assert cert.window_size == report["window_size"]
    assert cert.recompute_deviations() == cert.deviations
    assert max(cert.deviations.values()) == report["max_deviation"]


def test_criterion_3_shift_only_deviation_formula():
    gens = GenSet.symmetrized([parse_gelement("t")])
    for eps in (0.2, 0.1, 0.05):
        cert = reiter_search(gens, eps)
        expected = math.sqrt(2.0 / cert.window_size)
        assert abs(cert.max_deviation - expected) < 1e-12
        assert cert.max_deviation <= eps


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_level_block_structure():
    gens = tuple(free_generator_set(2))
    for radius in (1, 3, 5):
        parts = h_orbit_partition(range(6), gens, radius)
        for n in range(2, 6):
            assert len(parts[n]) == 1
            assert parts[n].node(0) == Coset(n, IDENTITY)
    big = h_orbit_partition([0], gens, 8)[0]
    for r in range(9):
        assert big.prefix_size(r) == 1 + 2 * (3**r - 1)
    # every node stays at its level (also enforced internally)
    parts = h_orbit_partition(range(6), gens, 4)
    for n, ball in parts.items():
        for i in range(len(ball)):
            assert ball.node(i).level == n


# ---------------------------------------------------------------- criterion 5


SUITE_PAIRS = (
    ("s3", "c3_in_s3"),
    ("s4", "s3_in_s4"),
    ("sl2z3", "borel_sl2z3"),
    ("gl32", "stab_gl32"),
)


def test_criterion_5_frobenius_reciprocity():
    reg = registry()
    started = time.perf_counter()
    pairs_checked = 0
    for gname, hname in SUITE_PAIRS:
        G, H = reg[gname], reg[hname]
        for chi in irreducibles(hname):
            for rho in irreducibles(gname):
                up, down = frobenius_check(G, H, chi, rho)
                assert isinstance(up, int) and isinstance(down, int)
                assert up == down, (gname, hname, chi.name, rho.name)
                pairs_checked += 1
    elapsed = time.perf_counter() - started
    assert pairs_checked == 3 * 3 + 3 * 5 + 6 * 7 + 5 * 6
    assert elapsed < 10.0, f"reciprocity grid took {elapsed:.2f}s"


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_induction_in_stages():
    from cosetlab.characters import stages_check

    reg = registry()
    triples = []
    for line in default_suite_path().read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entry = json.loads(line)
        if entry["kind"] != "stages":
            continue
        chi_spec = entry.get("character", "trivial")
        triples.append((entry["group"], entry["mid"], entry["subgroup"], chi_spec))
    assert len(triples) == 7
    for gname, hname, fname, chi_spec in triples:
        G, H, F = reg[gname], reg[hname], reg[fname]
        if chi_spec == "trivial":
            chi = Character.trivial(F)
        else:
            chi = irreducibles(fname)[chi_spec]
        assert stages_check(G, H, F, chi), (gname, hname, fname)

    # with the trivial bottom subgroup both routes give the regular
    # character exactly
    for gname, hname, fname, _ in triples:
        if len(reg[fname]) != 1:
            continue
        G, H = reg[gname], reg[hname]
        direct = induce_character(Character.trivial(reg[fname]), G)
        f_in_h = H.subgroup([])
        two_step = induce_character(
            induce_character(Character.trivial(f_in_h), H), G
        )
        regular = Character.regular(G)
        assert direct.values == regular.values
        assert two_step.values == regular.values


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_vanishing_invariant_vectors():
    reg = registry()
    nontrivial_seen = 0
    for gname, hname in SUITE_PAIRS:
        G = reg[gname]
        for chi in irreducibles(hname):
            if invariant_dimension(chi) != 0:
                continue
            nontrivial_seen += 1
            assert invariant_dimension(induce_character(chi, G)) == 0, (
                gname, hname, chi.name,
            )
    assert nontrivial_seen == 2 + 2 + 5 + 4


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_congruence_orders_and_witnesses():
    for n, m, expected in ((2, 2, 6), (2, 3, 24), (2, 5, 120), (3, 2, 168)):
        assert len(congruence_group(n, m)) == expected
        assert special_linear_order(n, m) == expected

    rng = random.Random(4096)
    e12 = ((1, 1), (0, 1))
    e21 = ((1, 0), (1, 1))
    e12i = ((1, -1), (0, 1))
    e21i = ((1, 0), (-1, 1))
    checked = 0
    while checked < 50:
        mat = MAT_ID
        for _ in range(rng.randint(1, 8)):
            mat = mat_mul(mat, rng.choice((e12, e21, e12i, e21i)))
        if mat == MAT_ID:
            continue
        w = separation_witness(mat)
        for q in range(2, w):
            assert all((mat[r][c] - MAT_ID[r][c]) % q == 0
                       for r in range(2) for c in range(2))
        assert any((mat[r][c] - MAT_ID[r][c]) % w != 0
                   for r in range(2) for c in range(2))
        checked += 1


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_freegroup_property_suite():
    rng = random.Random(9001)
    trials = 10_000
    for _ in range(trials):
        a = random_gelement(rng)
        b = random_gelement(rng)
        c = random_gelement(rng)
        # group axioms in the semidirect product
        assert g_mul(g_mul(a, b), c) == g_mul(a, g_mul(b, c))
        assert g_mul(a, g_inv(a)) == G_IDENTITY
        assert g_mul(G_IDENTITY, a) == a

        u = random_word(rng, 4)
        v = random_word(rng, 4)
        n = rng.randint(-3, 3)
        k = rng.randint(-3, 3)
        # shift automorphism laws
        assert shift_word(n, w_mul(u, v)) == w_mul(shift_word(n, u),
                                                   shift_word(n, v))
        assert shift_word(n, shift_word(k, u)) == shift_word(n + k, u)
        # retraction is a homomorphism
        assert retract(w_mul(u, v), n) == w_mul(retract(u, n), retract(v, n))
        # membership agrees with the matrix model on small words
        w = random_word(rng, 6)
        assert gamma_member(w, n) == (matrix_image(w, n) == MAT_ID)
        # closures are monotone, normal, and shift-equivariant
        m = random_closure_member(rng, n, factors=1)
        assert gamma_member(m, n)
        assert gamma_member(m, n + 1)
        assert gamma_member(w_mul(v, w_mul(m, w_inv(v))), n)
        assert gamma_member(shift_word(k, m), n + k)


def test_criterion_9_coset_property_suite():
    rng = random.Random(9002)
    trials = 10_000
    for _ in range(trials):
        g = random_gelement(rng)
        h = random_gelement(rng)
        a = random_gelement(rng)
        c = normal_form(a)
        # action laws
        assert act(G_IDENTITY, c) == c
        assert act(g, act(h, c)) == act(g_mul(g, h), c)
        assert act(g, c) == normal_form(g_mul(g, a))
        # the canonical form is constant on cosets of the stabilizer
        stab = GElement(0, random_closure_member(rng, 0, factors=1))
        assert normal_form(g_mul(a, stab)) == c
        # and canonical: re-normalizing a canonical representative is a no-op
        rep = GElement(c.level, c.tail)
        assert normal_form(rep) == c
