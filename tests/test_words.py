"""Reduced words, the shift automorphism, retraction, and parsing."""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosetlab.cosets import normal_form
from cosetlab.errors import ResourceLimitError
from cosetlab.freegroup import (
    G_IDENTITY,
    GElement,
    IDENTITY,
    MAX_WORD_LETTERS,
    Word,
    format_gelement,
    format_word,
    g_inv,
    g_mul,
    gamma_member,
    minimal_level,
    parse_gelement,
    parse_word,
    reduce,
    retract,
    shift_word,
    w_inv,
    w_mul,
)

from helpers import MAT_ID, matrix_image, random_closure_member, random_word, traced_peak


def test_reduce_cancels_adjacent_inverses():
    assert reduce([(1, 1), (1, -1)]) == IDENTITY
    assert reduce([(1, 1), (2, 1), (2, -1), (1, -1)]) == IDENTITY
    assert reduce([(1, 1), (2, 1), (2, -1), (3, 1)]) == Word(
        ((1, 1), (3, 1))
    )


def test_reduce_cascades():
    # outer pair only cancels after the inner pair does
    raw = [(5, 1), (2, 1), (2, -1), (5, -1), (7, 1)]
    assert reduce(raw) == Word(((7, 1),))


def test_word_constructor_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(((1, 1), (1, -1)))
    with pytest.raises(ValueError):
        Word(((1, 2),))


def test_w_mul_and_inverse():
    u = parse_word("x1 x2")
    v = parse_word("x2^-1 x3")
    assert w_mul(u, v) == parse_word("x1 x3")
    assert w_mul(u, w_inv(u)) == IDENTITY
    assert w_inv(parse_word("x1 x2")) == parse_word("x2^-1 x1^-1")


def test_shift_word_examples():
    assert shift_word(2, parse_word("x0 x3^-1")) == parse_word("x2 x5^-1")
    assert shift_word(0, parse_word("x1")) == parse_word("x1")
    assert shift_word(-1, IDENTITY) == IDENTITY


def test_shift_is_an_automorphism():
    rng = random.Random(23)
    for _ in range(500):
        u = random_word(rng)
        v = random_word(rng)
        n = rng.randint(-4, 4)
        m = rng.randint(-4, 4)
        assert shift_word(n, w_mul(u, v)) == w_mul(shift_word(n, u), shift_word(n, v))
        assert shift_word(n, shift_word(m, u)) == shift_word(n + m, u)
        assert shift_word(n, w_inv(u)) == w_inv(shift_word(n, u))
    assert shift_word(0, u) == u


def test_retract_deletes_low_indices():
    assert retract(parse_word("x5 x3 x5^-1"), 3) == IDENTITY
    assert retract(parse_word("x5 x3 x5^-1"), 2) == parse_word("x5 x3 x5^-1")
    assert retract(parse_word("x1 x0 x2"), 0) == parse_word("x1 x2")
    assert retract(IDENTITY, 7) == IDENTITY


def test_retract_is_a_homomorphism():
    rng = random.Random(29)
    for _ in range(500):
        u = random_word(rng)
        v = random_word(rng)
        n = rng.randint(-4, 4)
        assert retract(w_mul(u, v), n) == w_mul(retract(u, n), retract(v, n))
        assert retract(w_inv(u), n) == w_inv(retract(u, n))
        # idempotent: a retracted word has no low letters left
        assert retract(retract(u, n), n) == retract(u, n)


def test_gamma_member_examples():
    assert gamma_member(parse_word("x0"), 0)
    assert not gamma_member(parse_word("x1"), 0)
    assert gamma_member(parse_word("x5 x3 x5^-1"), 3)
    assert not gamma_member(parse_word("x5 x3 x5^-1"), 2)
    assert gamma_member(IDENTITY, -10)


def test_gamma_membership_matches_matrix_model():
    rng = random.Random(31)
    for _ in range(1000):
        w = random_word(rng)
        n = rng.randint(-3, 3)
        assert gamma_member(w, n) == (matrix_image(w, n) == MAT_ID)


def test_closure_members_are_members():
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(-2, 2)
        w = random_closure_member(rng, n)
        assert gamma_member(w, n)


def test_gamma_monotone_normal_equivariant():
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randint(-3, 3)
        w = random_closure_member(rng, n)
        v = random_word(rng)
        k = rng.randint(-3, 3)
        # closures grow with the level
        assert gamma_member(w, n + 1)
        # normality: conjugates stay inside
        assert gamma_member(w_mul(v, w_mul(w, w_inv(v))), n)
        # shifting the word shifts the level
        assert gamma_member(shift_word(k, w), n + k)


def test_minimal_level():
    assert minimal_level(parse_word("x5 x3 x5^-1")) == 3
    assert minimal_level(parse_word("x0")) == 0
    assert minimal_level(parse_word("x-7 x2")) == 2
    assert minimal_level(parse_word("x-7")) == -7
    with pytest.raises(ValueError):
        minimal_level(IDENTITY)


def test_minimal_level_is_the_membership_threshold():
    rng = random.Random(43)
    for _ in range(300):
        w = random_word(rng)
        if not w.letters:
            continue
        n = minimal_level(w)
        assert gamma_member(w, n)
        assert not gamma_member(w, n - 1)


def test_minimal_level_wide_span():
    started = time.perf_counter()
    assert minimal_level(parse_word("x-1000000000 x1000000000")) == 1000000000
    assert time.perf_counter() - started < 0.1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.sampled_from((1, -1))),
                min_size=1, max_size=10))
def test_minimal_level_matches_matrix_oracle(letters):
    w = reduce(letters)
    if not w.letters:
        return
    indices = [i for (i, _) in w.letters]
    scan = range(min(indices) - 1, max(indices) + 1)
    expected = next(n for n in scan if matrix_image(w, n) == MAT_ID)
    assert minimal_level(w) == expected


def test_group_axioms_on_semidirect_product():
    rng = random.Random(47)
    for _ in range(500):
        a = GElement(rng.randint(-3, 3), random_word(rng, 4))
        b = GElement(rng.randint(-3, 3), random_word(rng, 4))
        c = GElement(rng.randint(-3, 3), random_word(rng, 4))
        assert g_mul(g_mul(a, b), c) == g_mul(a, g_mul(b, c))
        assert g_mul(a, G_IDENTITY) == a
        assert g_mul(G_IDENTITY, a) == a
        assert g_mul(a, g_inv(a)) == G_IDENTITY
        assert g_mul(g_inv(a), a) == G_IDENTITY


def test_g_mul_twists_by_the_shift():
    a = GElement(1, parse_word("x0"))
    b = GElement(2, parse_word("x0"))
    assert g_mul(a, b) == GElement(3, parse_word("x0 x1"))
    t = GElement(1, IDENTITY)
    x0 = GElement(0, parse_word("x0"))
    # t x0 t^-1 = x1
    assert g_mul(t, g_mul(x0, g_inv(t))) == GElement(0, parse_word("x1"))


def test_parse_word_round_trip():
    rng = random.Random(53)
    for _ in range(300):
        w = random_word(rng)
        assert parse_word(format_word(w)) == w


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-40, 40)), min_size=1, max_size=6))
def test_format_word_writes_runs_no_longer_than_the_literal(tokens):
    literal = " ".join(f"x{i}^{k}" for i, k in tokens)
    w = parse_word(literal)
    assert parse_word(format_word(w)) == w
    assert len(format_word(w)) <= len(literal)


def test_format_word_forms():
    assert format_word(parse_word("x1 x1 x2^-1 x2^-1 x2^-1 x1^-1 x3")) == "x1^2 x2^-3 x1^-1 x3"
    assert format_word(parse_word("x5 x3 x5^-1")) == "x5 x3 x5^-1"


def test_parse_word_forms():
    assert parse_word("e") == IDENTITY
    assert parse_word("x3") == Word(((3, 1),))
    assert parse_word("x-2^-1") == Word(((-2, -1),))
    assert parse_word("x1^3") == Word(((1, 1),) * 3)
    assert parse_word("x1^-2 x1") == Word(((1, -1),))
    assert parse_word("  x1   x2 ") == parse_word("x1 x2")


def test_parse_word_bounds_literal_size():
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError) as exc:
        parse_word("x1^1000000000")
    assert time.perf_counter() - started < 0.1
    message = str(exc.value)
    assert f"MAX_WORD_LETTERS = {MAX_WORD_LETTERS}" in message
    assert "1000000000 letters" in message
    # the bound is on the sum over tokens, not per token
    half = MAX_WORD_LETTERS // 2 + 1
    with pytest.raises(ResourceLimitError):
        parse_word(f"x1^{half} x2^-{half}")
    assert parse_word("x1^3") == Word(((1, 1),) * 3)


def test_parse_word_reduces_runs_without_expanding_them():
    word, peak, _ = traced_peak(lambda: parse_word(f"x1^{MAX_WORD_LETTERS}"))
    assert word.letters == ((1, 1),) * MAX_WORD_LETTERS
    # a pointer per letter in the reduced prefix, then one in the word's
    # tuple: 16 MiB; a letter list built first took 80 MiB
    assert peak < 32 << 20
    assert parse_word("x1^5 x1^-3 x2^2 x2^-2 x1^-2") == IDENTITY


def test_parse_word_errors_carry_position():
    with pytest.raises(ValueError) as exc:
        parse_word("x1 y2")
    assert "y2" in str(exc.value)
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("x1^0 x2^")


def test_parse_gelement_forms():
    assert parse_gelement("t") == GElement(1, IDENTITY)
    assert parse_gelement("t^-3") == GElement(-3, IDENTITY)
    assert parse_gelement("(2; x1 x3)") == GElement(2, parse_word("x1 x3"))
    assert parse_gelement("(0; e)") == G_IDENTITY
    assert parse_gelement("x0 x1^-1") == GElement(0, parse_word("x0 x1^-1"))


def test_parse_gelement_round_trip():
    rng = random.Random(59)
    for _ in range(300):
        a = GElement(rng.randint(-4, 4), random_word(rng, 4))
        assert parse_gelement(format_gelement(a)) == a


def test_words_hash_consistently():
    u = parse_word("x1 x2")
    v = w_mul(parse_word("x1"), parse_word("x2"))
    assert u == v and hash(u) == hash(v)
    assert len({u, v}) == 1
    a = GElement(2, u)
    b = GElement(2, v)
    assert a == b and hash(a) == hash(b)


raw_letters = st.lists(st.tuples(st.integers(-6, 6), st.sampled_from((1, -1))),
                       max_size=10)
words = raw_letters.map(reduce)
elements = st.builds(GElement, st.integers(-4, 4), words)


def _assert_validated(w):
    assert isinstance(w, Word)
    for letter in w.letters:
        assert type(letter) is tuple and len(letter) == 2
        assert type(letter[0]) is int and type(letter[1]) is int
    assert Word(w.letters) == w


@settings(max_examples=300, deadline=None)
@given(raw_letters, words, words, st.integers(-6, 6), elements, elements)
def test_operations_return_validated_words(raw, u, v, n, a, b):
    # these results skip the constructor's checks, so they must pass them
    for w in (
        reduce(raw), w_mul(u, v), w_inv(u), shift_word(n, u),
        shift_word(np.int64(n), u), retract(u, n), g_mul(a, b).word,
        g_inv(a).word, normal_form(a).tail,
    ):
        _assert_validated(w)
