"""Finite group generation, conjugacy classes, subgroups, and the special
linear machinery."""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cosetlab import finitegroup
from cosetlab.errors import ResourceLimitError
from cosetlab.finitegroup import (
    FiniteGroup,
    Subgroup,
    congruence_group,
    generate_group,
    separation_witness,
    special_linear_order,
)

from cosetlab.suite import registry

from group_oracle import (
    group_mul,
    perm_mul,
    reference_classes,
    reference_closure,
    reference_cosets,
)
from helpers import mat_mul, MAT_ID, traced_peak


def test_generate_symmetric_group():
    s3 = generate_group([(1, 0, 2), (1, 2, 0)])
    assert len(s3) == 6
    s4 = generate_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert len(s4) == 24
    assert s4.kind == "perm"


def test_generate_from_cycle_strings():
    s3 = generate_group(["(1 2)", "(1 2 3)"])
    assert len(s3) == 6
    c6 = generate_group(["(1 2 3)(4 5)"])
    assert len(c6) == 6


def test_cycle_strings_and_tuples_mix_in_groups_and_subgroups():
    s4 = generate_group(["(1 2)", (1, 2, 3, 0)])
    assert (len(s4), s4.degree) == (24, 4)
    assert s4.generators == ((1, 0, 2, 3), (1, 2, 3, 0))
    # (1 2 3) and (2 3 4) generate A4; both forms give the same values
    a4 = s4.subgroup(["(1 2 3)", (0, 2, 3, 1)])
    assert a4.generators == ((1, 2, 0, 3), (0, 2, 3, 1))
    assert (len(a4), a4.index_in_parent) == (12, 2)
    assert a4.elements == generate_group(["(1 2 3)", (0, 2, 3, 1)]).elements
    short = s4.subgroup([(1, 0), "()"])  # padded with fixed points
    assert short.generators == ((1, 0, 2, 3), (0, 1, 2, 3)) and len(short) == 2
    sl23 = congruence_group(2, 3)
    assert sl23.subgroup([((4, -2), (3, 1))]).generators == (((1, 1), (0, 1)),)


def test_generate_group_validates_permutations():
    with pytest.raises(ValueError):
        generate_group([(0, 0, 1)])
    with pytest.raises(ValueError):
        generate_group(["(1 2 3)", (0, 0)])
    with pytest.raises(ValueError, match="bad cycle notation"):
        generate_group(["(1 2) x"])
    with pytest.raises(ValueError, match="cycle points are 1-based"):
        generate_group(["(0 1)"])
    with pytest.raises(ValueError, match="repeated point in cycle"):
        generate_group(["(1 1)"])
    for cap in (0, -1):
        with pytest.raises(ValueError, match="element cap must be positive"):
            generate_group(["(1 2)"], cap=cap)
    # no generators: the trivial group
    assert len(generate_group([])) == 1


def test_generate_matrix_group():
    sl23 = generate_group([((1, 1), (0, 1)), ((1, 0), (1, 1))], modulus=3)
    assert len(sl23) == 24
    assert sl23.kind == "matrix"
    assert sl23.modulus == 3


def test_generate_matrix_group_rejects_singular():
    with pytest.raises(ValueError):
        generate_group([((1, 1), (1, 1))], modulus=3)
    with pytest.raises(ValueError):
        generate_group([((1, 1, 0), (0, 1, 1))], modulus=2)
    with pytest.raises(ValueError, match="not invertible mod 3"):  # a zero pivot column
        generate_group([((0, 1), (0, 1))], modulus=3)


def test_group_operations_are_consistent():
    rng = random.Random(89)
    g = congruence_group(2, 5)
    n = len(g)
    e = g.index_of(g.identity_value) if hasattr(g, "identity_value") else 0
    assert e == 0
    for _ in range(300):
        a = rng.randrange(n)
        b = rng.randrange(n)
        c = rng.randrange(n)
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
        assert g.mul(a, g.inv(a)) == 0
        assert g.mul(0, a) == a
        assert g.mul(a, 0) == a


_S2 = generate_group([(1, 0)])
_SL23 = congruence_group(2, 3)


@pytest.mark.parametrize("group, value, member", [
    (_S2, 1, False),
    (_S2, (1.5, 0), False),
    (_S2, (1, 0, 2), False),
    (_S2, (1.0, 0), True),
    (registry()["s3"], (1, 0), False),
    (registry()["s3"], (1, 0, 2, 3), False),
    (registry()["s3"], (-1, 0, 2), False),
    (registry()["s3"], (300, 0, 1), False),
    (registry()["s3"], "(1 2)", False),
    (registry()["s3"], None, False),
    (registry()["s3"], ((1, 0, 2),), False),
    (registry()["s3"], (1, 0, 2), True),
    (_SL23, ((4, 1), (0, 1)), False),
    (_SL23, ((1, 1),), False),
    (_SL23, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), False),
    (_SL23, ((1, 1), (0, 1.0)), True),
])
def test_value_lookup_takes_only_exact_elements_of_the_row_shape(group, value, member):
    # the row shape and each entry must match: no padding, truncation,
    # reduction or wrap-around, and 1.0 equals 1 as a tuple key would
    result = group.contains_value(value)
    assert type(result) is bool and result == member
    if member:
        assert group.element(group.index_of(value)) == value
    else:
        with pytest.raises(ValueError, match="is not an element of this group"):
            group.index_of(value)


def test_a_list_value_is_looked_up_as_its_tuple():
    s3 = registry()["s3"]
    assert s3.contains_value([1, 0, 2])
    assert s3.index_of([1, 0, 2]) == s3.index_of((1, 0, 2))


def test_a_subgroup_builds_no_tuple_view_of_its_parent():
    g = congruence_group(2, 31)
    sub, peak, _ = traced_peak(lambda: g.subgroup([((1, 1), (0, 1))]))
    assert len(sub) == 31 and "elements" not in vars(g)
    assert peak < 1 << 20


def test_conjugacy_classes_partition():
    g = congruence_group(2, 3)
    classes = g.classes
    assert sum(c.size for c in classes) == len(g)
    seen = set()
    for c in classes:
        assert len(c.members) == c.size
        seen.update(c.members)
    assert seen == set(range(len(g)))
    assert classes[0].members == (0,)
    sizes = tuple(c.size for c in classes)
    assert sizes == (1, 4, 4, 6, 4, 4, 1)


def test_class_of_is_conjugation_invariant():
    rng = random.Random(97)
    g = generate_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    for _ in range(300):
        a = rng.randrange(len(g))
        x = rng.randrange(len(g))
        conj = g.mul(g.mul(x, a), g.inv(x))
        assert g.class_of(conj) == g.class_of(a)


def test_subgroup_basics():
    s4 = generate_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    s3 = s4.subgroup([(1, 0, 2, 3), (1, 2, 0, 3)])
    assert isinstance(s3, Subgroup)
    assert len(s3) == 6
    assert s3.parent is s4
    assert s3.index_in_parent == 4
    # transversal covers the parent without overlap
    cosets = {}
    for i in range(len(s4)):
        cosets.setdefault(s3.coset_id(i), set()).add(i)
    assert len(cosets) == 4
    assert all(len(v) == 6 for v in cosets.values())


def test_subgroup_element_mapping():
    g = congruence_group(2, 3)
    borel = g.subgroup([((1, 1), (0, 1)), ((2, 0), (0, 2))])
    assert len(borel) == 6
    for i in range(len(borel)):
        parent_idx = borel.to_parent(i)
        assert borel.parent_index.index(parent_idx) == i
        assert g.element(parent_idx) == borel.element(i)
    with pytest.raises(ValueError):
        g.subgroup([((1, 1), (1, 1))])


def test_congruence_group_orders():
    for n, m, expected in ((2, 2, 6), (2, 3, 24), (2, 5, 120), (3, 2, 168)):
        assert len(congruence_group(n, m)) == expected
        assert special_linear_order(n, m) == expected


def test_special_linear_order_prime_powers():
    assert special_linear_order(2, 4) == 48
    assert len(congruence_group(2, 4)) == 48
    assert special_linear_order(2, 9) == 648
    assert len(congruence_group(2, 9)) == 648
    # multiplicative over coprime factors
    assert special_linear_order(2, 6) == 6 * 24
    assert len(congruence_group(2, 6)) == 144
    # a squared prime with a leftover prime, and two distinct primes
    assert special_linear_order(2, 12) == 48 * 24
    assert len(congruence_group(2, 12)) == 1152
    assert special_linear_order(2, 10) == 6 * 120
    assert len(congruence_group(2, 10)) == 720


def test_congruence_group_validates_input():
    with pytest.raises(ValueError):
        congruence_group(1, 5)
    with pytest.raises(ValueError):
        congruence_group(2, 1)
    with pytest.raises(ValueError, match="need n >= 1 and m >= 1"):
        special_linear_order(0, 5)


def test_generation_cap(monkeypatch):
    with pytest.raises(ResourceLimitError):
        congruence_group(2, 5, cap=50)
    with pytest.raises(ResourceLimitError, match="element order exceeds cap 3"):
        generate_group(["(1 2 3 4 5)"], cap=3)
    monkeypatch.setattr(finitegroup, "CLOSURE_BYTES", 2000)
    with pytest.raises(ResourceLimitError, match="exceeds CLOSURE_BYTES = 2000"):
        congruence_group(2, 5)


def test_separation_witness_examples():
    assert separation_witness(((1, 1), (0, 1))) == 2
    assert separation_witness(((1, 2), (0, 1))) == 3
    assert separation_witness(((1, 6), (0, 1))) == 4
    assert separation_witness(((1, 12), (0, 1))) == 5
    assert separation_witness(((0, -1), (1, 0))) == 2


def test_separation_witness_validates():
    with pytest.raises(ValueError):
        separation_witness(((1, 0), (0, 1)))  # identity has no witness
    with pytest.raises(ValueError):
        separation_witness(((2, 0), (0, 1)))  # determinant 2
    with pytest.raises(ValueError, match="matrix must be square"):
        separation_witness(((1, 0, 0), (0, 1, 0)))


def test_separation_witness_definition():
    # the witness is the least modulus where the matrix is not the identity
    rng = random.Random(101)
    e12 = ((1, 1), (0, 1))
    e21 = ((1, 0), (1, 1))
    e12i = ((1, -1), (0, 1))
    e21i = ((1, 0), (-1, 1))
    for _ in range(50):
        m = MAT_ID
        for _ in range(rng.randint(1, 6)):
            m = mat_mul(m, rng.choice((e12, e21, e12i, e21i)))
        if m == MAT_ID:
            continue
        w = separation_witness(m)
        for q in range(2, w):
            assert all((m[r][c] - MAT_ID[r][c]) % q == 0
                       for r in range(2) for c in range(2))
        assert any((m[r][c] - MAT_ID[r][c]) % w != 0
                   for r in range(2) for c in range(2))


def _assert_matches_reference(g, sub=None):
    mul = group_mul(g)
    elements, inv = reference_closure(g.generators, g.identity, mul)
    assert g.elements == elements
    assert g._inv == inv
    classes, class_of = reference_classes(elements, inv, mul)
    assert [(c.rep, c.members) for c in g.classes] == classes
    assert [g.class_of(i) for i in range(len(g))] == class_of
    if sub is not None:
        _assert_matches_reference(sub)
        transversal, coset_id = reference_cosets(elements, sub.elements, mul)
        assert sub.transversal == transversal
        assert [sub.coset_id(i) for i in range(len(g))] == coset_id
        assert [g.element(pi) for pi in sub.parent_index] == sub.elements


_PERM_SETS = st.integers(1, 7).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.permutations(range(d)).map(tuple), max_size=3)))


@given(case=_PERM_SETS,
       slice_products=st.sampled_from([1, 5, finitegroup.SLICE_PRODUCTS]))
@example(case=(7, [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]), slice_products=5)
@settings(max_examples=25, deadline=None)
def test_closure_matches_reference_bfs_on_permutations(case, slice_products):
    degree, gens = case
    with mock.patch.object(finitegroup, "SLICE_PRODUCTS", slice_products):
        g = generate_group(gens, degree=degree)
        sub = g.subgroup(gens[:1])
        _assert_matches_reference(g, sub)


@pytest.mark.parametrize("slice_products", [3, finitegroup.SLICE_PRODUCTS])
def test_closure_matches_reference_bfs_on_matrix_groups(slice_products):
    # SL(2, Z/5), SL(3, Z/2), and the suite's matrix groups rebuilt from
    # their generators under this slice size
    reg = registry()
    cases = [
        (2, 5, [((1, 1), (0, 1)), ((2, 0), (0, 3))]),
        (3, 2, [((0, 1, 0), (0, 0, 1), (1, 0, 0))]),
        (2, 3, reg["borel_sl2z3"].generators),
        (3, 2, reg["stab_gl32"].generators),
    ]
    with mock.patch.object(finitegroup, "SLICE_PRODUCTS", slice_products):
        for n, m, sub_gens in cases:
            g = congruence_group(n, m)
            _assert_matches_reference(g, g.subgroup(sub_gens))


def test_closure_with_entries_beyond_64_bits():
    # signed cyclic rotations of the cube mod 10^30: products of entries
    # near 10^30 overflow every fixed-width integer type
    m = 10**30
    g = generate_group(
        [((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((0, -1, 0), (1, 0, 0), (0, 0, 1))],
        modulus=m,
    )
    assert len(g) == 24
    assert all(x in (0, 1, m - 1) for v in g.elements for row in v for x in row)
    _assert_matches_reference(g, g.subgroup([((0, m - 1, 0), (1, 0, 0), (0, 0, 1))]))


def test_cap_is_checked_per_layer_before_commit():
    gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
    elements, _ = reference_closure(gens, (0, 1, 2, 3), perm_mul)
    # layer sizes of the walk, read off from the reference order
    depth = {elements[0]: 0}
    for x in elements:
        for g in gens:
            depth.setdefault(perm_mul(x, g), depth[x] + 1)
    committed = [sum(1 for d in depth.values() if d <= k)
                 for k in range(max(depth.values()) + 1)]
    assert committed[-1] == 24
    for cap in range(3, 24):  # below 3 the 4-cycle cannot be inverted
        with pytest.raises(ResourceLimitError) as exc:
            generate_group(gens, cap=cap)
        found = max(c for c in committed if c <= cap)
        assert f"exceeds cap {cap}: {found} elements found" in str(exc.value)
    assert len(generate_group(gens, cap=24)) == 24


def test_matrix_group_needs_positive_size():
    with pytest.raises(ValueError):
        generate_group([], modulus=3, degree=0)
    with pytest.raises(ValueError, match="modulus must be >= 2, got 1"):
        generate_group([((1, 1), (0, 1))], modulus=1)
    with pytest.raises(ValueError, match="with no generators needs a degree"):
        generate_group([], modulus=3)
