"""Characters: inner products, restriction, induction, reciprocity, stages,
and the bundled tables."""

import math

import pytest

from cosetlab.characters import (
    Character,
    coset_permutation_character,
    frobenius_check,
    induce_character,
    inner_product,
    invariant_dimension,
    parse_character_table,
    restrict_character,
    stages_check,
    transfer_character,
)
from cosetlab.finitegroup import Subgroup, generate_group
from cosetlab.suite import TABLE_NAMES, irreducibles, registry

from group_oracle import reference_induce


def test_tables_load_and_have_the_right_degrees():
    expected = {
        "s3": [1, 1, 2],
        "c3_in_s3": [1, 1, 1],
        "s4": [1, 1, 2, 3, 3],
        "s3_in_s4": [1, 1, 2],
        "sl2z3": [1, 1, 1, 2, 2, 2, 3],
        "borel_sl2z3": [1, 1, 1, 1, 1, 1],
        "gl32": [1, 3, 3, 6, 7, 8],
        "stab_gl32": [1, 1, 2, 3, 3],
    }
    reg = registry()
    for name, degrees in expected.items():
        chars = irreducibles(name)
        assert sorted(round(c.degree.real) for c in chars) == degrees
        assert sum(round(c.degree.real) ** 2 for c in chars) == len(reg[name])


def test_tables_are_orthonormal():
    for name in ("s3", "sl2z3", "gl32"):
        chars = irreducibles(name)
        for i, a in enumerate(chars):
            for j, b in enumerate(chars):
                ip = inner_product(a, b)
                target = 1.0 if i == j else 0.0
                assert abs(ip - target) < 1e-9


def test_regular_character_decomposition():
    for name in ("s3", "s4", "sl2z3"):
        g = registry()[name]
        reg_char = Character.regular(g)
        for chi in irreducibles(name):
            m = inner_product(reg_char, chi)
            assert abs(m - chi.degree) < 1e-8


def test_trivial_character():
    g = registry()["s3"]
    triv = Character.trivial(g)
    assert triv.degree == 1
    assert invariant_dimension(triv) == 1
    assert inner_product(triv, triv) == pytest.approx(1.0, abs=1e-12)


def test_character_validates_length():
    g = registry()["s3"]
    with pytest.raises(ValueError):
        Character(g, (1.0,))


def test_restriction_values():
    g = registry()["s4"]
    h = registry()["s3_in_s4"]
    for rho in irreducibles("s4"):
        res = restrict_character(rho, h)
        assert res.degree == rho.degree
        # restriction decomposes into the subgroup's irreducibles with
        # nonnegative integer multiplicities summing to the degree
        total = 0
        for chi in irreducibles("s3_in_s4"):
            m = inner_product(res, chi)
            assert abs(m - round(m.real)) < 1e-9
            assert round(m.real) >= 0
            total += round(m.real) * round(chi.degree.real)
        assert total == round(rho.degree.real)
    with pytest.raises(ValueError, match="subgroup of the character's group"):
        restrict_character(Character.trivial(registry()["s3"]), h)


def test_induction_degree():
    g = registry()["s3"]
    h = registry()["c3_in_s3"]
    for chi in irreducibles("c3_in_s3"):
        ind = induce_character(chi, g)
        assert abs(ind.degree - chi.degree * h.index_in_parent) < 1e-9


def test_induced_trivial_is_the_coset_character():
    for gname, hname in (("s3", "c3_in_s3"), ("s4", "s3_in_s4"),
                         ("sl2z3", "borel_sl2z3"), ("gl32", "stab_gl32"),
                         ("gl32", "e_in_gl32"), ("s4", "c2_in_s4")):
        h = registry()[hname]
        ind = induce_character(Character.trivial(h), registry()[gname])
        perm = coset_permutation_character(h)
        for a, b in zip(ind.values, perm.values):
            assert abs(a - b) < 1e-9


def test_frobenius_check_returns_equal_integers():
    g = registry()["s3"]
    h = registry()["c3_in_s3"]
    for chi in irreducibles("c3_in_s3"):
        for rho in irreducibles("s3"):
            up, down = frobenius_check(g, h, chi, rho)
            assert isinstance(up, int) and isinstance(down, int)
            assert up == down
            assert up >= 0


def test_frobenius_check_requires_subgroup():
    g = registry()["s3"]
    other = generate_group([(1, 0, 2)])
    chi = Character.trivial(other)
    rho = Character.trivial(g)
    with pytest.raises((ValueError, TypeError)):
        frobenius_check(g, other, chi, rho)


def test_induction_from_trivial_subgroup_is_regular():
    g = registry()["s3"]
    e = registry()["e_in_s3"]
    ind = induce_character(Character.trivial(e), g)
    reg_char = Character.regular(g)
    assert ind.values == reg_char.values  # exact: integer-valued sums


def test_stages_check_triples():
    reg = registry()
    assert stages_check(reg["s4"], reg["s3_in_s4"], reg["c2_in_s4"],
                        Character.trivial(reg["c2_in_s4"]))
    assert stages_check(reg["sl2z3"], reg["borel_sl2z3"], reg["e_in_sl2z3"],
                        Character.trivial(reg["e_in_sl2z3"]))
    assert stages_check(reg["sl2z3"], reg["borel_sl2z3"], reg["borel_sl2z3"],
                        irreducibles("borel_sl2z3")[1])
    # F built inside H: stages_check embeds it in G from its generators
    s3_in_s4, stab_gl32 = reg["s3_in_s4"], reg["stab_gl32"]
    for g, h, f in ((reg["s4"], s3_in_s4, s3_in_s4.subgroup([(1, 0, 2, 3)])),
                    (reg["gl32"], stab_gl32, stab_gl32.subgroup(stab_gl32.generators[:1]))):
        assert len(f) > 1
        for chi in (Character.trivial(f), Character.regular(f)):
            assert stages_check(g, h, f, chi)


def test_stages_check_validates_nesting():
    reg = registry()
    with pytest.raises(ValueError):
        stages_check(reg["s4"], reg["c2_in_s4"], reg["s3_in_s4"],
                     Character.trivial(reg["s3_in_s4"]))
    with pytest.raises(ValueError, match="H must be a subgroup of G"):
        stages_check(reg["s3"], reg["s3_in_s4"], reg["c2_in_s4"],
                     Character.trivial(reg["c2_in_s4"]))
    with pytest.raises(ValueError, match="chi_F must live on F"):
        stages_check(reg["s4"], reg["s3_in_s4"], reg["c2_in_s4"],
                     Character.trivial(reg["s3_in_s4"]))


def test_invariant_dimension_of_induced_nontrivial():
    for gname, hname in (("s3", "c3_in_s3"), ("gl32", "stab_gl32")):
        g = registry()[gname]
        for chi in irreducibles(hname):
            if invariant_dimension(chi) != 0:
                continue
            assert invariant_dimension(induce_character(chi, g)) == 0


def test_transfer_character():
    reg = registry()
    h = reg["borel_sl2z3"]
    chi = irreducibles("borel_sl2z3")[0]
    again = transfer_character(chi, h)
    for a, b in zip(chi.values, again.values):
        assert abs(a - b) < 1e-12
    with pytest.raises(ValueError, match="different elements"):
        transfer_character(chi, reg["s3"])


def test_inner_product_requires_same_group():
    a = Character.trivial(registry()["s3"])
    b = Character.trivial(registry()["s4"])
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_parse_character_table_errors():
    g = registry()["s3"]
    with pytest.raises(ValueError) as exc:
        parse_character_table(g, "chi0 1.0,0.0 1.0,0.0\n", origin="bad")
    assert "bad:1" in str(exc.value)
    # wrong number of characters for the class count
    text = "chi0 1.0,0.0 1.0,0.0 1.0,0.0\n"
    with pytest.raises(ValueError):
        parse_character_table(g, text, origin="short")
    # orthonormality failure
    text = (
        "chi0 1.0,0.0 1.0,0.0 1.0,0.0\n"
        "chi1 1.0,0.0 1.0,0.0 1.0,0.0\n"
        "chi2 2.0,0.0 0.0,0.0 -1.0,0.0\n"
    )
    with pytest.raises(ValueError):
        parse_character_table(g, text, origin="dup")
    # non-integer degree
    text = (
        "chi0 1.0,0.0 1.0,0.0 1.0,0.0\n"
        "chi1 1.0,0.0 -1.0,0.0 1.0,0.0\n"
        "chi2 1.5,0.0 0.0,0.0 -1.0,0.0\n"
    )
    with pytest.raises(ValueError):
        parse_character_table(g, text, origin="frac")
    # a value that is not one re,im pair, and a number that does not parse
    with pytest.raises(ValueError, match=r"pair:1: bad value '1\.0' \(expected re,im\)"):
        parse_character_table(g, "chi0 1.0 1.0,0.0 1.0,0.0\n", origin="pair")
    with pytest.raises(ValueError, match="nan:1: bad number in '1.0,x'"):
        parse_character_table(g, "chi0 1.0,0.0 1.0,x 1.0,0.0\n", origin="nan")
    # an integer degree that is not positive
    text = (
        "chi0 -1.0,0.0 1.0,0.0 1.0,0.0\n"
        "chi1 1.0,0.0 -1.0,0.0 1.0,0.0\n"
        "chi2 2.0,0.0 0.0,0.0 -1.0,0.0\n"
    )
    with pytest.raises(ValueError, match="neg: degree of chi0 is -1, not positive"):
        parse_character_table(g, text, origin="neg")


def test_character_value_on():
    g = registry()["s3"]
    chi = irreducibles("s3")[-1]  # the 2-dimensional character
    assert chi.value_on(0) == chi.values[0]
    total = sum(chi.value_on(i) for i in range(len(g)))
    # sum over the group of a nontrivial irreducible vanishes
    assert abs(total) < 1e-9


def test_induce_character_matches_conjugation_sum():
    reg = registry()
    subgroups = [name for name, h in reg.items() if isinstance(h, Subgroup)]
    assert subgroups
    for name in subgroups:
        h = reg[name]
        chars = [Character.trivial(h)]
        if name in TABLE_NAMES:
            chars += irreducibles(name)
        for chi in chars:
            ind = induce_character(chi, h.parent)
            for a, b in zip(ind.values, reference_induce(chi, h.parent)):
                assert abs(a - b) <= 1e-9, (name, chi.name)


def test_induce_character_to_a_subgroup_matches_conjugation_sum():
    # the first step of induction in stages, whose target is a subgroup
    reg = registry()
    for mid_name, low_name in (("s3_in_s4", "c2_in_s4"), ("stab_gl32", "e_in_gl32")):
        mid = reg[mid_name]
        low = mid.subgroup(reg[low_name].elements)
        chi = Character.trivial(low)
        ind = induce_character(chi, mid)
        for a, b in zip(ind.values, reference_induce(chi, mid)):
            assert abs(a - b) <= 1e-9
