"""Character theory on finite groups, in floating point with a stated
error budget.

Characters are class functions stored as one complex value per conjugacy
class.  Induction, restriction, inner products, reciprocity checks, and
invariant-vector dimension counts are all multiplicity statements, fully
decided by characters.  Values are complex floats read from the tables,
so results carry rounding error, and every comparison allows the one
tolerance TOL = 1e-9: multiplicities are rounded to integers by `_as_int`,
which rejects any value more than TOL from an integer, induction in stages
compares characters classwise within TOL, and irreducible tables, supplied
as curated data files, are validated on load by orthonormality within TOL.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

from .finitegroup import FiniteGroup, Subgroup

TOL = 1e-9


def _as_int(z: complex, what: str) -> int:
    if abs(z.imag) > TOL or abs(z.real - round(z.real)) > TOL:
        raise ValueError(f"{what} = {z} is not an integer within {TOL}")
    return int(round(z.real))


class Character:
    """A class function on a finite group: one complex value per conjugacy
    class, in the group's deterministic class order."""

    __slots__ = ("group", "values", "name")

    def __init__(self, group: FiniteGroup, values, name: str = ""):
        values = tuple(complex(v) for v in values)
        if len(values) != len(group.classes):
            raise ValueError(
                f"expected {len(group.classes)} class values, got {len(values)}"
            )
        self.group = group
        self.values = values
        self.name = name

    @property
    def degree(self) -> complex:
        return self.values[0]

    @classmethod
    def trivial(cls, group: FiniteGroup) -> "Character":
        return cls(group, [1.0] * len(group.classes), name="1")

    @classmethod
    def regular(cls, group: FiniteGroup) -> "Character":
        values = [0.0] * len(group.classes)
        values[0] = float(len(group))
        return cls(group, values, name="reg")

    def value_on(self, element_index: int) -> complex:
        return self.values[self.group.class_of(element_index)]

    def __repr__(self) -> str:
        label = self.name or "chi"
        vals = ", ".join(f"{v:.3g}" for v in self.values)
        return f"Character({label}: {vals})"


def inner_product(chi: Character, psi: Character) -> complex:
    """(1/|G|) sum over g of chi(g) * conj(psi(g)), computed classwise."""
    if chi.group is not psi.group:
        raise ValueError("characters live on different groups")
    g = chi.group
    total = 0j
    for c, a, b in zip(g.classes, chi.values, psi.values):
        total += c.size * a * b.conjugate()
    return total / len(g)


def restrict_character(chi: Character, H: Subgroup) -> Character:
    """Values of chi read off on the classes of the subgroup H."""
    if not isinstance(H, Subgroup) or H.parent is not chi.group:
        raise ValueError("H must be a subgroup of the character's group")
    G = chi.group
    values = [chi.values[G.class_of(H.to_parent(c.rep))] for c in H.classes]
    return Character(H, values, name=f"res({chi.name})" if chi.name else "")


def induce_character(chi: Character, G: FiniteGroup) -> Character:
    """Induced character, by class sums:

        ind(chi)(g) = |G| / (|cl(g)| |H|) * sum of chi(y) over y in cl(g) and H,

    which is (1/|H|) sum over x in G with x^-1 g x in H of chi(x^-1 g x),
    since each y in cl(g) is x^-1 g x for exactly |G| / |cl(g)| elements x.
    One pass over H adds chi into the classes of G.  The degree multiplies
    by [G:H]."""
    H = chi.group
    if not isinstance(H, Subgroup) or H.parent is not G:
        raise ValueError("character must live on a subgroup of G")
    sums = [0j] * len(G.classes)
    for si, pi in enumerate(H.parent_index):
        sums[G.class_of(pi)] += chi.values[H.class_of(si)]
    index = H.index_in_parent
    values = [s * index / c.size for s, c in zip(sums, G.classes)]
    return Character(G, values, name=f"ind({chi.name})" if chi.name else "")


def invariant_dimension(chi: Character) -> int:
    """Dimension of the invariant subspace: the multiplicity of the trivial
    character, <chi, 1>.  Raises if the value is not an integer within TOL
    (which signals a non-character input)."""
    ip = inner_product(chi, Character.trivial(chi.group))
    return _as_int(ip, "invariant dimension")


def frobenius_check(G: FiniteGroup, H: Subgroup, chi_H: Character,
                    rho_G: Character) -> Tuple[int, int]:
    """Both sides of Frobenius reciprocity as exact integers:
    mult_up = <ind(chi_H), rho_G> and mult_down = <chi_H, res(rho_G)>.
    The two are equal for genuine characters."""
    up = _as_int(inner_product(induce_character(chi_H, G), rho_G), "mult_up")
    down = _as_int(inner_product(chi_H, restrict_character(rho_G, H)), "mult_down")
    return up, down


def coset_permutation_character(H: Subgroup) -> Character:
    """Character of the parent group acting on the left cosets of H:
    value at g = number of cosets xH fixed by g (a combinatorial count,
    independent of the induced-character formula)."""
    G = H.parent
    reps = list(H.transversal)
    values = []
    for c in G.classes:
        moved = G._find(G._op(G._rows[[c.rep]], G._rows[reps])).tolist()
        fixed = sum(H.coset_id(x) == H.coset_id(r) for x, r in zip(moved, reps))
        values.append(complex(fixed))
    return Character(G, values, name="perm")


def transfer_character(chi: Character, target: FiniteGroup) -> Character:
    """Re-express a character on another enumeration of the same group
    (same element values, possibly different element and class order)."""
    src = chi.group
    if frozenset(src.elements) != frozenset(target.elements):
        raise ValueError("target group has different elements")
    values = [
        chi.values[src.class_of(src.index_of(target.element(c.rep)))]
        for c in target.classes
    ]
    return Character(target, values, name=chi.name)


def stages_check(G: FiniteGroup, H: Subgroup, F: FiniteGroup,
                 chi_F: Character) -> bool:
    """Induction in stages for nested groups F <= H <= G: inducing chi_F
    from F to H and then to G agrees classwise (within TOL) with inducing
    directly from F to G.

    Also verifies that inducing the trivial character from F to H equals
    the permutation character of H on the cosets H/F, counted directly.
    """
    if not isinstance(H, Subgroup) or H.parent is not G:
        raise ValueError("H must be a subgroup of G")
    if chi_F.group is not F:
        raise ValueError("chi_F must live on F")
    f_in_h = F if isinstance(F, Subgroup) and F.parent is H \
        else H.subgroup(F.generators)
    f_in_g = F if isinstance(F, Subgroup) and F.parent is G \
        else G.subgroup(F.generators)
    chi_h = chi_F if chi_F.group is f_in_h else transfer_character(chi_F, f_in_h)
    chi_g = chi_F if chi_F.group is f_in_g else transfer_character(chi_F, f_in_g)

    two_step = induce_character(induce_character(chi_h, H), G)
    direct = induce_character(chi_g, G)
    stages_ok = all(
        abs(a - b) <= TOL for a, b in zip(two_step.values, direct.values)
    )

    ind_trivial = induce_character(Character.trivial(f_in_h), H)
    perm = coset_permutation_character(f_in_h)
    quasiregular_ok = all(
        abs(a - b) <= TOL for a, b in zip(ind_trivial.values, perm.values)
    )
    return stages_ok and quasiregular_ok


def parse_character_table(group: FiniteGroup, text: str,
                          origin: str = "<string>") -> Tuple[Character, ...]:
    """Parse and validate a character table.

    Format: one character per line, `name re,im re,im ...` with one complex
    value per conjugacy class in the group's class order; '#' starts a
    comment.  The table must be complete (one character per class), with
    positive integer degrees, and orthonormal under the class inner product.
    """
    chars: List[Character] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        name, vals = toks[0], []
        for t in toks[1:]:
            parts = t.split(",")
            if len(parts) != 2:
                raise ValueError(f"{origin}:{ln}: bad value {t!r} (expected re,im)")
            try:
                vals.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(f"{origin}:{ln}: bad number in {t!r}") from None
        if len(vals) != len(group.classes):
            raise ValueError(
                f"{origin}:{ln}: expected {len(group.classes)} values, got {len(vals)}"
            )
        chars.append(Character(group, vals, name=name))
    if len(chars) != len(group.classes):
        raise ValueError(
            f"{origin}: expected a full table of {len(group.classes)} characters, "
            f"got {len(chars)}"
        )
    for chi in chars:
        d = _as_int(chi.degree, f"{origin}: degree of {chi.name}")
        if d < 1:
            raise ValueError(f"{origin}: degree of {chi.name} is {d}, not positive")
    for i, a in enumerate(chars):
        for j in range(i, len(chars)):
            b = chars[j]
            ip = inner_product(a, b)
            target = 1.0 if i == j else 0.0
            if abs(ip - target) > TOL:
                raise ValueError(
                    f"{origin}: orthonormality fails for ({a.name}, {b.name}): "
                    f"inner product {ip}"
                )
    return tuple(chars)


def load_character_table(group: FiniteGroup, path) -> Tuple[Character, ...]:
    """Load and validate a character table file (see parse_character_table)."""
    p = Path(path)
    return parse_character_table(group, p.read_text(), origin=str(p))
