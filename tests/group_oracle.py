"""Plain-Python reference models for the finite-group kernel.

Elements are tuples (permutations) or tuples of row tuples (matrices mod
m), multiplied one pair at a time, and the group is enumerated by an
element-by-element breadth-first walk with a value-keyed dict.  These are
the referees for `cosetlab.finitegroup`'s batched closure, classes and
cosets, and for `cosetlab.characters.induce_character`'s class sums.
"""

from typing import Callable, Dict, List, Tuple


def perm_mul(a, b):
    """Composition: (a * b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def mat_mul_mod(m: int) -> Callable:
    def mul(a, b):
        n = len(a)
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) % m for j in range(n))
            for i in range(n)
        )
    return mul


def group_mul(G) -> Callable:
    return perm_mul if G.kind == "perm" else mat_mul_mod(G.modulus)


def reference_closure(gens, identity, mul) -> Tuple[List, List[int]]:
    """Breadth-first closure from the identity under right multiplication,
    one element at a time; inverses tracked as (x g)^-1 = g^-1 x^-1 with
    generator inverses found by cycling through powers.  Returns (elements
    in discovery order, inverse index list)."""
    uniq = list(dict.fromkeys(gens))
    inv_val = {identity: identity}
    for g in uniq:
        prev, cur = identity, g
        while cur != identity:
            prev, cur = cur, mul(cur, g)
        inv_val[g] = prev
    elements = [identity]
    index: Dict = {identity: 0}
    i = 0
    while i < len(elements):
        x = elements[i]
        for g in uniq:
            y = mul(x, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                inv_val[y] = mul(inv_val[g], inv_val[x])
        i += 1
    return elements, [index[inv_val[e]] for e in elements]


def reference_classes(elements, inv, mul) -> Tuple[List, List[int]]:
    """Conjugation orbits ordered by smallest member: ([(rep, members)],
    class_of)."""
    index = {v: i for i, v in enumerate(elements)}
    class_of = [-1] * len(elements)
    classes = []
    for i, g in enumerate(elements):
        if class_of[i] >= 0:
            continue
        members = tuple(sorted({
            index[mul(mul(x, g), elements[inv[xi]])] for xi, x in enumerate(elements)
        }))
        for j in members:
            class_of[j] = len(classes)
        classes.append((i, members))
    return classes, class_of


def reference_cosets(parent_elements, sub_elements, mul) -> Tuple[Tuple, List[int]]:
    """Left cosets x H in parent order: (transversal, coset id per parent
    index)."""
    index = {v: i for i, v in enumerate(parent_elements)}
    cid = [-1] * len(parent_elements)
    reps = []
    for pi, x in enumerate(parent_elements):
        if cid[pi] >= 0:
            continue
        for h in sub_elements:
            cid[index[mul(x, h)]] = len(reps)
        reps.append(pi)
    return tuple(reps), cid


def reference_induce(chi, G) -> List[complex]:
    """ind(chi)(g) = (1/|H|) sum over x in G with x^-1 g x in H of
    chi(x^-1 g x), one conjugation at a time, on G's classes."""
    H = chi.group
    mul = group_mul(G)
    elements, inv = reference_closure(G.generators, G.identity, mul)
    values = []
    for c in G.classes:
        g = G.element(c.rep)
        total = 0j
        for xi, x in enumerate(elements):
            y = mul(mul(elements[inv[xi]], g), x)
            if H.contains_value(y):
                total += chi.value_on(H.index_of(y))
        values.append(total / len(H))
    return values
