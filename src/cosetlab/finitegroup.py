"""Finite groups generated by permutations or integer matrices modulo m.

Groups are enumerated by deterministic breadth-first closure from the
identity, with element inverses tracked during the walk.  Conjugacy
classes are conjugation orbits ordered by their smallest element index.
Subgroups carry left-coset transversals of their parent.  Congruence
quotients of the integer special linear group are generated by the
elementary transvections, and point-separation witnesses find the smallest
modulus at which a non-identity integer matrix stays non-identity.
Elements are numpy rows, looked up by value or by row in the closure's row
table; numpy is imported lazily, on first use.
"""

from __future__ import annotations

import math
import random
import re
from contextlib import suppress
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ._lazy import np
from ._table import _Table
from .errors import ResourceLimitError

Perm = Tuple[int, ...]

# Products formed at once during closure; bounds the temporaries of a layer.
SLICE_PRODUCTS = 1 << 16
# Bytes a closure may hold, whatever its cap, measured after each slice: the
# element and inverse rows of every element numbered so far, the next
# layer's included, plus the arrays of its row table.
CLOSURE_BYTES = 64 << 20


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(rows)
    m = [[int(x) for x in row] for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycle_string(s: str) -> List[Tuple[int, ...]]:
    """Parse 1-based cycle notation like '(1 2)(3 4)' or '()' into a list
    of 0-based cycles."""
    rest = _CYCLE_RE.sub("", s)
    if rest.strip():
        raise ValueError(f"bad cycle notation {s!r}")
    cycles = []
    for body in _CYCLE_RE.findall(s):
        points = [int(t) for t in re.split(r"[,\s]+", body.strip()) if t]
        if not points:
            continue
        if any(p < 1 for p in points):
            raise ValueError(f"cycle points are 1-based, got {points}")
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point in cycle {body!r}")
        cycles.append(tuple(p - 1 for p in points))
    return cycles


def _perm_from_cycles(cycles: List[Tuple[int, ...]], degree: int) -> Perm:
    """Materialize cycles as a permutation tuple; rightmost cycle applies
    first (function composition)."""
    img = list(range(degree))
    for cycle in reversed(cycles):
        move = dict(zip(cycle, cycle[1:] + cycle[:1]))
        img = [move.get(p, p) for p in img]
    return tuple(img)


def _value(g, degree: int, modulus: Optional[int]):
    """The canonical value of an element literal: a permutation tuple on
    `degree` points (from 1-based cycle notation, or 0-based images padded
    with fixed points) when modulus is None, else a matrix as row tuples
    with entries reduced mod modulus."""
    if modulus is not None:
        return tuple(tuple(int(x) % modulus for x in row) for row in g)
    if isinstance(g, str):
        return _perm_from_cycles(_parse_cycle_string(g), degree)
    p = tuple(int(x) for x in g)
    return p + tuple(range(len(p), degree))


def _batch_op(modulus: Optional[int]):
    """The group law on stacks of elements, broadcast over leading axes:
    composition (a * b)(i) = a(b(i)) for permutation rows (no modulus), the
    matrix product mod m for matrices."""
    if modulus is None:
        return lambda a, b: np.take_along_axis(a, b, axis=-1)
    return lambda a, b: np.matmul(a, b) % modulus


def _keys(rows: np.ndarray, modulus: Optional[int]) -> np.ndarray:
    """One fixed-width key per element of a stack: the bytes of its entries,
    as an S view.  Object entries (moduli past 64 bits) take the byte width
    of modulus - 1 each, so every key of a group has the same width."""
    flat = np.ascontiguousarray(rows).reshape(len(rows), math.prod(rows.shape[1:]))
    if flat.dtype == object:
        width = ((modulus - 1).bit_length() + 7) // 8
        flat = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in flat.flat),
                             np.uint8).reshape(len(flat), flat.shape[1] * width)
    return flat.view(f"S{flat.shape[1] * flat.itemsize}").ravel()


def _generator_inverses(gens: np.ndarray, identity: np.ndarray, op, cap: int):
    """g^-1 = g^(o-1), found by stepping through the powers of g."""
    inv = np.empty_like(gens)
    for j in range(len(gens)):
        g = gens[j:j + 1]
        prev, cur, steps = identity, g, 0
        while not np.array_equal(cur, identity):
            prev, cur = cur, op(cur, g)
            steps += 1
            if steps > cap:
                raise ResourceLimitError(
                    f"element order exceeds cap {cap} while inverting a generator"
                )
        inv[j] = prev[0]
    return inv


def _bfs_closure(gens: np.ndarray, identity: np.ndarray, op, cap: int, modulus):
    """Deterministic breadth-first closure under right multiplication, one
    layer at a time.

    Each layer multiplies every element of the previous layer by every
    generator; new elements are numbered by first occurrence in (parent,
    generator) order as they are found, the order of an element-by-element
    walk.  Inverses follow the same products: (x g)^-1 = g^-1 x^-1.
    Products are formed in slices of SLICE_PRODUCTS, and the cap and
    CLOSURE_BYTES are checked after each slice, before the layer's rows are
    formed, so a layer past either is never built.  Returns (element rows
    in discovery order, their _Table of row keys, inverse index list).
    """
    gens = gens[np.sort(np.unique(_keys(gens, modulus), return_index=True)[1])]
    gen_inv = _generator_inverses(gens, identity, op, cap)
    index = _Table(_keys(identity, modulus))
    layer = layer_inv = identity
    rows, inv_rows = [identity], [identity]
    step = max(1, SLICE_PRODUCTS // max(1, len(gens)))
    while len(layer) and len(gens):
        found, fresh = len(index), []  # the product positions of the new elements
        for lo in range(0, len(layer), step):
            products = op(layer[lo:lo + step, None], gens[None])
            start = len(index)
            ids = index.number(_keys(products.reshape((-1,) + identity.shape[1:]), modulus))
            new = np.flatnonzero(ids >= start)  # ids rise by one at each first occurrence
            fresh.append(lo * len(gens) + new[np.diff(np.maximum.accumulate(ids[new]),
                                                      prepend=start - 1) > 0])
            if len(index) > cap:
                raise ResourceLimitError(
                    f"group order exceeds cap {cap}: {found} elements "
                    f"found and the next breadth-first layer adds at least "
                    f"{len(index) - found} more"
                )
            held = len(index) * 2 * identity.nbytes + index.nbytes
            if held > CLOSURE_BYTES:
                raise ResourceLimitError(
                    f"group closure exceeds CLOSURE_BYTES = {CLOSURE_BYTES} before the "
                    f"element cap {cap}: {found} elements found and {len(index) - found} "
                    f"of the next layer hold about {held} bytes")
        index.commit()
        parent, gen = np.divmod(np.concatenate(fresh), len(gens))
        layer_inv = op(gen_inv[gen], layer_inv[parent])
        layer = op(layer[parent], gens[gen])
        rows.append(layer)
        inv_rows.append(layer_inv)
    inv = index.get(_keys(np.concatenate(inv_rows), modulus))
    return np.concatenate(rows), index, inv.tolist()


class ConjugacyClass(NamedTuple):
    rep: int
    members: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class FiniteGroup:
    """A finite group of permutation tuples or integer matrices mod m,
    enumerated in deterministic breadth-first order (identity first).

    Elements are stored as one array of rows (shape (n, d) for
    permutations, (n, d, d) for matrices), multiplied in batches and found
    in the row table; their tuple view `elements` is built only for callers
    that read it.  The rows are the closure of the generator rows gens:
    permutations when modulus is None, else matrices mod modulus.
    """

    def __init__(self, gens, modulus, generators, cap):
        self.kind = "perm" if modulus is None else "matrix"
        self.degree = d = gens.shape[-1]
        identity = (np.arange(d, dtype=gens.dtype) if modulus is None
                    else np.eye(d, dtype=gens.dtype))[None]
        self._op = _batch_op(modulus)
        self._rows, self._row_index, self._inv = _bfs_closure(
            gens, identity, self._op, cap, modulus)
        self.modulus = modulus
        self.generators = tuple(generators)
        self._verify_axioms()

    # -- basic structure ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def _value_of(self, row: list):
        """An element value from its row as a list: a permutation tuple, or
        a matrix as a tuple of row tuples."""
        return tuple(row) if self.kind == "perm" else tuple(map(tuple, row))

    @cached_property
    def elements(self) -> list:
        """Element values in enumeration order."""
        return list(map(self._value_of, self._rows.tolist()))

    @property
    def identity(self):
        return self.element(0)

    def element(self, i: int):
        return self._value_of(self._rows[i].tolist())

    def index_of(self, value) -> int:
        """The index of an element value, found in the row table: a row of
        the group's row shape whose entries equal the value's (1.0 is 1)."""
        with suppress(TypeError, ValueError, OverflowError, KeyError):
            obj = np.array([value], object)
            row = np.array([int(x) for x in obj.flat], self._rows.dtype).reshape(obj.shape)
            if obj.shape[1:] == self._rows.shape[1:] and row.ravel().tolist() == list(obj.flat):
                return int(self._find(row)[0])
        raise ValueError(f"{value!r} is not an element of this group")

    def contains_value(self, value) -> bool:
        """Whether index_of finds value."""
        with suppress(ValueError):
            return self.index_of(value) >= 0
        return False

    def _find(self, rows: np.ndarray) -> np.ndarray:
        """Element indices of a stack of rows, or KeyError if one is absent
        or the stack's row shape or dtype is not the group's."""
        if rows.shape[1:] != self._rows.shape[1:] or rows.dtype != self._rows.dtype:
            raise KeyError("rows of another shape or dtype are not elements of this group")
        ids = self._row_index.get(_keys(rows, self.modulus))
        if (ids < 0).any():
            raise KeyError("a row is not an element of this group")
        return ids

    def mul(self, i: int, j: int) -> int:
        return int(self._find(self._op(self._rows[[i]], self._rows[[j]]))[0])

    def inv(self, i: int) -> int:
        return self._inv[i]

    def _verify_axioms(self):
        """Identity and inverse laws on every element (closure holds by
        construction); associativity on a deterministic sample of triples."""
        a, op, n = self._rows, self._op, len(self)
        e, a_inv = a[:1], a[self._inv]
        if not (np.array_equal(op(e, a), a) and np.array_equal(op(a, e), a)):
            raise ValueError("identity law fails")
        if not ((op(a, a_inv) == e).all() and (op(a_inv, a) == e).all()):
            raise ValueError("inverse law fails")
        rng = random.Random(7)
        triples = [rng.randrange(n) for _ in range(3 * min(200, n * n))]
        x, y, z = (a[triples[k::3]] for k in range(3))
        if not np.array_equal(op(op(x, y), z), op(x, op(y, z))):
            raise ValueError("associativity fails")

    # -- conjugacy ---------------------------------------------------------

    def _compute_classes(self) -> Tuple[Tuple[ConjugacyClass, ...], List[int]]:
        """Conjugation orbits {x g x^-1}, one batched pass each, and each
        element's class number."""
        a = self._rows
        a_inv = a[self._inv]
        class_of = np.full(len(self), -1, dtype=np.intp)
        classes: List[ConjugacyClass] = []
        for i in range(len(self)):
            if class_of[i] >= 0:
                continue
            ids = self._find(self._op(self._op(a, a[i:i + 1]), a_inv))
            # sorted and distinct; np.unique would import numpy.ma
            members = np.flatnonzero(np.bincount(ids, minlength=len(self)))
            class_of[members] = len(classes)
            classes.append(ConjugacyClass(i, tuple(members.tolist())))
        return tuple(classes), class_of.tolist()

    @cached_property
    def _class_data(self) -> Tuple[Tuple[ConjugacyClass, ...], List[int]]:
        return self._compute_classes()  # a method of its own: perfbench times it

    @property
    def classes(self) -> Tuple[ConjugacyClass, ...]:
        return self._class_data[0]

    def class_of(self, i: int) -> int:
        return self._class_data[1][i]

    # -- subgroups ----------------------------------------------------------

    def subgroup(self, gens) -> "Subgroup":
        return Subgroup(self, [_value(g, self.degree, self.modulus) for g in gens])


class Subgroup(FiniteGroup):
    """A subgroup enumerated inside a parent group, with left-coset data."""

    def __init__(self, parent: FiniteGroup, gen_values):
        gens = parent._rows[[parent.index_of(v) for v in gen_values]]
        super().__init__(gens, parent.modulus, tuple(gen_values), len(parent) + 1)
        self.parent = parent
        self.parent_index = tuple(parent._find(self._rows).tolist())

    @property
    def index_in_parent(self) -> int:
        return len(self.parent) // len(self)

    def to_parent(self, si: int) -> int:
        return self.parent_index[si]

    @cached_property
    def _coset_data(self) -> Tuple[Tuple[int, ...], List[int]]:
        """Left coset representatives (each its coset's least parent index),
        and each parent element's coset.  A round finds the cosets of the
        least unplaced elements, as many as SLICE_PRODUCTS and the unplaced
        allow; each is a representative if it is its coset's least member,
        since every smaller unplaced element is in the round too."""
        parent = self.parent
        cid = np.full(len(parent), -1, dtype=np.intp)
        reps: List[int] = []
        while (todo := np.flatnonzero(cid < 0)).size:
            todo = todo[:max(1, min(SLICE_PRODUCTS, len(todo)) // len(self))]
            ids = parent._find(parent._op(parent._rows[todo, None], self._rows[None])
                               .reshape((-1,) + self._rows.shape[1:])).reshape(len(todo), -1)
            first = ids.min(axis=1) == todo
            cid[ids[first]] = np.arange(len(reps), len(reps) + first.sum())[:, None]
            reps.extend(todo[first].tolist())
        return tuple(reps), cid.tolist()

    @property
    def transversal(self) -> Tuple[int, ...]:
        """Left coset representatives (parent indices), identity coset first."""
        return self._coset_data[0]

    def coset_id(self, pi: int) -> int:
        """Which left coset x * H the parent element at index pi lies in."""
        return self._coset_data[1][pi]


def generate_group(gens, modulus: Optional[int] = None, degree: Optional[int] = None,
                   cap: int = 10**6) -> FiniteGroup:
    """Breadth-first enumeration of the group generated by permutations
    (tuples of 0-based images, or 1-based cycle-notation strings) or by
    square integer matrices taken modulo `modulus`.

    Raises ResourceLimitError if the order would exceed cap.
    """
    if cap < 1:
        raise ValueError(f"element cap must be positive, got {cap}")
    gens = list(gens)
    if modulus is not None:
        m = int(modulus)
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        if not gens and degree is None:
            raise ValueError("matrix group with no generators needs a degree")
        n = len(gens[0]) if gens else int(degree)
        if n < 1:
            raise ValueError(f"matrix size must be >= 1, got {n}")
        mats = [_value(g, n, m) for g in gens]
        for rows in mats:
            if len(rows) != n or any(len(row) != n for row in rows):
                raise ValueError("matrix generators must be square and same size")
            if math.gcd(_int_det(rows) % m, m) != 1:
                raise ValueError(f"generator {rows!r} is not invertible mod {m}")
        # holds every unreduced sum of products; object (Python ints) past 64 bits
        dtype = np.min_scalar_type(n * (m - 1) ** 2)
        return FiniteGroup(np.array(mats, dtype=dtype).reshape(-1, n, n), m, mats, cap)

    points = (max(map(max, _parse_cycle_string(g)), default=-1) + 1 if isinstance(g, str)
              else len(g) for g in gens)
    deg = max(degree or 0, 1, *points)
    perms = [_value(g, deg, None) for g in gens]
    for p in perms:
        if sorted(p) != list(range(deg)):
            raise ValueError(f"{p!r} is not a permutation")
    dtype = np.min_scalar_type(deg - 1)
    return FiniteGroup(np.array(perms, dtype=dtype).reshape(-1, deg), None, perms, cap)


def congruence_group(n: int, m: int, cap: int = 10**6) -> FiniteGroup:
    """SL(n, Z/m), generated by the n(n-1) elementary transvections.

    The products L U of a unit lower and a unit upper triangular matrix are
    distinct (the two groups meet only in I), so the order is at least
    m^(n(n-1)); past cap, ResourceLimitError comes before any generator is
    built.
    """
    if n < 2:
        raise ValueError(f"matrix size must be >= 2, got {n}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if cap < 1:
        raise ValueError(f"element cap must be positive, got {cap}")
    bound = 1
    for _ in range(n * (n - 1)):  # stops past cap: never the whole power
        bound *= m
        if bound > cap:
            raise ResourceLimitError(
                f"group order exceeds cap {cap}: |SL({n}, Z/{m})| >= {m}^{n * (n - 1)}"
            )
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            rows[i][j] = 1
            gens.append(tuple(tuple(r) for r in rows))
    return generate_group(gens, modulus=m, cap=cap)


def special_linear_order(n: int, m: int) -> int:
    """|SL(n, Z/m)| in closed form: multiplicative over prime powers, with
    |SL(n, Z/p^k)| = p^((k-1)(n^2-1)) * p^(n(n-1)/2) * prod_{j=2..n} (p^j - 1).
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    total = 1
    rest = m
    p = 2
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        k = 0
        while rest % p == 0:
            rest //= p
            k += 1
        if k:
            term = p ** ((k - 1) * (n * n - 1)) * p ** (n * (n - 1) // 2)
            for j in range(2, n + 1):
                term *= p**j - 1
            total *= term
        p += 1
    return total


def separation_witness(A) -> int:
    """Smallest modulus m >= 2 at which the non-identity integer matrix A
    (determinant 1) is still not the identity.

    Some entry of A - I is nonzero, and it survives any modulus exceeding
    its absolute value, so the upward scan terminates.
    """
    rows = tuple(tuple(int(x) for x in row) for row in A)
    n = len(rows)
    if _int_det(rows) != 1:  # which raises unless the matrix is square
        raise ValueError(f"determinant must be 1, got {_int_det(rows)}")
    dev = [[rows[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    if all(x == 0 for row in dev for x in row):
        raise ValueError("matrix is the identity; no modulus separates it")
    m = 2
    while True:
        if any(x % m != 0 for row in dev for x in row):
            return m
        m += 1
