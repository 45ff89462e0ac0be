"""Canonical coset forms and orbit enumeration for Z |x F acting on the
coset space by the normal-closure subgroup at a given level.

A coset is written (level, tail) with every tail index strictly above the
level; this form is unique because the quotient of F by the normal closure
of {x_i : i <= level} is free on the surviving generators.

Orbit balls keep each coset as a level offset from the base coset's level
plus an interned tail id, its letters stored as j = index - level >= 1.
The element (s, w) sends (L, tail) to (L + s, w' tail), where w' keeps the
letters of w above L + s: the shifted tail keeps its id, and only w's
letters are prepended.  A tail is hash-consed as (rest id, first letter
code), id 0 the empty word, so prepending a letter is a cancellation (the
rest) or one lookup in the tail table.  Free reduction is confluent, so
prepending w's kept letters right to left gives act()'s canonical form.

Nodes and tails are each numbered by an int64 _Table (see _table), whose
keys put an id in the high half: a tail's is its rest's id, a node's its
tail's id.  A layer's tails extend the last layer's, and its nodes mostly
end in its own new tails, so its new keys mostly sort after the table's and
merging them in is an append: on free orbits every merge appends, and each
table is its own index, holding each key once.  Balls are built a layer at
a time with numpy, imported lazily (Coset and act never run it).  A layer's
images under all generators are computed in slices of (parent, generator)
pairs into the ball's one image array, grown as each layer starts; unseen
images become nodes, numbered by first occurrence in (parent, generator)
order, as in a node-by-node BFS.  The outer layer numbers no node: it looks
each image's tail up at its last letter, and an unseen tail is outside.
"""

from __future__ import annotations

from functools import cached_property
from collections.abc import Iterable, Sequence

from ._lazy import np
from ._table import _Table
from .errors import ResourceLimitError
from .freegroup import (
    GElement,
    IDENTITY,
    Word,
    format_gelement,
    format_word,
    g_mul,
    retract,
)


class Coset:
    """A point of the coset space: level n plus a reduced tail word whose
    letter indices all exceed n.  Immutable and hashable; equality is exact.
    """

    __slots__ = ("level", "tail", "_hash")

    def __init__(self, level: int, tail: Word):
        if not isinstance(tail, Word):
            raise TypeError(f"tail must be a Word, got {type(tail).__name__}")
        level = int(level)
        for (i, _) in tail.letters:
            if i <= level:
                raise ValueError(
                    f"tail letter x{i} not above level {level}; "
                    "use normal_form to canonicalize"
                )
        self.level = level
        self.tail = tail
        self._hash = hash((level, tail))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Coset)
            and self.level == other.level
            and self.tail == other.tail
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Coset({self.level}, {format_word(self.tail)!r})"


def normal_form(a: GElement) -> Coset:
    """Canonical coset of the element a: (a.shift, retract(a.word, a.shift)).

    Two elements map to the same Coset iff they lie in the same left coset
    of the level-0 normal-closure subgroup.
    """
    return Coset(a.shift, retract(a.word, a.shift))


def act(g: GElement, c: Coset) -> Coset:
    """Left action on cosets: the canonical form of g * (c.level, c.tail)."""
    return normal_form(g_mul(g, GElement(c.level, c.tail)))


# Packed codes.  A letter j places above its level with exponent e has code
# 2j + (e < 0), so code ^ 1 is its inverse.  A tail is keyed by
# rest id << 32 | code, and the empty word by -1, whose code field 2^32 - 1
# is no letter's; a coset is keyed by tail id << 32 | (level offset +
# LEVEL_LIMIT).  Ids in the high half sort a layer's new keys last (see the
# module docstring); within these limits every other key is a non-negative
# int64.
INDEX_LIMIT = 1 << 30  # relative letter index j
LEVEL_LIMIT = 1 << 30  # |level - base level|
TAIL_LIMIT = 1 << 31  # interned tail ids
_LOW = (1 << 32) - 1
# Shifts and letter offsets are clamped to +-_CLAMP before entering int64;
# past LEVEL_LIMIT + INDEX_LIMIT the clamped value decides the same tests.
_CLAMP = 1 << 40
# (parent, generator) pairs per slice of a BFS layer: bounds the temporaries
# of a layer's images (about 130 bytes a pair); the node cap is checked
# after every slice.  Merges that append cost little, so small slices are
# cheap: 2^13 pairs peaked 1 MB below 2^15 on `kesten -k 2 --radii 1..10`.
SLICE_PAIRS = 1 << 13
# Generator images (generators x nodes, int32) a ball may store, checked
# before each layer; four generators reach the default node cap first.
IMAGE_LIMIT = 1 << 23


def _clamp(n: int) -> int:
    return max(-_CLAMP, min(_CLAMP, n))


def _check_index(jmax: int) -> None:
    if jmax >= INDEX_LIMIT:
        raise ValueError(
            f"relative letter index {jmax} exceeds the packing limit "
            f"INDEX_LIMIT = {INDEX_LIMIT}"
        )


def _prepend(tails: _Table, cur: np.ndarray, code: np.ndarray, find) -> np.ndarray:
    """Ids of the reduced words code[k] . cur[k], by find: tails.number, or
    tails.get (-1 if unseen).  A tail's key is the id of the rest << 32 | its
    first letter code; the empty word, id 0, has key -1, matching no letter."""
    key = tails.keys[cur]
    out = key >> 32
    fresh = np.flatnonzero(key & _LOW != code ^ 1)
    out[fresh] = find(cur[fresh] << 32 | code[fresh])
    if len(tails) > TAIL_LIMIT:
        raise ValueError(f"orbit ball needs more than TAIL_LIMIT = {TAIL_LIMIT} interned tails")
    return out


class OrbitBall:
    """Breadth-first truncation of the orbit of `base` under `generators`.

    Node 0 is the base coset; nodes appear in deterministic breadth-first
    order (parents in node order, generators in the given order), so nodes
    within distance r form a prefix of the node list for every r <= radius.
    Node i is id i of the node table, whose key packs its tail id and its
    level offset from the base level (see the module docstring).
    gen_images is an int32 array with one row per generator; images landing
    outside the ball are boundary marks, stored as -1.
    """

    def __init__(self, base, generators, radius, tails, nodes, ends, images):
        self.base = base
        self.generators = tuple(generators)
        self.radius = radius
        self._tails = tails
        self._nodes = nodes
        self._ends = ends  # _ends[d]: the number of nodes within distance d
        self.gen_images = images

    def __len__(self) -> int:
        return self._ends[-1]

    @cached_property
    def distances(self) -> np.ndarray:
        return np.repeat(np.arange(len(self._ends), dtype=np.int32),
                         np.diff(self._ends, prepend=0))

    def node(self, i: int) -> Coset:
        key = int(self._nodes.keys[i])
        level = self.base.level + (key & _LOW) - LEVEL_LIMIT
        letters = []
        t = key >> 32
        while t:
            key = int(self._tails.keys[t])
            code = key & _LOW
            letters.append((level + (code >> 1), -1 if code & 1 else 1))
            t = key >> 32
        return Coset(level, Word(letters))

    def distance(self, i: int) -> int:
        return int(self.distances[i])

    def image(self, i: int, gen: int) -> int:
        """Index of generators[gen] applied to node i, or -1 if out of ball."""
        return int(self.gen_images[gen][i])

    def find(self, c: Coset) -> int | None:
        """Index of the node c, or None outside the ball.  Interns nothing."""
        offset = c.level - self.base.level
        if not -LEVEL_LIMIT < offset < LEVEL_LIMIT:
            return None
        t = 0
        for (i, e) in reversed(c.tail.letters):
            j = i - c.level
            if j >= INDEX_LIMIT:
                return None
            t = int(self._tails.get(np.array([t << 32 | (2 * j + (e < 0))]))[0])
            if t < 0:
                return None
        i = int(self._nodes.get(np.array([t << 32 | (offset + LEVEL_LIMIT)]))[0])
        return None if i < 0 else i

    def prefix_size(self, r: int) -> int:
        """Number of nodes within distance r (a prefix, by BFS order)."""
        return self._ends[min(r, len(self._ends) - 1)] if r >= 0 else 0


def _expand(tails, nodes, shifts, letters, keys, out, number):
    """Images of the nodes with the given keys under every generator, in
    (parent, generator) order, numbered by number (nodes.number) and written
    to out (generators x nodes).  On the outer layer number is None, unseen
    images are -1, and the last letter looks each tail up: an unseen tail
    needs no node lookup.  Earlier letters number theirs, since a later one
    may cancel an unseen tail, and roll them back."""
    lvl = (keys & _LOW) - LEVEL_LIMIT
    cur = np.repeat(keys >> 32, len(shifts))
    for d, (offset, negative) in enumerate(letters):
        code = offset - lvl[:, None]  # j, then 2j + (exponent < 0) in place
        code <<= 1
        code += negative
        code = code.ravel()
        at = np.flatnonzero(code > 1)  # j > 0: the letter is above the level
        if len(at):
            code = code[at]
            _check_index(int(code.max()) >> 1)
            last = number is None and d == len(letters) - 1
            cur[at] = _prepend(tails, cur[at], code, tails.get if last else tails.number)
    key = (lvl[:, None] + shifts).ravel()
    if max(int(key.max()), -int(key.min())) >= LEVEL_LIMIT:
        raise ValueError(
            f"orbit ball spans more than LEVEL_LIMIT = {LEVEL_LIMIT} levels from its base")
    key += LEVEL_LIMIT
    cur <<= 32  # negative where the tail is unseen
    key |= cur
    del cur
    if number is None:
        ids = np.full(len(key), -1, np.int32)
        known = np.flatnonzero(key >= 0)
        uniq, inv = np.unique(key[known], return_inverse=True)  # sorted: a fast lookup
        ids[known] = nodes.get(uniq)[inv]
        tails.rollback()
    else:
        ids = number(key)
    out[...] = ids.reshape(out.shape[::-1]).T


def orbit_ball(
    base: Coset,
    gens: Sequence[GElement],
    radius: int,
    cap: int = 2_000_000,
) -> OrbitBall:
    """Deterministic breadth-first ball of the orbit of base under gens.

    Raises ResourceLimitError if the node count would exceed cap or the
    image count IMAGE_LIMIT, and ValueError if a relative letter index,
    level offset or tail id would overflow its packed code (INDEX_LIMIT,
    LEVEL_LIMIT, TAIL_LIMIT).
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    gens = tuple(gens)
    if not gens:
        raise ValueError("generator sequence must be nonempty")
    for g in gens:
        if not isinstance(g, GElement):
            raise TypeError(f"generators must be GElements, got {type(g).__name__}")
    if cap < 1:
        raise ValueError(f"node cap must be positive, got {cap}")

    # letters[d] holds, per generator, the d-th letter from the right of its
    # word as (index - shift - base level, exponent < 0); the letter lands
    # j = that offset - parent level offset above the image's level.  A
    # missing letter gets an offset that is never above any level.
    shifts = np.array([_clamp(g.shift) for g in gens], np.int64)
    letters = []
    for d in range(max(len(g.word) for g in gens)):
        offset = np.full(len(gens), -_CLAMP, np.int64)
        negative = np.zeros(len(gens), np.int64)
        for k, g in enumerate(gens):
            if d < len(g.word):
                i, e = g.word.letters[-1 - d]
                offset[k] = _clamp(i - g.shift - base.level)
                negative[k] = e < 0
        letters.append((offset, negative))

    tails = _Table(np.array([-1], np.int64))  # the empty word
    tid = 0
    for (i, e) in reversed(base.tail.letters):
        j = i - base.level
        _check_index(j)
        tid = int(_prepend(tails, np.array([tid]), np.array([2 * j + (e < 0)]), tails.number)[0])
    tails.commit()
    nodes = _Table(np.array([tid << 32 | LEVEL_LIMIT], np.int64))  # the base coset
    layer = nodes.keys  # the keys of the nodes at distance d

    # Each layer's images go straight into its columns of the image array.
    ends, images = [], np.empty((len(gens), 0), np.int32)
    step = max(1, SLICE_PAIRS // len(gens))
    while True:
        d, found, done = len(ends), len(nodes), images.shape[1]
        if len(gens) * found > IMAGE_LIMIT:
            raise ResourceLimitError(
                f"orbit ball exceeded image limit {IMAGE_LIMIT}: {len(gens)} generators "
                f"on the {found} nodes within radius {d} need {len(gens) * found} images")
        ends.append(found)
        images = np.pad(images, ((0, 0), (0, found - done)), mode="empty")  # new columns unwritten
        number = nodes.number if d < radius else None
        for a in range(0, len(layer), step):
            _expand(tails, nodes, shifts, letters, layer[a:a + step],
                    images[:, done + a:done + a + step], number)
            if len(nodes) > cap:
                raise ResourceLimitError(
                    f"orbit ball exceeded node cap {cap}: {found} nodes found within "
                    f"radius {d}, and radius {d + 1} adds at least {len(nodes) - found} more")
        del layer  # a view of the node keys, which the last commit trims
        nodes.commit()
        tails.commit()
        if len(nodes) == found:
            break
        layer = nodes.keys[found:]
    return OrbitBall(base, gens, radius, tails, nodes, ends, images)


def h_orbit_partition(
    window: Iterable[int],
    gens: Sequence[GElement],
    radius: int,
    cap: int = 2_000_000,
) -> dict[int, OrbitBall]:
    """Orbit balls of Coset(n, e) for each level n in window, under
    generators of shift 0.

    Shift-0 elements never change a coset's level, so each ball stays inside
    its own level block; this is verified on every node.  Generators with
    nonzero shift are rejected.
    """
    gens = tuple(gens)
    for g in gens:
        if g.shift != 0:
            raise ValueError(
                f"generator {format_gelement(g)} has nonzero shift; "
                "the level partition needs shift-0 generators"
            )
    out: dict[int, OrbitBall] = {}
    for n in window:
        n = int(n)
        ball = orbit_ball(Coset(n, IDENTITY), gens, radius, cap=cap)
        moved = np.flatnonzero(ball._nodes.keys & _LOW != LEVEL_LIMIT)
        if len(moved):
            raise RuntimeError(
                f"shift-0 orbit left level {n}: "
                f"reached level {ball.node(int(moved[0])).level}"
            )
        out[n] = ball
    return out
