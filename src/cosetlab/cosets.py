"""Canonical coset forms and orbit enumeration for Z |x F acting on the
coset space by the normal-closure subgroup at a given level.

A coset is written (level, tail) with every tail index strictly above the
level; this form is unique because the quotient of F by the normal closure
of {x_i : i <= level} is free on the surviving generators.

Orbit balls keep each coset as a level, counted from the base coset's
level, plus an interned tail id.  Tail letters are stored relative to their
coset's level, as j = index - level >= 1.  The element (s, w) sends
(L, tail) to (L + s, w' tail), where w' keeps the letters of w above L + s:
shifting the tail by s moves its letters and its level together, so the
tail id is unchanged and only the letters of w are prepended.  A tail is
hash-consed as (first letter code, rest id), with id 0 for the empty word,
so prepending one letter is either a cancellation (the rest) or one lookup
in the intern table.  Free reduction is confluent, so prepending the kept
letters of w right to left gives exactly the canonical form of act().

Balls are built one breadth-first layer at a time with numpy, imported
lazily: Coset and act never run it.  The images of a layer's nodes are
computed for all generators at once, in slices of a fixed number of
(parent, generator) pairs; unseen images become new nodes, numbered by
first occurrence in (parent, generator) order, which is the order of a
node-by-node breadth-first search.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from ._lazy import lazy_import
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

np = lazy_import("numpy")


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
# code << 32 | rest id and a coset by (level offset + LEVEL_LIMIT) << 32 |
# tail id; within these limits both keys fit an int64 exactly.
INDEX_LIMIT = 1 << 30  # relative letter index j
LEVEL_LIMIT = 1 << 30  # |level - base level|
TAIL_LIMIT = 1 << 32  # interned tail ids
_LOW = (1 << 32) - 1
# Shifts and letter offsets are clamped to +-_CLAMP before entering int64;
# past LEVEL_LIMIT + INDEX_LIMIT the clamped value decides the same tests.
_CLAMP = 1 << 40
# (parent, generator) pairs per slice of a BFS layer: bounds the memory of
# a layer's images, and the node cap is checked after every slice.
SLICE_PAIRS = 1 << 16


def _clamp(n: int) -> int:
    return max(-_CLAMP, min(_CLAMP, n))


def _check_index(jmax: int) -> None:
    if jmax >= INDEX_LIMIT:
        raise ValueError(
            f"relative letter index {jmax} exceeds the packing limit "
            f"INDEX_LIMIT = {INDEX_LIMIT}"
        )


class _Table:
    """Sorted int64 keys with int64 values, searched an array at a time."""

    __slots__ = ("keys", "vals")

    def __init__(self):
        self.keys = np.empty(0, np.int64)
        self.vals = np.empty(0, np.int64)

    def get(self, q: np.ndarray) -> np.ndarray:
        """The value of each key in q, or -1 where it is absent."""
        out = np.full(len(q), -1, np.int64)
        if len(self.keys):
            pos = np.minimum(np.searchsorted(self.keys, q), len(self.keys) - 1)
            hit = self.keys[pos] == q
            out[hit] = self.vals[pos[hit]]
        return out

    def add(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Insert distinct keys that are not yet present."""
        order = np.argsort(keys)
        pos = np.searchsorted(self.keys, keys[order])
        self.keys = np.insert(self.keys, pos, keys[order])
        self.vals = np.insert(self.vals, pos, vals[order])


class _Tails:
    """Hash-consed tails: id t > 0 is the word first[t] . rest[t], where
    first[t] is a letter code; id 0 is the empty word.

    Tails interned since the last commit() are pending: rollback() forgets
    them, so the images of a ball's outer layer intern nothing for good.
    """

    def __init__(self):
        self.first = np.full(1024, -1, np.int64)  # -1 at id 0 matches no code
        self.rest = np.zeros(1024, np.int64)
        self.size = 1
        self.table = _Table()
        self._pending = _Table()
        self._committed = 1

    def prepend(self, cur: np.ndarray, code: np.ndarray) -> np.ndarray:
        """Ids of the reduced words code[k] . cur[k]."""
        out = self.rest[cur]
        fresh = self.first[cur] != code ^ 1
        out[fresh] = self._intern((code[fresh] << 32) | cur[fresh])
        return out

    def _intern(self, keys: np.ndarray) -> np.ndarray:
        ids = self.table.get(keys)
        miss = ids < 0
        if miss.any():
            pend = self._pending.get(keys[miss])
            new = pend < 0
            if new.any():
                uniq, inv = np.unique(keys[miss][new], return_inverse=True)
                start, end = self.size, self.size + len(uniq)
                if end > TAIL_LIMIT:
                    raise ValueError(
                        f"orbit ball needs more than TAIL_LIMIT = {TAIL_LIMIT} "
                        "interned tails"
                    )
                if end > len(self.first):
                    grow = max(end, 2 * len(self.first)) - len(self.first)
                    self.first = np.concatenate([self.first, np.full(grow, -1, np.int64)])
                    self.rest = np.concatenate([self.rest, np.zeros(grow, np.int64)])
                self.first[start:end] = uniq >> 32
                self.rest[start:end] = uniq & _LOW
                ids_new = np.arange(start, end, dtype=np.int64)
                self._pending.add(uniq, ids_new)
                self.size = end
                pend[new] = ids_new[inv]
            ids[miss] = pend
        return ids

    def commit(self) -> None:
        if self.size > self._committed:
            self.table.add(self._pending.keys, self._pending.vals)
        self._pending = _Table()
        self._committed = self.size

    def rollback(self) -> None:
        self._pending = _Table()
        self.size = self._committed


class OrbitBall:
    """Breadth-first truncation of the orbit of `base` under `generators`.

    Node 0 is the base coset; nodes appear in deterministic breadth-first
    order (parents in node order, generators in the given order), so nodes
    within distance r form a prefix of the node list for every r <= radius.
    Each node is stored as its level offset from the base level and an
    interned tail id (see the module docstring).  gen_images is an int32
    array with one row per generator; images landing outside the ball are
    boundary marks, stored as -1.
    """

    def __init__(self, base, generators, radius, tails, nodes, levels, tail_ids,
                 distances, images):
        self.base = base
        self.generators = tuple(generators)
        self.radius = radius
        self._tails = tails
        self._nodes = nodes
        self._level = levels
        self._tail = tail_ids
        self.distances = distances
        self.gen_images = images

    def __len__(self) -> int:
        return len(self._level)

    @property
    def node_count(self) -> int:
        return len(self._level)

    def node(self, i: int) -> Coset:
        level = self.base.level + int(self._level[i])
        letters = []
        t = int(self._tail[i])
        while t:
            code = int(self._tails.first[t])
            letters.append((level + (code >> 1), -1 if code & 1 else 1))
            t = int(self._tails.rest[t])
        return Coset(level, Word(letters))

    def distance(self, i: int) -> int:
        return int(self.distances[i])

    def image(self, i: int, gen: int) -> int:
        """Index of generators[gen] applied to node i, or -1 if out of ball."""
        return int(self.gen_images[gen][i])

    def find(self, c: Coset) -> Optional[int]:
        """Index of the node c, or None outside the ball.  Interns nothing."""
        offset = c.level - self.base.level
        if not -LEVEL_LIMIT < offset < LEVEL_LIMIT:
            return None
        t = 0
        for (i, e) in reversed(c.tail.letters):
            j = i - c.level
            if j >= INDEX_LIMIT:
                return None
            t = int(self._tails.table.get(np.array([(2 * j + (e < 0)) << 32 | t]))[0])
            if t < 0:
                return None
        i = int(self._nodes.get(np.array([(offset + LEVEL_LIMIT) << 32 | t]))[0])
        return None if i < 0 else i

    def prefix_size(self, r: int) -> int:
        """Number of nodes within distance r (a prefix, by BFS order)."""
        if r >= self.radius:
            return len(self)
        return int(np.searchsorted(self.distances, r, side="right"))


def _expand(tails, nodes, shifts, letters, lvl, tid, count, grow):
    """Images of the parents (lvl, tid) under every generator, flattened in
    (parent, generator) order.

    Unseen images become nodes count, count + 1, ... by first occurrence
    when grow is set, and -1 otherwise.  Returns the images and the level
    offsets and tail ids of the new nodes.
    """
    gi = np.tile(np.arange(len(shifts)), len(lvl))
    plvl = np.repeat(lvl, len(shifts))
    cur = np.repeat(tid, len(shifts))
    for offset, negative in letters:
        j = offset[gi] - plvl
        at = np.flatnonzero(j > 0)
        if len(at):
            _check_index(int(j[at].max()))
            cur[at] = tails.prepend(cur[at], 2 * j[at] + negative[gi[at]])
    new_lvl = plvl + shifts[gi]
    if len(new_lvl) and int(np.abs(new_lvl).max()) >= LEVEL_LIMIT:
        raise ValueError(
            f"orbit ball spans more than LEVEL_LIMIT = {LEVEL_LIMIT} levels "
            "from its base"
        )
    key = ((new_lvl + LEVEL_LIMIT) << 32) | cur
    img = nodes.get(key)
    miss = np.flatnonzero(img < 0)
    if not grow:
        tails.rollback()
        return img, new_lvl[:0], cur[:0]
    uniq, first, inv = np.unique(key[miss], return_index=True, return_inverse=True)
    order = np.argsort(first)
    ids = np.empty(len(order), np.int64)
    ids[order] = np.arange(count, count + len(order))
    img[miss] = ids[inv]
    nodes.add(uniq, ids)
    tails.commit()
    src = miss[first[order]]
    return img, new_lvl[src], cur[src]


def orbit_ball(
    base: Coset,
    gens: Sequence[GElement],
    radius: int,
    cap: int = 2_000_000,
) -> OrbitBall:
    """Deterministic breadth-first ball of the orbit of base under gens.

    Raises ResourceLimitError if the node count would exceed cap, and
    ValueError if a relative letter index, level offset or tail id would
    overflow its packed code (INDEX_LIMIT, LEVEL_LIMIT, TAIL_LIMIT).
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

    tails = _Tails()
    tid = 0
    for (i, e) in reversed(base.tail.letters):
        j = i - base.level
        _check_index(j)
        tid = int(tails.prepend(np.array([tid]), np.array([2 * j + (e < 0)]))[0])
    tails.commit()
    nodes = _Table()
    nodes.add(np.array([LEVEL_LIMIT << 32 | tid]), np.array([0]))

    layers = [(np.zeros(1, np.int64), np.array([tid], np.int64))]
    blocks = []
    count = 1
    step = max(1, SLICE_PAIRS // len(gens))
    while True:
        d = len(layers) - 1
        lvl, tid_arr = layers[d]
        grow, found = d < radius, count
        new_lvl, new_tid = [], []
        for a in range(0, len(lvl), step):
            img, nl, nt = _expand(tails, nodes, shifts, letters, lvl[a:a + step],
                                  tid_arr[a:a + step], count, grow)
            blocks.append(img.astype(np.int32))
            count += len(nl)
            if count > cap:
                raise ResourceLimitError(
                    f"orbit ball exceeded node cap {cap}: {found} nodes found within "
                    f"radius {d}, and radius {d + 1} adds at least {count - found} more")
            new_lvl.append(nl)
            new_tid.append(nt)
        new_lvl = np.concatenate(new_lvl)
        if not len(new_lvl):
            break
        layers.append((new_lvl, np.concatenate(new_tid)))

    sizes = [len(lv) for lv, _ in layers]
    images = np.ascontiguousarray(np.concatenate(blocks).reshape(-1, len(gens)).T)
    distances = np.repeat(np.arange(len(layers), dtype=np.int32), sizes)
    return OrbitBall(
        base, gens, radius, tails, nodes,
        np.concatenate([lv for lv, _ in layers]),
        np.concatenate([t for _, t in layers]),
        distances, images,
    )


def h_orbit_partition(
    window: Iterable[int],
    gens: Sequence[GElement],
    radius: int,
    cap: int = 2_000_000,
) -> Dict[int, OrbitBall]:
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
    out: Dict[int, OrbitBall] = {}
    for n in window:
        n = int(n)
        ball = orbit_ball(Coset(n, IDENTITY), gens, radius, cap=cap)
        moved = np.flatnonzero(ball._level)
        if len(moved):
            raise RuntimeError(
                f"shift-0 orbit left level {n}: "
                f"reached level {n + int(ball._level[moved[0]])}"
            )
        out[n] = ball
    return out
