"""The numbering table of the breadth-first closures: orbit balls number
their nodes and tails by int64 keys, group closures their elements by
fixed-width row bytes, an array of keys at a time."""

from __future__ import annotations

from ._lazy import np


def _lookup(run, q: np.ndarray) -> np.ndarray:
    keys, ids = run  # not empty
    pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return np.where(keys[pos] == q, pos + ids if isinstance(ids, int) else ids[pos], -1)


def _merge(table, new):
    n = len(table[0])
    append = np.searchsorted(table[0], new[0][:1])[0] == n  # searchsorted: V keys have no >
    if append and isinstance(table[1], int) and isinstance(new[1], int):
        return None  # the two runs are one that is its own index
    (old, old_ids), (keys, ids) = ((k, np.arange(i, i + len(k), dtype=np.int32)
                                    if isinstance(i, int) else i) for k, i in (table, new))
    out = np.empty(n + len(keys), old.dtype), np.empty(n + len(keys), np.int32)
    at, rest = slice(n, None), slice(n)  # the new keys sort last: an append
    if not append:
        at = np.searchsorted(old, keys)
        at += np.arange(len(keys))  # in place: a third run-length array cost RSS
        rest = np.ones(len(out[0]), bool)
        rest[at] = False
    for o, add, kept in zip(out, (keys, ids), (old, old_ids)):
        o[at], o[rest] = add, kept
    return out


class _Table:
    """Numbers distinct keys 0, 1, 2, ... by first occurrence, from the
    one-key array `key` for id 0, whose dtype all keys share: keys[i] is the
    key of id i.  Keys numbered since the last commit() are pending until
    commit() merges them in, once per layer; rollback() forgets them (an
    orbit ball's outer layer, for multi-letter words).  Committed and pending
    keys are each a run, its own index while sorted in id order (an id is its
    key's position): appending to it copies nothing.  Once unsorted, a run
    keeps its keys sorted with their ids, and merges place new keys by binary
    search (runs share no key).  Orbit balls pack keys so that a layer's new
    keys mostly sort last (see cosets).  A commit with none pending trims keys.

    Ids are int32.  An orbit ball raises once it holds more than TAIL_LIMIT
    = 2^31 tails, and IMAGE_LIMIT = 2^23 bounds its nodes; a group closure
    raises once it holds more than CLOSURE_BYTES, long before 2^31 rows.
    Each check follows a batch of at most one slice, so an id that wraps
    past 2^31 - 1 never outlives the batch that raises."""

    __slots__ = ("_keys", "_cut", "_len", "main", "new")

    def __init__(self, key: np.ndarray):
        self._keys = key.copy()  # grows by doubling; commit() cuts it to size
        self._cut, self.main = 1, None  # committed keys; main, new: (keys, ids) or None
        self.rollback()

    def __len__(self) -> int:
        return self._len

    @property
    def keys(self) -> np.ndarray:
        return self._keys[:len(self)]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self._keys, *(self.main or ()), *(self.new or ())))

    def _runs(self):  # a run that is its own index as (its keys, the id of its first)
        cut = self._cut
        return self.main or (self._keys[:cut], 0), self.new or (self._keys[cut:len(self)], cut)

    def get(self, q: np.ndarray) -> np.ndarray:
        """The id of each key in q, or -1 where it is absent.  Sorted
        queries walk a table once: several times faster than random ones."""
        out = _lookup(self._runs()[0], q)
        if len(self) > self._cut:
            miss = np.flatnonzero(out < 0)
            out[miss] = _lookup(self._runs()[1], q[miss])
        return out

    def number(self, q: np.ndarray) -> np.ndarray:
        """The id of each key in q; unseen keys are numbered len(self),
        len(self) + 1, ... by first occurrence in q, and are pending."""
        # sorted, for a fast lookup, with each key's first position in q
        uniq, first, inv = np.unique(q, return_index=True, return_inverse=True)
        ids = self.get(uniq)
        new = np.flatnonzero(ids < 0)
        if len(new):
            order = new[np.argsort(first[new])]
            start, end = len(self), len(self) + len(new)
            if end > len(self._keys):  # unwritten: np.resize would write every new page
                self._keys = np.pad(self.keys, (0, max(end, 2 * start) - start), mode="empty")
            self._keys[start:end] = uniq[order]
            ids[order] = np.arange(start, end)  # in id order, sorted keys are their own index
            run = uniq[new], start if (order == new).all() else ids[new]
            self.new, self._len = _merge(self._runs()[1], run), end
        return ids[inv]

    def commit(self) -> None:
        if len(self) > self._cut:
            self.main, self._cut = _merge(*self._runs()), len(self)
            self.rollback()
        elif len(self._keys) > len(self):
            self._keys.resize(len(self))  # in place; raises while a view of the keys is alive

    def rollback(self) -> None:
        self._len, self.new = self._cut, None
