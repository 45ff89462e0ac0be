"""The numbering table of the breadth-first closures: orbit balls number
their nodes and tails by int64 keys, group closures their elements by
fixed-width row bytes, an array of keys at a time."""

from __future__ import annotations

from ._lazy import lazy_import

np = lazy_import("numpy")


def _lookup(table, q: np.ndarray) -> np.ndarray:
    keys, vals = table  # not empty
    pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return np.where(keys[pos] == q, vals[pos], -1)


def _merge(table, keys: np.ndarray, vals: np.ndarray):
    if not len(table[0]):  # the first slice of a layer: no inserts
        return keys, vals
    pos = np.searchsorted(table[0], keys)
    return np.insert(table[0], pos, keys), np.insert(table[1], pos, vals)


class _Table:
    """Numbers distinct keys 0, 1, 2, ... by first occurrence, from the
    one-key array `key` for id 0, whose dtype all keys share: keys[i] is the
    key of id i, and a sorted index maps keys back to ids.  Keys numbered
    since the last commit() are pending until commit() merges them in, once
    per layer (a merge costs the size of the table); rollback() forgets them
    (an orbit ball's outer layer, for multi-letter words).  A commit with none
    pending, as at the end of a closure, trims keys."""

    __slots__ = ("_keys", "main", "new")

    def __init__(self, key: np.ndarray):
        self._keys = key.copy()  # grows by doubling; commit() cuts it to size
        self.main = (key.copy(), np.zeros(1, np.int64))  # (keys, ids)
        self.rollback()

    def __len__(self) -> int:
        return len(self.main[0]) + len(self.new[0])

    @property
    def keys(self) -> np.ndarray:
        return self._keys[:len(self)]

    @property
    def nbytes(self) -> int:
        return self._keys.nbytes + sum(a.nbytes for a in (*self.main, *self.new))

    def get(self, q: np.ndarray) -> np.ndarray:
        """The id of each key in q, or -1 where it is absent.  Sorted
        queries walk a table once: several times faster than random ones."""
        out = _lookup(self.main, q)
        if len(self.new[0]):
            miss = np.flatnonzero(out < 0)
            out[miss] = _lookup(self.new, q[miss])
        return out

    def number(self, q: np.ndarray) -> np.ndarray:
        """The id of each key in q; unseen keys are numbered len(self),
        len(self) + 1, ... by first occurrence in q, and are pending."""
        uniq, inv = np.unique(q, return_inverse=True)  # sorted: a fast lookup
        ids = self.get(uniq)
        new = np.flatnonzero(ids < 0)
        if len(new):
            first = np.full(len(uniq), len(q))
            np.minimum.at(first, inv, np.arange(len(q)))
            order = new[np.argsort(first[new])]
            start, end = len(self), len(self) + len(new)
            if end > len(self._keys):
                self._keys = np.resize(self._keys, max(end, 2 * start))
            self._keys[start:end] = uniq[order]
            ids[order] = np.arange(start, end)
            self.new = _merge(self.new, uniq[new], ids[new])
        return ids[inv]

    def commit(self) -> None:
        if len(self.new[0]):
            self.main = _merge(self.main, *self.new)
            self.rollback()
        elif len(self._keys) > len(self):
            self._keys = self._keys[:len(self)].copy()

    def rollback(self) -> None:
        self.new = (np.empty(0, self._keys.dtype), np.empty(0, np.int64))
