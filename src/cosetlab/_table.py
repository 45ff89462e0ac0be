"""The numbering table of the breadth-first closures: orbit balls number
their nodes and tails by int64 keys, group closures their elements by
fixed-width row bytes, an array of keys at a time."""

from __future__ import annotations

from ._lazy import np


def _lookup(table, q: np.ndarray) -> np.ndarray:
    keys, vals = table  # not empty
    pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return np.where(keys[pos] == q, vals[pos], -1)


def _merge(table, keys: np.ndarray, vals: np.ndarray):
    n = len(table[0])
    if not n:  # the first slice of a layer: nothing to merge
        return keys, vals
    # The runs share no key (a key is pending only while the table lacks it).
    # searchsorted, not >: row keys (V dtype) have no comparison ufuncs.
    out = tuple(np.empty(n + len(keys), a.dtype) for a in table)
    at, rest = slice(n, None), slice(n)  # the new keys sort last: an append
    if np.searchsorted(table[0], keys[:1])[0] < n:
        at = np.searchsorted(table[0], keys)
        at += np.arange(len(keys))  # in place: a third run-length array cost RSS
        rest = np.ones(len(out[0]), bool)
        rest[at] = False
    for o, old, new in zip(out, table, (keys, vals)):
        o[at], o[rest] = new, old
    return out


class _Table:
    """Numbers distinct keys 0, 1, 2, ... by first occurrence, from the
    one-key array `key` for id 0, whose dtype all keys share: keys[i] is the
    key of id i, and a sorted index maps keys back to ids.  Keys numbered
    since the last commit() are pending until commit() merges them in, once
    per layer; rollback() forgets them (an orbit ball's outer layer, for
    multi-letter words).  A merge whose keys all sort after the table's
    appends them; any other places the new keys by binary search and the
    old around them, with no sort.  Orbit balls pack their keys so that a
    layer's new keys mostly sort last (see cosets).  A commit with none
    pending, as at the end of a closure, trims keys.

    Ids are int32.  An orbit ball raises once it holds more than TAIL_LIMIT
    = 2^31 tails, and IMAGE_LIMIT = 2^23 bounds its nodes; a group closure
    raises once it holds more than CLOSURE_BYTES, long before 2^31 rows.
    Each check follows a batch of at most one slice, so an id that wraps
    past 2^31 - 1 never outlives the batch that raises."""

    __slots__ = ("_keys", "main", "new")

    def __init__(self, key: np.ndarray):
        self._keys = key.copy()  # grows by doubling; commit() cuts it to size
        self.main = (key.copy(), np.zeros(1, np.int32))  # (keys, ids)
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
        self.new = (np.empty(0, self._keys.dtype), np.empty(0, np.int32))
