"""The numbering table shared by orbit balls and group closures."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from cosetlab._table import _Table
from cosetlab.cosets import Coset, orbit_ball
from cosetlab.finitegroup import congruence_group
from cosetlab.freegroup import IDENTITY
from cosetlab.spectral import free_generator_set

# Keys from a small alphabet, so that batches repeat keys and meet earlier
# ones; row keys have zero bytes anywhere, trailing ones included.
_INT_KEYS = st.integers(-3, 12) | st.sampled_from([-(1 << 62), 1 << 62])
_ROW_KEYS = st.lists(st.sampled_from([0, 1, 255]), min_size=3, max_size=3).map(bytes)
_CASES = st.sampled_from(["int64", "V3", "S3"]).flatmap(lambda dtype: st.tuples(
    st.just(dtype),
    st.lists(st.tuples(st.lists(_INT_KEYS if dtype == "int64" else _ROW_KEYS, max_size=12),
                       st.sampled_from(["commit", "rollback", "neither"])),
             min_size=1, max_size=6)))


# Batches whose new keys sort after every key before them, so that each
# merge (of a batch into the pending keys, and of those into the table) is
# an append, and batches whose keys interleave with them, merged by a sort.
# Row keys (V dtype) have no >: an append test written with it raised.
_APPENDING = [([7, 6], "neither"), ([9, 8, 7], "commit"), ([12, 10], "commit")]
_INTERLEAVED = [([3, 8, -3], "neither"), ([6, 4, 12], "commit"), ([-2, 7], "commit")]
_ROWS_APPENDING = [([b"\x01\x01\x00", b"\x01\x00\xff"], "neither"),
                   ([b"\xff\x00\x00", b"\x01\xff\x00", b"\x01\x01\x00"], "commit"),
                   ([b"\xff\xff\x00"], "commit")]
_ROWS_INTERLEAVED = [([b"\xff\x00\x00", b"\x00\x01\x00"], "neither"),
                     ([b"\x01\x00\xff", b"\xff\xff\xff"], "commit"),
                     ([b"\x00\x00\x00", b"\x01\xff\x00"], "commit")]


def _array(keys, dtype):
    if dtype == "int64":
        return np.array(keys, np.int64)
    return np.frombuffer(b"".join(keys), np.uint8).reshape(len(keys), 3).view(dtype).ravel()


def _raw(keys, dtype):
    """The keys as Python values; S scalars drop trailing zero bytes."""
    return keys.tolist() if dtype == "int64" else [k.tobytes() for k in keys.view("V3")]


@given(_CASES)
@settings(max_examples=150, deadline=None)
@example(("int64", _APPENDING))
@example(("int64", _INTERLEAVED))
@example(("S3", _ROWS_APPENDING))
@example(("S3", _ROWS_INTERLEAVED))
@example(("V3", _ROWS_APPENDING))
@example(("V3", _ROWS_INTERLEAVED))
def test_table_matches_a_dict_reference(case):
    dtype, steps = case
    seed = 5 if dtype == "int64" else b"\x01\x00\x00"
    table = _Table(_array([seed], dtype))
    committed, pending = {seed: 0}, {}
    universe = {seed}
    for batch, then in steps:
        universe.update(batch)
        want = []
        for key in batch:  # unseen keys get the next ids, by first occurrence
            if key not in committed and key not in pending:
                pending[key] = len(committed) + len(pending)
            want.append(committed.get(key, pending.get(key)))
        assert table.number(_array(batch, dtype)).tolist() == want
        assert len(table) == len(committed) + len(pending)
        if then == "commit":
            table.commit()
            if not pending:  # a commit with nothing to merge drops spare capacity
                assert len(table._keys) == len(table)
            committed.update(pending)
            pending = {}
        elif then == "rollback":
            pending = {}  # forgotten: their ids are given out again
            table.rollback()
        ids = {**committed, **pending}
        assert _raw(table.keys, dtype) == sorted(ids, key=ids.get)
        probe = sorted(universe | {b"\x00\x00\x00" if dtype != "int64" else -1})
        assert table.get(_array(probe, dtype)).tolist() == [ids.get(k, -1) for k in probe]


def test_finished_tables_hold_exactly_their_keys():
    # A table grows its id -> key array by doubling; a finished ball or
    # group keeps none of the spare capacity (the radius-12 free ball held
    # 74.8 MiB with it and 64.9 MiB without, traced).
    ball = orbit_ball(Coset(0, IDENTITY), tuple(free_generator_set(2)), 7)
    group = congruence_group(2, 7)
    for table in (ball._nodes, ball._tails, group._row_index):
        assert len(table._keys) == len(table) > 1
