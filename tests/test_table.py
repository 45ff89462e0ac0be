"""The numbering table shared by orbit balls and group closures."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from cosetlab._table import _Table
from cosetlab.cosets import Coset, act, orbit_ball
from cosetlab.finitegroup import congruence_group
from cosetlab.freegroup import IDENTITY, parse_gelement
from cosetlab.spectral import GenSet, free_generator_set

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
# an append; batches whose keys interleave with them; batches that sort
# wholly before them; and batches with keys at both ends of them.  Row keys
# (V dtype) have no >: an append test written with it raised.
_APPENDING = [([7, 6], "neither"), ([9, 8, 7], "commit"), ([12, 10], "commit")]
_INTERLEAVED = [([3, 8, -3], "neither"), ([6, 4, 12], "commit"), ([-2, 7], "commit")]
_ROWS_APPENDING = [([b"\x01\x01\x00", b"\x01\x00\xff"], "neither"),
                   ([b"\xff\x00\x00", b"\x01\xff\x00", b"\x01\x01\x00"], "commit"),
                   ([b"\xff\xff\x00"], "commit")]
_ROWS_INTERLEAVED = [([b"\xff\x00\x00", b"\x00\x01\x00"], "neither"),
                     ([b"\x01\x00\xff", b"\xff\xff\xff"], "commit"),
                     ([b"\x00\x00\x00", b"\x01\xff\x00"], "commit")]
_BEFORE = [([7, 9], "commit"), ([2, 1], "neither"), ([-3, 0, 2], "commit")]
_BOTH_ENDS = [([-3, 12], "commit"), ([1 << 62, 4, -(1 << 62)], "commit")]
_ROWS_BEFORE = [([b"\x01\xff\x00", b"\x01\x01\x00"], "commit"),
                ([b"\x00\xff\x00"], "neither"),
                ([b"\x00\x00\x01", b"\x01\x00\x00", b"\x00\x01\x00"], "commit")]
_ROWS_BOTH_ENDS = [([b"\xff\xff\xff", b"\x00\x00\x00"], "commit"),
                   ([b"\x00\x00\xff", b"\x01\x00\xff", b"\xff\x00\x00"], "commit")]

# A run whose keys sort in id order is its own index.  The pending run turns
# indexed inside a layer (a batch not in first-occurrence order), and the
# committed run at a commit (pending keys that sort before it); each turn is
# followed by a rollback and by a batch appended to the committed run.
_TURNS = [([6, 7], "commit"), ([8, 9], "neither"), ([11, 10], "neither"),
          ([12], "rollback"), ([8, 9], "commit"), ([3, 4], "commit"),
          ([10], "rollback"), ([10, 12], "commit")]
_ROWS_TURNS = [([b"\x01\x00\xff", b"\x01\x01\x00"], "commit"),
               ([b"\x01\xff\x00", b"\xff\x00\x00"], "neither"),
               ([b"\xff\xff\x00", b"\xff\x00\xff"], "neither"),
               ([b"\xff\xff\xff"], "rollback"),
               ([b"\x01\xff\x00", b"\xff\x00\x00"], "commit"),
               ([b"\x00\x00\xff", b"\x00\x01\x00"], "commit"),
               ([b"\xff\xff\x00"], "rollback"),
               ([b"\xff\x01\x00", b"\xff\xff\x00"], "commit")]
# (committed run, pending run) after each step of _TURNS: True where the
# run is its own index
_TURN_STATES = [(True, True), (True, True), (True, False), (True, True), (True, True),
                (False, True), (False, True), (False, True)]


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
@example(("int64", _BEFORE))
@example(("int64", _BOTH_ENDS))
@example(("V3", _ROWS_BEFORE))
@example(("V3", _ROWS_BOTH_ENDS))
@example(("int64", _TURNS))
@example(("S3", _ROWS_TURNS))
@example(("V3", _ROWS_TURNS))
def test_table_matches_a_dict_reference(case):
    _check_against_a_dict(*case)


def _check_against_a_dict(dtype, steps):
    """Runs steps on a table and on a dict; returns, after each step,
    whether the committed and the pending run are their own index."""
    seed = 5 if dtype == "int64" else b"\x01\x00\x00"
    table, states = _Table(_array([seed], dtype)), []
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
        keys = _raw(table.keys, dtype)
        assert keys == sorted(ids, key=ids.get)
        probe = sorted(universe | {b"\x00\x00\x00" if dtype != "int64" else -1})
        assert table.get(_array(probe, dtype)).tolist() == [ids.get(k, -1) for k in probe]
        states.append((table.main is None, table.new is None))
        for run, own in zip((keys[:len(committed)], keys[len(committed):]), states[-1]):
            assert not own or run == sorted(run)  # a run that is its own index is sorted
    return states


def test_a_run_keeps_an_index_only_once_it_stops_being_sorted():
    for dtype, steps in (("int64", _TURNS), ("S3", _ROWS_TURNS), ("V3", _ROWS_TURNS)):
        assert _check_against_a_dict(dtype, steps) == _TURN_STATES, dtype


def test_finished_tables_hold_exactly_their_keys():
    # A table grows its id -> key array by doubling; a finished ball or
    # group keeps none of the spare capacity (the radius-12 free ball held
    # 74.8 MiB with it and 64.9 MiB without, traced).
    ball = orbit_ball(Coset(0, IDENTITY), tuple(free_generator_set(2)), 7)
    group = congruence_group(2, 7)
    for table in (ball._nodes, ball._tails, group._row_index):
        assert len(table._keys) == len(table) > 1


def test_tables_of_free_balls_are_their_own_index():
    # every merge of these balls appends, so each table holds its keys once:
    # no sorted copy and no ids beside them (2.5 times the bytes while each
    # kept both)
    for k, radius in ((2, 10), (3, 7)):
        ball = orbit_ball(Coset(0, IDENTITY), free_generator_set(k).elements, radius)
        for table in (ball._nodes, ball._tails):
            assert table.nbytes == table.keys.nbytes
            assert (table.get(table.keys) == np.arange(len(table))).all()


def test_tables_of_a_shifted_ball_match_the_coset_action():
    # t moves a node without a new tail, so a layer's node keys interleave
    # with the table's: both tables keep a sorted copy and ids
    gens = GenSet.symmetrized(map(parse_gelement, ("t", "x777"))).elements
    ball = orbit_ball(Coset(777, IDENTITY), gens, 12)
    assert len(ball) == 128_649
    for table in (ball._nodes, ball._tails):
        assert table.main is not None and table.nbytes > table.keys.nbytes
        assert (table.get(table.keys) == np.arange(len(table))).all()
    for i in range(0, len(ball), 127):  # every node's images by act, on a sample
        node = ball.node(i)
        assert ball.find(node) == i
        for g, row in zip(gens, ball.gen_images):
            assert ball.find(act(g, node)) == (int(row[i]) if row[i] >= 0 else None)
