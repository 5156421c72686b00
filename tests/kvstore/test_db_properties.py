"""Property-based model tests: the DB must behave like a dict with order.

Random operation sequences (puts, deletes, gets, flushes, compactions,
reopens) run against both the DB and a plain dict; every observable read
must agree, the second read of a key (served by the row cache) included.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kvstore import DB, DBOptions, WriteBatch

_keys = st.binary(min_size=1, max_size=6)
_values = st.binary(max_size=40)

_op = st.one_of(
    st.tuples(st.just("put"), _keys, _values),
    st.tuples(st.just("delete"), _keys, st.just(b"")),
    st.tuples(st.just("get"), _keys, st.just(b"")),
    st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
    st.tuples(st.just("reopen"), st.just(b""), st.just(b"")),
)


def tiny_options():
    return DBOptions(
        memtable_size_bytes=512,
        level_base_bytes=2 * 1024,
        l0_compaction_trigger=2,
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_op, max_size=60))
def test_db_matches_dict_model(tmp_path_factory, ops):
    directory = str(tmp_path_factory.mktemp("dbprop"))
    db = DB.open(directory, tiny_options())
    model: dict[bytes, bytes] = {}
    try:
        for op, key, value in ops:
            if op == "put":
                db.put(key, value)
                model[key] = value
            elif op == "delete":
                db.delete(key)
                model.pop(key, None)
            elif op == "get":
                assert db.get(key) == model.get(key)
                assert db.get(key) == model.get(key)
            elif op == "flush":
                db.flush()
            elif op == "reopen":
                db.close()
                db = DB.open(directory, tiny_options())
        for key, expected in model.items():
            assert db.get(key) == expected
            assert db.get(key) == expected
        assert dict(db.iterate()) == model
        assert [k for k, _ in db.iterate()] == sorted(model)
    finally:
        db.close()


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(_keys, _values), min_size=1, max_size=40))
def test_batch_atomicity_across_reopen(tmp_path_factory, pairs):
    directory = str(tmp_path_factory.mktemp("dbbatch"))
    batch = WriteBatch()
    for key, value in pairs:
        batch.put(key, value)
    with DB.open(directory, tiny_options()) as db:
        db.write(batch)
    expected = {key: value for key, value in pairs}  # last write per key wins
    with DB.open(directory, tiny_options()) as db:
        for key, value in expected.items():
            assert db.get(key) == value
