"""Unit and property tests for storage backends.

The key property: MemoryBackend and KVBackend must be observationally
identical under any operation sequence.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ids import ObjectId
from repro.core.keyspace import OBJECT_PREFIX_WIDTH, object_prefix, prefix_end
from repro.core.storage import KVBackend, MemoryBackend
from repro.kvstore import DB, WriteBatch
from repro.serverless.storage_client import RecordingStorage, StorageOp
from repro.wasm.host_api import OpCosts


def batch_of(*ops):
    batch = WriteBatch()
    for op in ops:
        if len(op) == 2:
            batch.put(*op)
        else:
            batch.delete(op[0])
    return batch


def test_memory_get_put():
    backend = MemoryBackend()
    backend.apply(batch_of((b"k", b"v")))
    assert backend.get(b"k") == b"v"
    assert backend.get(b"missing") is None


def test_memory_delete():
    backend = MemoryBackend()
    backend.apply(batch_of((b"k", b"v")))
    backend.apply(batch_of((b"k",)))
    assert backend.get(b"k") is None
    assert len(backend) == 0


def test_memory_iterate_sorted_with_bounds():
    backend = MemoryBackend()
    backend.apply(batch_of((b"c", b"3"), (b"a", b"1"), (b"b", b"2"), (b"d", b"4")))
    assert [k for k, _ in backend.iterate(b"b", b"d")] == [b"b", b"c"]
    assert [k for k, _ in backend.iterate(b"", None)] == [b"a", b"b", b"c", b"d"]


def test_memory_sequence_increases_per_op():
    backend = MemoryBackend()
    backend.apply(batch_of((b"a", b"1")))
    assert backend.puts + backend.deletes == 1
    backend.apply(batch_of((b"b", b"2"), (b"a",)))
    assert (backend.puts, backend.deletes, backend.applies) == (2, 1, 2)


def test_memory_size_bytes():
    backend = MemoryBackend()
    backend.apply(batch_of((b"key", b"value")))
    assert backend.size_bytes() == len(b"key") + len(b"value")


def test_kv_backend_delegates(tmp_path):
    with DB.open(str(tmp_path / "db")) as db:
        backend = KVBackend(db)
        backend.apply(batch_of((b"k", b"v")))
        assert backend.get(b"k") == b"v"
        assert [k for k, _ in backend.iterate(b"", None)] == [b"k"]
        assert db.last_sequence >= 1


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.binary(min_size=1, max_size=5), st.binary(max_size=10)),
        st.tuples(st.just("del"), st.binary(min_size=1, max_size=5), st.just(b"")),
    ),
    max_size=40,
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ops)
def test_backends_observationally_equal(tmp_path_factory, ops):
    directory = str(tmp_path_factory.mktemp("kv"))
    memory = MemoryBackend()
    with DB.open(directory) as db:
        kv = KVBackend(db)
        for op, key, value in ops:
            batch = WriteBatch()
            if op == "put":
                batch.put(key, value)
            else:
                batch.delete(key)
            memory.apply(batch)
            second = WriteBatch()
            if op == "put":
                second.put(key, value)
            else:
                second.delete(key)
            kv.apply(second)
        assert list(memory.iterate(b"", None)) == list(kv.iterate(b"", None))
        for _, key, _ in ops:
            assert memory.get(key) == kv.get(key)


# -- the per-object key index ------------------------------------------------
#
# Keys shaped like the runtime's (``o/<oid>/...``) share one index bucket per
# object; the ≤5-byte keys above never share one.

_OIDS = [ObjectId.from_name(f"storage-test-{n}") for n in range(4)]
_SUFFIXES = [b"", b"m", b"v/name", b"n/log", b"c/log/01", b"c/log/02", b"c/log/03", b"c/tags/x"]
#: one byte under the bucket width, at it (suffix ``b""`` above) and over
#: it, plus keys outside the layout altogether
_OBJECT_KEYS = [object_prefix(oid) + suffix for oid in _OIDS for suffix in _SUFFIXES]
_ODD_KEYS = [object_prefix(oid)[:-1] for oid in _OIDS] + [b"a", b"o", b"o/", b"p/zzz", b"\xff"]
_KEYS = sorted(_OBJECT_KEYS + _ODD_KEYS)
#: bounds inside a bucket, between buckets, before and after everything
_BOUNDS = _KEYS + [prefix_end(object_prefix(oid)) for oid in _OIDS] + [b"", b"o/5", b"\xff\xff"]


def test_index_constants_sit_around_the_bucket_width():
    lengths = {len(key) for key in _KEYS}
    assert {OBJECT_PREFIX_WIDTH - 1, OBJECT_PREFIX_WIDTH, OBJECT_PREFIX_WIDTH + 1} <= lengths


def _assert_gets_match(backend, model):
    for key in _KEYS:
        assert backend.get(key) == model.get(key), key


def _expected(model, start, end):
    return [
        (key, model[key])
        for key in sorted(model)
        if key >= start and (end is None or key < end)
    ]


_index_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(_KEYS), st.binary(max_size=6)),
        st.tuples(st.just("del"), st.sampled_from(_KEYS), st.none()),
        st.tuples(
            st.just("scan"),
            st.sampled_from(_BOUNDS),
            st.one_of(st.none(), st.sampled_from(_BOUNDS)),
        ),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(_index_ops, st.integers(min_value=1, max_value=4))
def test_index_matches_sorted_dict(ops, batch_size):
    """Random interleavings of put / delete / iterate over object-shaped
    keys, several ops to a batch: every scan yields exactly what
    ``sorted(dict)`` restricted to ``[start, end)`` yields, and after
    every batch ``get`` returns what the dict holds for every key."""
    backend = MemoryBackend()
    model = {}
    batch = WriteBatch()

    def apply_batch():
        backend.apply(batch)
        _assert_gets_match(backend, model)
        return WriteBatch()

    for op, first, second in ops:
        if op == "scan":
            batch = apply_batch()
            assert list(backend.iterate(first, second)) == _expected(model, first, second)
            continue
        if op == "put":
            batch.put(first, second)
            model[first] = second
        else:
            batch.delete(first)
            model.pop(first, None)
        if len(batch) >= batch_size:
            batch = apply_batch()
    apply_batch()
    assert list(backend.iterate(b"", None)) == _expected(model, b"", None)
    assert len(backend) == len(model)
    assert backend.puts + backend.deletes == sum(1 for op, _f, _s in ops if op != "scan")


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_index_ops)
def test_index_matches_kv_backend(tmp_path_factory, ops):
    memory = MemoryBackend()
    with DB.open(str(tmp_path_factory.mktemp("kv-index"))) as db:
        kv = KVBackend(db)
        for op, first, second in ops:
            if op == "scan":
                assert list(memory.iterate(first, second)) == list(kv.iterate(first, second))
                continue
            if op == "put":
                memory.apply(batch_of((first, second)))
                kv.apply(batch_of((first, second)))
            else:
                memory.apply(batch_of((first,)))
                kv.apply(batch_of((first,)))
            for key in _KEYS:
                assert memory.get(key) == kv.get(key), key
        assert list(memory.iterate(b"", None)) == list(kv.iterate(b"", None))


def test_index_bucket_emptied_then_recreated():
    backend = MemoryBackend()
    home, other = object_prefix(_OIDS[0]), object_prefix(_OIDS[1])
    backend.apply(batch_of((home + b"v/b", b"1"), (home + b"v/a", b"2"), (other + b"m", b"3")))
    backend.apply(batch_of((home + b"v/a",), (home + b"v/b",), (home + b"missing",)))
    assert [key for key, _ in backend.iterate(b"", None)] == [other + b"m"]
    assert list(backend.iterate(home, prefix_end(home))) == []
    backend.apply(batch_of((home + b"v/z", b"4"), (home + b"c/x", b"5")))
    assert [key for key, _ in backend.iterate(home, prefix_end(home))] == [
        home + b"c/x",
        home + b"v/z",
    ]
    assert [key for key, _ in backend.iterate(b"", None)] == sorted(
        [home + b"c/x", home + b"v/z", other + b"m"]
    )


def test_index_short_key_then_the_longer_key_it_prefixes():
    """One batch puts a key shorter than the bucket width, then a longer
    key it is a proper prefix of (another bucket), then overwrites the
    short key: each write lands in its own key's bucket."""
    short = object_prefix(_OIDS[0])[:-1]
    longer = short + b"/v/name"
    assert len(short) < OBJECT_PREFIX_WIDTH < len(longer)
    backend = MemoryBackend()
    backend.apply(batch_of((short, b"1"), (longer, b"2"), (short, b"3")))
    model = {short: b"3", longer: b"2"}
    _assert_gets_match(backend, model)
    assert list(backend.iterate(b"", None)) == _expected(model, b"", None)
    assert len(backend) == 2


def test_index_recorded_sequence_counters():
    """A fixed sequence of batches, gets and scans leaves the counters,
    the op total and the sizes at the values the blocked-list index
    of the parent commit (PR 17) left them at."""
    rng = random.Random(18)
    backend = MemoryBackend()
    scanned = 0
    for _round in range(200):
        batch = WriteBatch()
        for _op in range(rng.randrange(0, 6)):
            key = rng.choice(_KEYS)
            if rng.random() < 0.3:
                batch.delete(key)
            else:
                batch.put(key, b"x" * rng.randrange(0, 12))
        backend.apply(batch)
        for _get in range(rng.randrange(0, 3)):
            backend.get(rng.choice(_KEYS))
        if rng.random() < 0.25:
            start = rng.choice(_BOUNDS)
            scanned += sum(len(value) + 1 for _key, value in backend.iterate(start, None))
    assert (backend.applies, backend.puts, backend.deletes, backend.gets) == (200, 357, 137, 209)
    assert (backend.puts + backend.deletes, len(backend), backend.size_bytes(), scanned) == (
        494,
        28,
        1082,
        4044,
    )


def test_iterate_suspended_across_apply_never_tears_order():
    """The iteration contract: a bucket is snapshotted when the scan
    reaches it, and the next bucket is looked up afresh — so a generator
    suspended across an apply yields the rest of its bucket as it was and
    later buckets as they are, keys strictly increasing throughout."""
    a, b, c, d = (object_prefix(oid) for oid in sorted(_OIDS))
    backend = MemoryBackend()
    backend.apply(
        batch_of(
            (a + b"k1", b"a1"), (a + b"k3", b"a3"), (a + b"k5", b"a5"),
            (c + b"k1", b"c1"), (c + b"k2", b"c2"),
            (d + b"k1", b"d1"),
        )
    )
    scan = backend.iterate(b"", None)
    assert next(scan) == (a + b"k1", b"a1")
    backend.apply(
        batch_of(
            (a + b"k0", b"new"),  # behind the cursor, in the bucket being read
            (a + b"k4", b"new"),  # ahead of it, same bucket
            (a + b"k5", b"changed"),
            (a + b"k3",),  # not yet yielded, now deleted
            (b"a", b"new"),  # a bucket behind the cursor
            (b + b"k1", b"new"),  # a bucket that did not exist, ahead of it
            (c + b"k0", b"new"),  # a later bucket changes before it is reached
            (c + b"k2",),
            (d + b"k1",),  # a later bucket disappears
        )
    )
    rest = list(scan)
    assert rest == [
        (a + b"k3", b"a3"), (a + b"k5", b"a5"),  # bucket a as of when it was reached
        (b + b"k1", b"new"),
        (c + b"k0", b"new"), (c + b"k1", b"c1"),
    ]
    keys = [a + b"k1"] + [key for key, _ in rest]
    assert keys == sorted(set(keys))
    assert [key for key, _ in backend.iterate(b"", None)] == sorted(
        [b"a", a + b"k0", a + b"k1", a + b"k4", a + b"k5", b + b"k1", c + b"k0", c + b"k1"]
    )


# -- tail: the newest pairs of a range -----------------------------------------
#
# ``tail(start, end, n)`` must equal ``list(iterate(start, end))[::-1][:n]``
# on every backend, for n = 0, 1, the exact length and more than the range.


def _limits(length, extra=()):
    return sorted({0, 1, length, length + 1, length + 5, *extra})


def _collection_keys(oid, count, field=b"log"):
    return [object_prefix(oid) + b"c/" + field + b"/%020d" % n for n in range(1, count + 1)]


def _collection_range(oid, field=b"log"):
    prefix = object_prefix(oid) + b"c/" + field + b"/"
    return prefix, prefix_end(prefix)


@settings(max_examples=150, deadline=None)
@given(_index_ops, st.integers(min_value=0, max_value=8))
def test_memory_tail_matches_reversed_scan(ops, drawn):
    """Each scan op asks for tails before any ``iterate`` of its range."""
    backend = MemoryBackend()
    model = {}
    for op, first, second in ops:
        if op == "scan":
            expected = _expected(model, first, second)[::-1]
            for n in _limits(len(expected), (drawn,)):
                assert backend.tail(first, second, n) == expected[:n]
            assert list(backend.iterate(first, second))[::-1] == expected
        elif op == "put":
            backend.apply(batch_of((first, second)))
            model[first] = second
        else:
            backend.apply(batch_of((first,)))
            model.pop(first, None)


def test_memory_tail_after_unsorted_appends():
    rng = random.Random(35)
    backend = MemoryBackend()
    keys = _collection_keys(_OIDS[0], 20) + _collection_keys(_OIDS[1], 7)
    rng.shuffle(keys)
    for key in keys:
        backend.apply(batch_of((key, key[-2:])))
    start, end = _collection_range(_OIDS[0])
    newest = [(key, key[-2:]) for key in sorted(_collection_keys(_OIDS[0], 20), reverse=True)]
    assert backend.tail(start, end, 3) == newest[:3]  # out-of-order puts inserted in place
    for n in _limits(20):
        assert backend.tail(start, end, n) == newest[:n]
    assert backend.tail(start, end, 20) == list(backend.iterate(start, end))[::-1]


def test_tail_of_an_absent_prefix_is_empty(tmp_path):
    backend = MemoryBackend()
    backend.apply(batch_of(*[(key, b"v") for key in _collection_keys(_OIDS[0], 5)]))
    absent = _collection_range(_OIDS[3])
    other_field = _collection_range(_OIDS[0], field=b"tags")
    with DB.open(str(tmp_path / "db")) as db:
        kv = KVBackend(db)
        kv.apply(batch_of(*[(key, b"v") for key in _collection_keys(_OIDS[0], 5)]))
        for store in (backend, kv, RecordingStorage([backend])):
            for start, end in (absent, other_field):
                for n in (0, 1, 10):
                    assert store.tail(start, end, n) == []


def test_kv_tail_merges_memtable_and_sstables(tmp_path):
    rng = random.Random(35)
    flushed = _collection_keys(_OIDS[0], 30) + _collection_keys(_OIDS[1], 10)
    with DB.open(str(tmp_path / "db")) as db:
        kv = KVBackend(db)
        for key in flushed:
            kv.apply(batch_of((key, b"old")))
        db.flush()
        tables = db.level_file_counts()
        assert sum(tables) >= 1
        # memtable: new appends past the flushed ones, overwrites and
        # deletes of flushed entries
        later = _collection_keys(_OIDS[0], 36)[30:]
        for key in later:
            kv.apply(batch_of((key, b"new")))
        for key in rng.sample(flushed, 8):
            kv.apply(batch_of((key,)))
        for key in rng.sample(flushed, 8):
            kv.apply(batch_of((key, b"overwritten")))
        assert db.level_file_counts() == tables  # the rest sits in the memtable
        for oid in _OIDS[:3]:
            start, end = _collection_range(oid)
            full = list(kv.iterate(start, end))
            for n in _limits(len(full), (7, 33)):
                assert kv.tail(start, end, n) == full[::-1][:n]
        full = list(kv.iterate(b"", None))
        for n in _limits(len(full), (12,)):
            assert kv.tail(b"", None, n) == full[::-1][:n]


def test_recording_storage_tail_records_the_full_scan():
    """The disaggregated baseline's cost model does not see the limit:
    a remote store ships the whole range either way."""
    backend = MemoryBackend()
    keys = _collection_keys(_OIDS[0], 20)
    backend.apply(batch_of(*[(key, b"post-%02d" % n) for n, key in enumerate(keys)]))
    costs = OpCosts()
    storage = RecordingStorage([backend], costs)
    start, end = _collection_range(_OIDS[0])
    full = list(storage.iterate(start, end))
    size = sum(len(key) + len(value) for key, value in full)
    whole = StorageOp(
        "scan",
        costs.kv_get + costs.collection_scan_per_item * 20 + costs.payload(size),
        size,
        True,
    )
    for n in _limits(len(full), (10,)):
        assert storage.tail(start, end, n) == full[::-1][:n]
        scan = storage.begin_trace()
        list(storage.iterate(start, end))
        limited = storage.begin_trace()
        storage.tail(start, end, n)
        storage.end_trace()
        assert scan == limited == [whole]
