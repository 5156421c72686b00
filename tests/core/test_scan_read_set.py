"""What a collection scan puts in its read set, and why that is enough.

A newest-first scan with a limit (GetTimeline's shape) records the
collection's version stamp and the entries it returns, nothing else.
Every mutation of a collection bumps the stamp, so each mutation below
must still invalidate the cached result, and the cached runtime must
answer exactly what a cache-off runtime answers.
"""

import pytest

from repro.core import LocalRuntime, keyspace
from repro.errors import UnknownObjectError

from tests.core.conftest import make_notebook_type

NOTES = 20
LIMIT = 3


def _runtime(enable_cache=True):
    rt = LocalRuntime(seed=7, enable_cache=enable_cache)
    rt.register_type(make_notebook_type())
    return rt


def _notebook(rt, notes=NOTES):
    oid = rt.create_object("Notebook")
    keys = [rt.invoke(oid, "add_note", f"note {n}") for n in range(notes)]
    return oid, keys


def _newest(rt, oid):
    return rt.invoke_detailed(oid, "list_notes", LIMIT, True)


def test_limited_reverse_scan_reads_the_stamp_and_what_it_returns():
    rt = _runtime()
    oid, keys = _notebook(rt)
    result = _newest(rt, oid)
    newest = [(key, f"note {n}") for n, key in enumerate(keys)][::-1]
    assert result.value == newest[:LIMIT]
    returned = {keyspace.collection_key(oid, "notes", key) for key, _text in result.value}
    assert set(result.read_set) == {keyspace.counter_key(oid, "notes")} | returned
    assert len(result.read_set) == 1 + LIMIT


def test_unlimited_scan_still_reads_every_entry():
    rt = _runtime()
    oid, _keys = _notebook(rt)
    result = rt.invoke_detailed(oid, "list_notes", None, True)
    assert len(result.value) == NOTES
    assert len(result.read_set) == 1 + NOTES


def _append(rt, oid, keys):
    rt.invoke(oid, "add_note", "newest")


def _put(rt, oid, keys):
    rt.invoke(oid, "set_note", "~sorts-last", "put")


def _delete_unreturned(rt, oid, keys):
    rt.invoke(oid, "remove_note", keys[0])  # the oldest: never returned


@pytest.mark.parametrize("mutate", [_append, _put, _delete_unreturned])
def test_every_collection_mutation_invalidates_the_cached_scan(mutate):
    cached, plain = _runtime(), _runtime(enable_cache=False)
    (oid, keys), (plain_oid, _) = _notebook(cached), _notebook(plain)
    assert oid == plain_oid
    assert _newest(cached, oid).value == _newest(plain, oid).value
    assert _newest(cached, oid).cache_hit
    before = cached.cache.stats.invalidations
    mutate(cached, oid, keys)
    mutate(plain, oid, keys)
    assert cached.cache.stats.invalidations == before + 1
    after = _newest(cached, oid)
    assert not after.cache_hit
    assert after.value == _newest(plain, oid).value
    assert _newest(cached, oid).cache_hit


def test_delete_object_invalidates_the_cached_scan():
    cached, plain = _runtime(), _runtime(enable_cache=False)
    (oid, _keys), _ = _notebook(cached), _notebook(plain)
    _newest(cached, oid)
    assert len(cached.cache) == 1
    for rt in (cached, plain):
        rt.delete_object(oid)
    assert len(cached.cache) == 0
    for rt in (cached, plain):
        with pytest.raises(UnknownObjectError):
            _newest(rt, oid)
    # the same id again, with fewer notes: nothing of the old one is served
    for rt in (cached, plain):
        rt.create_object("Notebook", object_id=oid)
        rt.invoke(oid, "add_note", "reborn")
    after = _newest(cached, oid)
    assert not after.cache_hit
    assert after.value == _newest(plain, oid).value == [(after.value[0][0], "reborn")]

