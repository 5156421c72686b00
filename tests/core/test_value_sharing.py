"""A request's equal values are one ``bytes`` object.

:meth:`WriteSet.put` swaps each encoded value for the first equal one
written in the same request, the request's nested invocations included,
and :meth:`LocalRuntime.build_create_batch` does the same within one
creation batch.  The table behind it belongs to the request's write sets
and is out of the guest's reach.
"""

import tracemalloc

from repro.apps.retwis import user_type
from repro.core import CollectionField, LocalRuntime, ObjectType, keyspace, method
from repro.core.ids import ObjectId

FOLLOWERS = 40
POSTS = 25
TEXT = "x" * 1000
#: bytes a Post may leave live per timeline or posts entry it writes: the
#: key, its list slots and a share of the post (1,196.0 measured without
#: the sharing, 146.0 with it)
BYTES_PER_ENTRY = 400


def _runtime():
    rt = LocalRuntime(seed=3, enable_cache=False)
    rt.register_type(user_type())
    return rt


def _entries(rt, oid, field):
    prefix = keyspace.collection_prefix(oid, field)
    return [value for _key, value in rt.storage.iterate(prefix, keyspace.prefix_end(prefix))]


def test_a_creation_batch_holds_equal_values_once():
    rt = _runtime()
    followers = {f"fan-{i}": {"since": 0} for i in range(20)}
    batches = [
        rt.build_create_batch("User", ObjectId.from_name(name), {"followers": followers})
        for name in ("a", "b")
    ]
    for batch in batches:
        values = [value for _kind, key, value in batch.items() if b"/c/followers/" in key]
        assert len(values) == 20 and values[0] == b'{"since":0}'
        assert len({id(value) for value in values}) == 1
    # The type name is encoded once, when the type is registered.
    metas = [
        value for batch in batches for _kind, key, value in batch.items() if key.endswith(b"/m")
    ]
    assert metas == [b'"User"', b'"User"'] and metas[0] is metas[1]


def test_a_post_is_one_object_under_every_key():
    rt = _runtime()
    author = rt.create_object("User", initial={"name": "author"})
    fans = [rt.create_object("User", initial={"name": f"fan-{i}"}) for i in range(5)]
    for oid in fans:
        rt.invoke(oid, "follow", author)
    rt.invoke(author, "create_post", TEXT)
    values = _entries(rt, author, "posts") + _entries(rt, author, "timeline")
    for oid in fans:
        values += _entries(rt, oid, "timeline")
    assert len(values) == 7
    assert len({id(value) for value in values}) == 1


def test_a_fan_out_leaves_one_post_per_request():
    rt = _runtime()
    author = rt.create_object("User", initial={"name": "author"})
    fans = [rt.create_object("User", initial={"name": f"fan-{i}"}) for i in range(FOLLOWERS)]
    for oid in fans:
        rt.invoke(oid, "follow", author)
    rt.invoke(author, "create_post", TEXT)  # every collection counter exists
    before_keys = len(rt.storage)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(POSTS):
            rt.invoke(author, "create_post", TEXT)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = POSTS * (FOLLOWERS + 2)
    assert len(rt.storage) - before_keys == entries
    assert grown / entries <= BYTES_PER_ENTRY, f"{grown / entries:.1f} bytes per entry"


def _probe_type(found):
    def probe(self, other):
        self.collection("notes").put("k", "value")
        found.append(self)
        return self.get_object(other).note("value")

    def note(self, text):
        self.collection("notes").put("k", text)
        found.append(self)

    return ObjectType(
        "Probe",
        fields=[CollectionField("notes")],
        methods=[method(probe), method(note, public=False)],
    )


def _public_values(root, depth):
    """Every value reachable from ``root`` through public attributes,
    ``depth`` attribute steps deep."""
    seen, frontier = [], [root]
    for _ in range(depth):
        step = []
        for obj in frontier:
            for name in dir(obj):
                if name.startswith("_"):
                    continue
                try:
                    step.append(getattr(obj, name))
                except AttributeError:
                    continue
        seen += step
        frontier = step
    return seen


def test_the_table_is_shared_by_nested_calls_and_out_of_the_guests_reach():
    found = []
    rt = LocalRuntime(seed=3)
    rt.register_type(_probe_type(found))
    a, b = rt.create_object("Probe"), rt.create_object("Probe")
    rt.invoke(a, "probe", b)
    assert _entries(rt, a, "notes")[0] is _entries(rt, b, "notes")[0]
    caller, callee = found
    table = caller.writeset._values
    assert table and callee.writeset._values is table
    for ctx in found:
        assert not any(value is table for value in _public_values(ctx, depth=3))
