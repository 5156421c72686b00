"""End-to-end tests for LocalRuntime: lifecycle, invocation semantics,
the §3.1 consistency model, and error paths."""

import pytest

from repro.core import (
    LocalRuntime,
    ObjectId,
    ObjectType,
    ValueField,
    method,
    readonly_method,
)
from repro.core.storage import KVBackend
from repro.errors import (
    InvocationError,
    ModelError,
    ObjectExistsError,
    PrivateMethodError,
    ReadOnlyViolation,
    UnknownObjectError,
    UnknownTypeError,
)
from repro.kvstore import DB


# -- object lifecycle --------------------------------------------------------


def test_create_and_invoke(runtime):
    oid = runtime.create_object("Counter")
    assert runtime.invoke(oid, "increment", 5) == 5
    assert runtime.invoke(oid, "read") == 5


def test_create_with_initial_values(runtime):
    oid = runtime.create_object("Counter", initial={"count": 10})
    assert runtime.invoke(oid, "read") == 10


def test_create_with_initial_collection_list(runtime):
    oid = runtime.create_object("Notebook", initial={"notes": ["a", "b"]})
    notes = runtime.invoke(oid, "list_notes")
    assert [value for _key, value in notes] == ["a", "b"]
    # Appends continue after the seeded entries.
    runtime.invoke(oid, "add_note", "c")
    notes = runtime.invoke(oid, "list_notes")
    assert [value for _key, value in notes] == ["a", "b", "c"]


def test_create_with_initial_collection_dict(runtime):
    oid = runtime.create_object("Notebook", initial={"notes": {"k1": "x"}})
    assert runtime.invoke(oid, "list_notes") == [("k1", "x")]


def test_create_with_unknown_field_rejected(runtime):
    with pytest.raises(ModelError):
        runtime.create_object("Counter", initial={"nope": 1})


def test_create_with_explicit_id(runtime):
    oid = ObjectId.from_name("my-counter")
    assert runtime.create_object("Counter", object_id=oid) == oid


def test_duplicate_id_rejected(runtime):
    oid = ObjectId.from_name("dup")
    runtime.create_object("Counter", object_id=oid)
    with pytest.raises(ObjectExistsError):
        runtime.create_object("Counter", object_id=oid)


def test_unknown_type_rejected(runtime):
    with pytest.raises(UnknownTypeError):
        runtime.create_object("Nope")


def test_delete_object(runtime):
    oid = runtime.create_object("Counter")
    runtime.delete_object(oid)
    assert not runtime.object_exists(oid)
    with pytest.raises(UnknownObjectError):
        runtime.invoke(oid, "read")


def test_delete_missing_object_raises(runtime):
    with pytest.raises(UnknownObjectError):
        runtime.delete_object(ObjectId.from_name("ghost"))


# -- invocation semantics ----------------------------------------------------


def test_invoke_unknown_object(runtime):
    with pytest.raises(UnknownObjectError):
        runtime.invoke(ObjectId.from_name("ghost"), "read")


def test_private_method_blocked_from_clients(runtime):
    oid = runtime.create_object("Notebook")
    with pytest.raises(PrivateMethodError):
        runtime.invoke(oid, "secret_touch")


def test_private_method_callable_from_invocations(runtime):
    oid = runtime.create_object("Notebook")
    assert runtime.invoke(oid, "touch_via_self_call") is True


def test_readonly_method_cannot_write(runtime):
    def sneaky(self):
        self.set("count", 1)

    bad_type = ObjectType(
        "Bad",
        fields=[ValueField("count")],
        methods=[method(sneaky, name="mutate"), readonly_method(sneaky, name="sneaky")],
    )
    runtime.register_type(bad_type)
    oid = runtime.create_object("Bad")
    with pytest.raises(InvocationError) as excinfo:
        runtime.invoke(oid, "sneaky")
    assert isinstance(excinfo.value.__cause__.__cause__, ReadOnlyViolation)


def test_guest_failure_aborts_without_committing(runtime):
    oid = runtime.create_object("Counter", initial={"count": 1})
    with pytest.raises(InvocationError):
        runtime.invoke(oid, "fail_after_write")
    assert runtime.invoke(oid, "read") == 1
    assert runtime.stats.aborts == 1


def test_invocation_is_atomic(runtime):
    oid = runtime.create_object("Notebook")
    runtime.invoke(oid, "add_note", "n1")
    # The note and the collection counter commit together; both visible.
    assert runtime.invoke(oid, "note_count") == 1


# -- §3.1: nested calls are commit points --------------------------------------


def test_nested_call_commits_caller_writes_first(runtime):
    a = runtime.create_object("Counter")
    b = runtime.create_object("Counter")
    runtime.invoke(a, "increment_other", b, 7)
    assert runtime.invoke(a, "read") == 7
    assert runtime.invoke(b, "read") == 7


def test_failure_after_nested_call_keeps_earlier_segments(runtime):
    a = runtime.create_object("Counter")
    b = runtime.create_object("Counter")
    with pytest.raises(InvocationError):
        runtime.invoke(a, "write_then_call_then_fail", b)
    # Segment 1 (a.count=123) and the nested call (b += 1) committed before
    # the failure; only the final (empty) segment was discarded.
    assert runtime.invoke(a, "read") == 123
    assert runtime.invoke(b, "read") == 1


def test_parts_counted_per_commit_segment(runtime):
    a = runtime.create_object("Counter")
    b = runtime.create_object("Counter")
    commits = runtime.stats.commits
    result = runtime.invoke_detailed(a, "increment_other", b, 1)
    # a's write commits as its own segment before the nested call, b's
    # increment commits as the nested invocation, and a's segment after
    # the call wrote nothing, so it commits nothing.
    assert runtime.stats.commits - commits == 2
    assert len(result.sub_results) == 1
    assert result.sub_results[0].object_id == b
    assert runtime.invoke(a, "read") == 1
    assert runtime.invoke(b, "read") == 1


def test_call_depth_limit(runtime):
    def recurse(self):
        self.get_object(self.self_id()).recurse_forever()

    looping = ObjectType(
        "Loop", fields=[], methods=[method(recurse, name="recurse_forever")]
    )
    runtime.register_type(looping)
    oid = runtime.create_object("Loop")
    with pytest.raises(InvocationError):
        runtime.invoke(oid, "recurse_forever")


# -- real-time visibility ----------------------------------------------------


def test_committed_writes_visible_to_following_invocations(runtime):
    oid = runtime.create_object("Counter")
    for expected in range(1, 20):
        assert runtime.invoke(oid, "increment") == expected
        assert runtime.invoke(oid, "read") == expected


# -- stats ---------------------------------------------------------


def test_stats_track_invocations(runtime):
    oid = runtime.create_object("Counter")
    runtime.invoke(oid, "increment")
    runtime.invoke(oid, "read")
    assert runtime.stats.invocations >= 2
    assert runtime.stats.commits >= 1
    assert runtime.stats.fuel_used > 0


# -- persistence through the real kvstore --------------------------------------


def test_runtime_over_kvbackend_survives_reopen(tmp_path):
    from tests.core.conftest import make_counter_type

    path = str(tmp_path / "db")
    with DB.open(path) as db:
        rt = LocalRuntime(storage=KVBackend(db), enable_cache=False)
        rt.register_type(make_counter_type())
        oid = rt.create_object("Counter", object_id=ObjectId.from_name("persisted"))
        rt.invoke(oid, "increment", 41)
        rt.invoke(oid, "increment", 1)
    with DB.open(path) as db:
        rt = LocalRuntime(storage=KVBackend(db), enable_cache=False)
        rt.register_type(make_counter_type())
        assert rt.invoke(ObjectId.from_name("persisted"), "read") == 42
