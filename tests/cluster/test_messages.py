"""Unit tests for message types and wire-size estimation."""

from repro.cluster.messages import (
    ClientReply,
    ClientRequest,
    CoordCommand,
    Heartbeat,
    ReplicateAck,
    ReplicateWritesRange,
    estimate_size,
)
from repro.cluster.migration import MigrateObject
from repro.core import ObjectId
from repro.kvstore.batch import Round, WriteBatch

OID = ObjectId.from_name("msg-test")


def test_estimate_size_primitives():
    assert estimate_size(None) == 8
    assert estimate_size(True) == 8
    assert estimate_size(3.14) == 8
    assert estimate_size(b"12345") == 5
    assert estimate_size("abc") == 3


def test_estimate_size_containers_grow():
    assert estimate_size([1, 2, 3]) > estimate_size([1])
    assert estimate_size({"k": "v"}) > estimate_size({})


def test_estimate_size_unknown_object_defaults():
    class Thing:
        pass

    assert estimate_size(Thing()) == 64


def test_request_size_includes_args():
    small = ClientRequest("r1", "c", OID, "m", (), 1)
    big = ClientRequest("r2", "c", OID, "m", ("x" * 500,), 1)
    assert big.size() > small.size() + 400


def test_reply_size_includes_value_and_error():
    ok = ClientReply("r", True, value="v" * 100)
    err = ClientReply("r", False, error="e" * 50)
    assert ok.size() > 100
    assert err.size() > 50


def test_replicate_writes_size_sums_batches():
    # Frame header, an 8-byte header per round, then the round payloads.
    rounds = [
        Round.of([WriteBatch().put(b"o/aa/x", b"x" * 30)]),
        Round.of([WriteBatch().put(b"o/aa/z", b"z" * 5), WriteBatch().delete(b"o/bb/z")]),
    ]
    message = ReplicateWritesRange(0, 1, 1, rounds, "p")
    assert message.size() == 48 + 2 * 8 + rounds[0].size + rounds[1].size
    # A round is its counts, then per op a kind, two key lengths, the key
    # bytes not shared with the previous key and (puts) a value tag and
    # the value: the deletion shares ``o/`` with the put before it.
    assert [round_.size for round_ in rounds] == [2 + (3 + 6 + 1 + 30), 3 + (3 + 6 + 1 + 5) + (3 + 4)]
    assert ReplicateAck(0, 1, "b").size() == 32


def test_heartbeat_and_command_sizes():
    assert Heartbeat("n", 0.0).size() == 24
    command = CoordCommand("c#1", "move_object", {"object_id": str(OID)})
    assert command.size() > 48


def test_migrate_object_size_sums_entries():
    message = MigrateObject(OID, [(b"k" * 4, b"v" * 6)], 1, sender="m")
    assert message.size() == 32 + 10
