"""A replication round on the wire: one encoded payload per round.

Retwis's Post writes one post into the author's posts, the author's
timeline and every follower's timeline.  The round layout
(:func:`repro.kvstore.batch.encode_round`) ships that value once and
every later copy as a back-reference, so a frame grows with the number
of followers by their keys, not by their copies of the post.
"""

from repro.apps.bank import account_type
from repro.apps.retwis import user_type
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.messages import ReplicateWritesRange
from repro.cluster.transactions import TransactionCoordinator, enable_transactions
from repro.core.ids import ObjectId
from repro.kvstore import batch as batch_module
from repro.kvstore.batch import decode_round
from repro.sim import Simulation

#: long enough that one copy per follower would dominate the frame
TEXT = "".join(f"{i:04d}" for i in range(250))


def _post_frames(followers: int, **config) -> list:
    """Every ReplicateWritesRange one backup receives while an author
    with ``followers`` followers posts :data:`TEXT` once."""
    sim = Simulation(seed=5)
    cluster = Cluster(sim, ClusterConfig(seed=5, **config))
    cluster.register_type(user_type())
    fans = [ObjectId.from_name(f"fan-{i}") for i in range(followers)]
    for index, oid in enumerate(fans):
        cluster.create_object("User", object_id=oid, initial={"name": f"fan-{index}"})
    author = cluster.create_object(
        "User",
        initial={"name": "author", "followers": {str(oid): {"since": 0} for oid in fans}},
    )
    cluster.start()
    backup = cluster.bootstrap_shard_map.shard_for(author).backups[0]
    frames = []
    cluster.net.tap = lambda message: (
        frames.append(message)
        if type(message.payload) is ReplicateWritesRange and message.dst == backup
        else None
    )
    cluster.run_invoke(cluster.client("poster"), author, "create_post", TEXT)
    sim.run(until=sim.now + 5)
    return frames


def test_a_post_ships_its_text_once_per_round():
    frames = _post_frames(followers=6)
    rounds = [payload for message in frames for payload in message.payload.rounds]
    assert len(rounds) == 1  # the post is one invocation: one round
    (payload,) = rounds
    # Eight copies are written (posts, own timeline, six followers) ...
    batches, objects = decode_round(payload)
    written = [value for batch in batches for _kind, _key, value in batch.items()]
    assert sum(TEXT.encode() in value for value in written) == 8
    assert len(objects) == 7
    # ... and the text crosses the wire once.
    assert payload.count(TEXT.encode()) == 1


def test_frame_bytes_grow_by_less_than_the_text_per_follower():
    def frame_bytes(followers):
        return sum(message.size_bytes for message in _post_frames(followers))

    small, large = frame_bytes(4), frame_bytes(12)
    assert large > small
    assert (large - small) / 8 < len(TEXT)


def test_frame_size_is_the_header_plus_the_round_payloads():
    # Cache off: no piggybacked cache entries, so a frame is only rounds.
    frames = _post_frames(followers=3, enable_cache=False)
    assert frames
    for message in frames:
        frame = message.payload
        assert not frame.cache_entries
        expected = 48 + 8 * len(frame.rounds) + sum(len(p) for p in frame.rounds)
        assert frame.size() == message.size_bytes == expected


def test_a_two_phase_commit_reaches_backups_through_the_round_memo(monkeypatch):
    sim = Simulation(seed=71)
    cluster = Cluster(sim, ClusterConfig(seed=71))
    cluster.register_type(account_type())
    enable_transactions(cluster)
    cluster.start()
    a = cluster.create_object("Account", initial={"balance": 100})
    b = cluster.create_object("Account", initial={"balance": 0})
    parsed = []
    original = batch_module._parse_round
    monkeypatch.setattr(
        batch_module, "_parse_round", lambda data: parsed.append(data) or original(data)
    )
    coordinator = TransactionCoordinator(cluster)

    def body():
        txn = coordinator.begin()
        yield from txn.invoke(a, "withdraw", 40)
        yield from txn.invoke(b, "deposit", 40)
        yield from txn.commit()
        return txn.state

    assert sim.run_until_triggered(sim.process(body()), limit=600_000) == "committed"
    assert cluster.quiesce()
    # Every backup applied the decided batch the primary encoded: no parse.
    assert parsed == []
    replica_set = cluster.bootstrap_shard_map.shard_for(a)
    for name in (replica_set.primary, *replica_set.backups):
        assert cluster.nodes[name].dump_object_state(a) == cluster.nodes[
            replica_set.primary
        ].dump_object_state(a)
