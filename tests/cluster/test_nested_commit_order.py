"""Nested writes reach backups in commit order (one shard is enough).

Retwis's ``create_post`` on an author nests a ``store_post`` append into
every follower's timeline.  The object lock covers only the invoked
author, so two authors' nested appends into one shared follower F commit
at execution time, in arrival order.  Each job's replication round,
though, enters the shard's pipeline only after the job's modelled CPU
time.  The later post, whose author has fewer followers, is cheaper and
takes the earlier sequence: every backup applies F's two appends in the
wrong order and keeps the older timeline counter, with both entries
present.  A's appends are also visible at the primary, behind no read
barrier, until its round is submitted.

The naive single-machine semantics (one node, no replication) leaves
every replica equal to the primary.  This test asserts exactly that and
is expected to fail until owner-side rounds enter the pipeline at the
instant they commit; ``strict=True`` makes it flip once that is fixed.
"""

import pytest

from repro.apps.retwis import user_type
from repro.cluster import Cluster, ClusterConfig
from repro.core.ids import ObjectId
from repro.sim import Simulation

#: how much later the second author posts (simulated ms)
SECOND_POST_DELAY_MS = 0.3


def _replica_states(seed: int) -> tuple[dict, str]:
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, ClusterConfig(seed=seed))
    cluster.register_type(user_type())
    shared = ObjectId.from_name("follower-shared")
    others = [ObjectId.from_name(f"follower-{i}") for i in range(10)]
    for index, oid in enumerate([shared, *others]):
        cluster.create_object("User", object_id=oid, initial={"name": f"f{index}"})
    busy_author = ObjectId.from_name("author-a")
    quiet_author = ObjectId.from_name("author-b")
    cluster.create_object(
        "User",
        object_id=busy_author,
        initial={
            "name": "a",
            "followers": {str(oid): {"since": 0} for oid in [shared, *others]},
        },
    )
    cluster.create_object(
        "User",
        object_id=quiet_author,
        initial={"name": "b", "followers": {str(shared): {"since": 0}}},
    )
    cluster.start()

    def post(client_name, author, text, delay_ms):
        client = cluster.client(client_name)
        yield sim.timeout(delay_ms)
        yield from client.invoke(author, "create_post", text)

    posts = [
        sim.process(post("client-a", busy_author, "from a", 0.0)),
        sim.process(post("client-b", quiet_author, "from b", SECOND_POST_DELAY_MS)),
    ]
    sim.run_until_triggered(sim.all_of(posts), limit=sim.now + 10_000)
    assert cluster.quiesce()
    _epoch, shard_map = cluster.current_config()
    primary = shard_map.shard_for(shared).primary
    states = {
        name: node.dump_object_state(shared) for name, node in sorted(cluster.nodes.items())
    }
    return states, primary


@pytest.mark.xfail(
    strict=True,
    reason="nested rounds enter the pipeline after the job's CPU time, not at commit",
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_backups_hold_the_primarys_state_of_a_shared_follower(seed):
    states, primary = _replica_states(seed)
    for name, state in states.items():
        assert state == states[primary], f"{name} diverges from primary {primary}"
