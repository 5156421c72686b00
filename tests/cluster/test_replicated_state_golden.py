"""Replicated-state golden: what a seeded Retwis run leaves on every replica.

A 3-replica cluster (group commit and lease reads at their defaults) runs
a few hundred mixed Retwis jobs from closed-loop clients, quiesces, and
every node's committed state is digested: sha256 over
``dump_object_state`` of every account plus the node's
``storage.last_sequence``, so a change in apply order, key set, value
bytes or sequence numbering on the primary or on a backup fails here
rather than in a ledger run.  Post timestamps are simulated times, so a
change that moves message timing moves the digest too; it is re-captured
on purpose then, and every replica must still share one digest (last
re-captured when replication rounds became one encoded payload, whose
smaller frames shift delivery times).
"""

import hashlib
import random

from repro.apps.retwis import user_type
from repro.cluster import Cluster, ClusterConfig
from repro.core.ids import ObjectId
from repro.sim import Simulation

SEED = 18
NUM_ACCOUNTS = 24
NUM_CLIENTS = 6
JOBS_PER_CLIENT = 50

#: node -> (storage.last_sequence, sha256 of every account's dumped state)
_STATE = "35dbae65e69f6b691d40ce9d09a95469d42d11f6b2d581aa5203706b7d5bb3b4"
GOLDEN = {"store-0": (2191, _STATE), "store-1": (2191, _STATE), "store-2": (2191, _STATE)}


def _run():
    sim = Simulation(seed=SEED)
    cluster = Cluster(sim, ClusterConfig(seed=SEED))
    cluster.register_type(user_type())
    accounts = [ObjectId.from_name(f"golden-user-{i}") for i in range(NUM_ACCOUNTS)]
    graph = random.Random(f"golden-graph-{SEED}")
    for index, oid in enumerate(accounts):
        followers = {
            str(accounts[other]): {"since": 0}
            for other in graph.sample(range(NUM_ACCOUNTS), 4)
            if other != index
        }
        cluster.create_object(
            "User", object_id=oid, initial={"name": f"user-{index}", "followers": followers}
        )
    cluster.start()

    completed = []

    def client_loop(number):
        client = cluster.client(f"golden-client-{number}")
        rng = random.Random(f"golden-client-{SEED}-{number}")
        for job in range(JOBS_PER_CLIENT):
            target = accounts[rng.randrange(NUM_ACCOUNTS)]
            draw = rng.random()
            if draw < 0.45:
                yield from client.invoke(target, "create_post", f"c{number}-p{job}")
            elif draw < 0.65:
                other = accounts[rng.randrange(NUM_ACCOUNTS)]
                if other != target:
                    yield from client.invoke(target, "follow", other)
            elif draw < 0.75:
                other = accounts[rng.randrange(NUM_ACCOUNTS)]
                if other != target:
                    yield from client.invoke(target, "unfollow", other)
            else:
                yield from client.invoke(target, "get_timeline")
            completed.append(number)

    loops = [sim.process(client_loop(number)) for number in range(NUM_CLIENTS)]
    sim.run_until_triggered(sim.all_of(loops), limit=sim.now + 600_000)
    assert len(completed) == NUM_CLIENTS * JOBS_PER_CLIENT
    assert cluster.quiesce()

    digests = {}
    for name, node in sorted(cluster.nodes.items()):
        state = hashlib.sha256()
        for oid in accounts:
            for key, value in node.dump_object_state(oid):
                state.update(b"%d:%b%d:%b" % (len(key), key, len(value), value))
        digests[name] = (node.runtime.storage.last_sequence, state.hexdigest())
    return digests


def test_replicated_state_matches_golden():
    digests = _run()
    assert digests == GOLDEN
