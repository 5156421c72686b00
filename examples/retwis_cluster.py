#!/usr/bin/env python3
"""ReTwis on a replicated LambdaStore cluster (the paper's Listing 1).

Builds the §5 deployment — a three-node replica set with a Paxos-backed
coordinator — loads a small social graph, and walks through posting,
timelines, the block-causality guarantee of §2, and a primary failover
that loses nothing.

Run with::

    python examples/retwis_cluster.py
"""

from repro.apps.retwis import user_type
from repro.cluster import Cluster, ClusterConfig
from repro.sim import Simulation


def main():
    sim = Simulation(seed=7)
    cluster = Cluster(sim, ClusterConfig(num_storage_nodes=3, seed=7))
    cluster.register_type(user_type())
    cluster.start()

    alice = cluster.create_object("User", initial={"name": "alice"})
    bob = cluster.create_object("User", initial={"name": "bob"})
    carol = cluster.create_object("User", initial={"name": "carol"})
    client = cluster.client("demo")
    latencies = []

    def run(object_id, method, *args):
        started = sim.now
        value = cluster.run_invoke(client, object_id, method, *args)
        latencies.append(f"{sim.now - started:.2f}")
        return value

    print("== follow graph ==")
    run(bob, "follow", alice)
    run(carol, "follow", alice)
    print(f"alice's profile: {run(alice, 'get_profile')}")

    print("\n== posting fans out to follower timelines ==")
    run(alice, "create_post", "hello, distributed world")
    for name, oid in [("bob", bob), ("carol", carol)]:
        timeline = run(oid, "get_timeline", 5)
        print(f"{name}'s timeline: {[post['text'] for post in timeline]}")

    print("\n== blocking respects causality (§2) ==")
    run(alice, "block", carol)
    run(alice, "create_post", "carol must not see this")
    print(f"carol's timeline: {[p['text'] for p in run(carol, 'get_timeline', 5)]}")
    print(f"bob's timeline:   {[p['text'] for p in run(bob, 'get_timeline', 5)]}")

    print("\n== failover: crash the primary mid-service ==")
    epoch_before, shard_map = cluster.current_config()
    print(f"epoch {epoch_before}, primary = {shard_map.replica_sets[0].primary}")
    cluster.crash_node("store-0")
    run(alice, "create_post", "posted after the crash")
    epoch_after, shard_map = cluster.current_config()
    print(f"epoch {epoch_after}, new primary = {shard_map.replica_sets[0].primary}")
    timeline = run(bob, "get_timeline", 5)
    print(f"bob still sees everything: {[post['text'] for post in timeline]}")

    print(f"\nper-invocation latencies (simulated ms): {latencies}")


if __name__ == "__main__":
    main()
