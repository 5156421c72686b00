"""LambdaStore: the distributed system supporting LambdaObjects (§4.2).

Storage nodes execute object methods where the data lives; a Paxos-
replicated coordination service tracks membership and the shard map;
mutating invocations replicate primary→backup; read-only invocations run
at the primary or a lease-holding backup and hit the per-node consistent
result cache; objects are
microshards that migrate independently.

Everything runs on the deterministic simulation substrate
(:mod:`repro.sim`); see DESIGN.md for the execute-then-replay time
accounting methodology.

Typical use::

    from repro.sim import Simulation
    from repro.cluster import Cluster, ClusterConfig

    sim = Simulation(seed=1)
    cluster = Cluster(sim, ClusterConfig(num_storage_nodes=3))
    cluster.register_type(user_type)
    cluster.start()
    oid = cluster.create_object("User", initial={"name": "alice"})
    client = cluster.client("c0")
    value = yield from client.invoke(oid, "get_timeline", 10)   # in a process
"""

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import CoordinatorNode, CoordinatorState
from repro.cluster.migration import Migrator
from repro.cluster.paxos import PaxosNode
from repro.cluster.shard import ReplicaSet, ShardMap
from repro.cluster.store_node import StoreNode

__all__ = [
    "Cluster",
    "ClusterClient",
    "ClusterConfig",
    "CoordinatorNode",
    "CoordinatorState",
    "Migrator",
    "PaxosNode",
    "ReplicaSet",
    "ShardMap",
    "StoreNode",
]
