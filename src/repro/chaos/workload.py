"""A reusable register workload for chaos scenarios.

The consistency tests and the chaos-soak benchmark all run the same
shape: N clients hammer K register objects with reads and uniquely-valued
writes while a :class:`~repro.chaos.nemesis.Nemesis` injects faults; the
run is then calmed, quiesced, and handed to the
:class:`~repro.chaos.checker.ConsistencyChecker`.  Every client records
into one :class:`~repro.core.linearizability.HistoryRecorder`, whose
records are what the checker's register model reads: the ``Register``
type's ``read``/``write`` methods are the model's own.

Registers (not counters) are used deliberately: writes are idempotent, so
the workload stays checkable even across a primary failover, where the
promoted backup does not inherit the old primary's at-most-once reply
table and a retried non-idempotent mutation could legally double-apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.chaos.checker import ConsistencyChecker, ConsistencyReport
from repro.chaos.nemesis import Nemesis, NemesisConfig
from repro.cluster import Cluster, ClusterConfig
from repro.core import ObjectType, ValueField, method, readonly_method
from repro.core.ids import ObjectId
from repro.core.linearizability import HistoryRecorder
from repro.errors import InvocationFailed, RequestTimeout
from repro.sim import Simulation


def register_type() -> ObjectType:
    """A per-object read/write register matching ``register_model``."""

    def write(self, value):
        self.set("value", value)
        return value

    def read(self):
        return self.get("value")

    return ObjectType(
        "Register",
        fields=[ValueField("value", default=0)],
        methods=[method(write), readonly_method(read)],
    )


@dataclass
class ScenarioResult:
    """Everything a test needs to assert on a finished chaos run."""

    cluster: Cluster
    recorder: HistoryRecorder
    nemesis: Nemesis
    object_ids: list[ObjectId]
    #: object id (str) -> initial register value, for the checker's model
    initial: dict[str, Any]
    quiesced: bool
    #: per-client count of invocations that exhausted their retries
    gave_up: dict[str, int] = field(default_factory=dict)

    def check(self) -> ConsistencyReport:
        return ConsistencyChecker(self.cluster).check(
            recorder=self.recorder,
            object_ids=self.object_ids,
            initial=self.initial,
        )


def run_scenario(
    seed: int,
    nemesis_config: Optional[NemesisConfig] = None,
    num_storage_nodes: int = 3,
    num_shards: int = 1,
    num_clients: int = 3,
    num_objects: int = 2,
    duration_ms: float = 400.0,
    ops_per_client: int = 30,
    write_ratio: float = 0.5,
    request_timeout_ms: float = 40.0,
    max_attempts: int = 8,
    settle_ms: float = 25.0,
    post_build: Optional[Any] = None,
    **config_kwargs: Any,
) -> ScenarioResult:
    """Run one nemesis scenario end to end and return its artifacts.

    Clients stop issuing new invocations at ``duration_ms`` (or after
    ``ops_per_client``, whichever comes first) but finish the one in
    flight; the nemesis is then calmed and the cluster quiesced before
    returning, so the result is ready for the consistency checker.
    """
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, ClusterConfig(
        seed=seed,
        num_storage_nodes=num_storage_nodes,
        num_shards=num_shards,
        **config_kwargs,
    ))
    cluster.register_type(register_type())
    object_ids = [
        cluster.create_object("Register", initial={"value": 0})
        for _ in range(num_objects)
    ]
    initial = {str(oid): 0 for oid in object_ids}
    cluster.start()
    if post_build is not None:
        post_build(cluster)  # e.g. swap the latency model, tap messages

    recorder = HistoryRecorder()
    config = nemesis_config or NemesisConfig()
    if not config.migration_objects and num_shards > 1:
        # the objects only exist now, so wire them up for the migrate event
        config.migration_objects = tuple(object_ids)
    nemesis = Nemesis(cluster, config)
    gave_up: dict[str, int] = {}
    end_at = sim.now + duration_ms

    def client_loop(index: int):
        client = cluster.client(
            f"chaos-{index}",
            request_timeout_ms=request_timeout_ms,
            max_attempts=max_attempts,
            recorder=recorder,
        )
        rng = sim.rng(f"workload.{index}")
        for op_number in range(ops_per_client):
            if sim.now >= end_at:
                return
            object_id = rng.choice(object_ids)
            try:
                if rng.random() < write_ratio:
                    # unique values make the linearizability check sharp:
                    # a read can only be explained by the one write of its value
                    yield from client.invoke(
                        object_id, "write", f"{client.name}:{op_number}"
                    )
                else:
                    yield from client.invoke(object_id, "read")
            except (RequestTimeout, InvocationFailed):
                gave_up[client.name] = gave_up.get(client.name, 0) + 1
            yield sim.timeout(rng.uniform(0.5, 3.0))

    processes = [
        sim.process(client_loop(index), name=f"workload.{index}")
        for index in range(num_clients)
    ]
    nemesis.start()
    sim.run(until=end_at)
    nemesis.calm()
    # let in-flight invocations wind down (each is bounded by its retry
    # budget), then drain the cluster itself
    sim.run_until_triggered(sim.all_of(processes), limit=sim.now + 120_000)
    quiesced = cluster.quiesce(settle_ms=settle_ms)

    return ScenarioResult(
        cluster=cluster,
        recorder=recorder,
        nemesis=nemesis,
        object_ids=object_ids,
        initial=initial,
        quiesced=quiesced,
        gave_up=gave_up,
    )
