"""Elasticity and failover family: live microshard migration, primary
failover under write load, and burst absorption (Table 1's elasticity
row)."""

from __future__ import annotations

from dataclasses import replace

from repro.bench.calibration import Calibration, CalibrationLike, resolve
from repro.bench.harness import build_aggregated, build_disaggregated, load_dataset
from repro.bench.report import format_comparison
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.migration import Migrator
from repro.core import ObjectId, ObjectType, ValueField, method, readonly_method
from repro.sim import Simulation


def _counter_type() -> ObjectType:
    def bump(self):
        value = (self.get("value") or 0) + 1
        self.set("value", value)
        return value

    def read(self):
        return self.get("value") or 0

    return ObjectType(
        "BenchCounter",
        fields=[ValueField("value", default=0)],
        methods=[method(bump), readonly_method(read)],
    )


def _counter_cluster(cal: Calibration, **config) -> tuple[Simulation, Cluster, ObjectId]:
    """A started cluster holding one ``BenchCounter`` object."""
    sim = Simulation(seed=cal.seed)
    cluster = Cluster(
        sim,
        ClusterConfig(
            ms_per_fuel=cal.ms_per_fuel, net_median_ms=cal.net_median_ms, seed=cal.seed, **config
        ),
    )
    cluster.register_type(_counter_type())
    cluster.start()
    return sim, cluster, cluster.create_object("BenchCounter")


def abl_migration(cal: CalibrationLike = None) -> dict:
    """§7 — elasticity: migrating a loaded microshard.

    A hot object serves a write every ~1 ms; mid-run it migrates to the
    other replica set.  The disruption window is the longest
    inter-completion gap; afterwards the new owner serves at full speed.
    """
    sim, cluster, oid = _counter_cluster(resolve(cal), num_storage_nodes=4, num_shards=2)
    home = cluster.bootstrap_shard_map.shard_for(oid).shard_id
    target = (home + 1) % 2
    client = cluster.client("hot")
    completions: list[float] = []
    migrate_at = 50.0

    def load():
        while sim.now < 150.0:
            yield from client.invoke(oid, "bump")
            completions.append(sim.now)

    def migrate():
        yield sim.timeout(migrate_at)
        migrator = Migrator(cluster)
        yield from migrator.migrate(oid, target)

    load_process = sim.process(load())
    sim.process(migrate())
    sim.run_until_triggered(load_process, limit=600_000)

    gaps = [(b - a, a) for a, b in zip(completions, completions[1:])]
    disruption, at = max(gaps)
    before = sum(1 for c in completions if c < migrate_at)
    after = sum(1 for c in completions if c > at + disruption)
    rows = [
        {
            "completions_before": before,
            "completions_after": after,
            "disruption_window_ms": round(disruption, 2),
            "disruption_at_ms": round(at, 2),
            "final_count": completions and len(completions),
        }
    ]
    text = format_comparison("Ablation: live microshard migration under load", rows)
    return {"name": "abl_migration", "rows": rows, "text": text}


def abl_failover(cal: CalibrationLike = None) -> dict:
    """§4.2.1 — kill the primary mid-run; measure the unavailability
    window and verify no acknowledged write is lost."""
    sim, cluster, oid = _counter_cluster(resolve(cal), num_storage_nodes=3)
    client = cluster.client("survivor", request_timeout_ms=30.0)
    completions: list[tuple[float, int]] = []
    crash_at = 40.0
    crashed = []

    def load():
        while sim.now < 400.0 and len(completions) < 400:
            if sim.now >= crash_at and not crashed:
                crashed.append(True)
                cluster.crash_node("store-0")
            value = yield from client.invoke(oid, "bump")
            completions.append((sim.now, value))

    process = sim.process(load())
    sim.run_until_triggered(process, limit=600_000)

    times = [t for t, _v in completions]
    gaps = [(b - a, a) for a, b in zip(times, times[1:])]
    window, at = max(gaps)
    values = [v for _t, v in completions]
    acked = len(values)
    rows = [
        {
            "acked_writes": acked,
            "final_counter": values[-1],
            "lost_writes": values[-1] < acked,
            "unavailability_ms": round(window, 2),
            "failover_at_ms": round(at, 2),
        }
    ]
    text = format_comparison("Ablation: primary failover under write load", rows)
    text += "\n  (final_counter >= acked_writes means every acknowledged write survived;"
    text += "\n   retries after timeouts may execute twice, so it can exceed acked_writes)"
    return {"name": "abl_failover", "rows": rows, "text": text}


def abl_elasticity(cal: CalibrationLike = None) -> dict:
    """Table 1's elasticity row, measured as burst absorption.

    A baseline load runs on each architecture; then a burst of new
    clients arrives at once.  Conventional serverless absorbs the burst
    by provisioning containers (first-wave cold starts, then steady) —
    "High" elasticity with a start-up price.  The aggregated variant has
    no provisioning step at all (no cold starts), but its capacity is the
    storage nodes it already owns — adding more means migrating data
    (see ``abl_migration``), which is why the paper grades it "Medium".
    """
    cal = resolve(cal)
    small = replace(cal, num_accounts=max(200, cal.num_accounts // 5))

    def burst_run(build):
        sim = Simulation(seed=cal.seed)
        platform = build(sim)
        dataset = load_dataset(platform, small)
        platform.start()
        first_wave: list[float] = []
        steady: list[float] = []

        def client_load(index, start_at):
            yield sim.timeout(start_at)
            client = platform.client(f"b{index}")
            rng = sim.rng(f"elastic.{index}")
            while sim.now < 400.0:
                target = dataset.uniform_account(rng)
                begun = sim.now
                yield from client.invoke(target, "get_timeline", 10)
                latency = sim.now - begun
                if start_at > 0:  # a burst client
                    (first_wave if begun < 100.0 + 50.0 else steady).append(latency)

        processes = [sim.process(client_load(i, 0.0)) for i in range(5)]
        processes += [sim.process(client_load(100 + i, 100.0)) for i in range(30)]
        sim.run_until_triggered(sim.all_of(processes), limit=600_000)
        return first_wave, steady

    cold_pool = lambda sim: build_disaggregated(sim, small, prewarm=False)
    dis_first, dis_steady = burst_run(cold_pool)
    agg_first, agg_steady = burst_run(lambda sim: build_aggregated(sim, small))

    def stats(samples):
        ordered = sorted(samples)
        return {
            "max_ms": round(ordered[-1], 2) if ordered else 0.0,
            "median_ms": round(ordered[len(ordered) // 2], 2) if ordered else 0.0,
        }

    rows = [
        {"variant": "disaggregated burst (first 50 ms)", **stats(dis_first)},
        {"variant": "disaggregated burst (steady)", **stats(dis_steady)},
        {"variant": "aggregated burst (first 50 ms)", **stats(agg_first)},
        {"variant": "aggregated burst (steady)", **stats(agg_steady)},
    ]
    text = format_comparison("Ablation: elasticity — absorbing a client burst", rows)
    text += (
        "\n  (disaggregated pays cold starts in the first wave, then matches its"
        "\n   steady state; aggregated never cold-starts but scales by migration)"
    )
    return {
        "name": "abl_elasticity",
        "rows": rows,
        "text": text,
        "raw": {
            "dis_first": dis_first,
            "dis_steady": dis_steady,
            "agg_first": agg_first,
            "agg_steady": agg_steady,
        },
    }
