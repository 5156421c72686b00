"""Tests of the ledger itself.

Run with ``PYTHONPATH=src:. python -m pytest benchmarks/ledger -q``; the
tier-1 suite (``testpaths = tests``) does not collect this file.
"""

from __future__ import annotations

import json
import re
from types import SimpleNamespace

import pytest

from repro.obs.registry import MetricsRegistry
from repro.sim import Simulation

from benchmarks.ledger import audit, cli, compare, layers, spec
from benchmarks.ledger.runner import ROOT, undisturbed


# -- the contract file ---------------------------------------------------------


def test_benchmark_json_is_the_spec_written_out():
    with open(ROOT / "BENCHMARK.json") as handle:
        assert json.load(handle) == spec.benchmark_json()


def test_spec_fits_the_drivers_limits():
    contract = spec.benchmark_json()
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = contract["end_to_end"] + contract["per_layer"]
    names = [entry["name"] for entry in metrics + contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(name_ok.match(name) for name in names)
    assert all(unit_ok.match(entry["unit"]) for entry in metrics)
    assert all(entry["better"] in ("lower", "higher") for entry in metrics)
    assert all(0 < entry["bound"] <= 0.25 for entry in contract["end_to_end"])
    assert 2 <= len(contract["workloads"]) <= 8
    assert len(contract["end_to_end"]) == 12 and len(contract["per_layer"]) == 115
    assert set(spec.SAME_SEED_BOUND) == {name for name, *_rest in spec.LEDGER_END_TO_END}
    setup = next(entry for entry in contract["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert set(spec.EXACT_PER_LAYER) <= {name for name, _u, _b in spec.PER_LAYER}


def test_undisturbed_takes_the_smaller_time_of_every_slice():
    assert undisturbed([[1.0, 2.0, 1.5], [2.0, 1.0, 1.5]]) == 3.5
    assert undisturbed([[1.0, 2.0]]) == 3.0  # one run (agg_durable_writes): its own sum
    with pytest.raises(ValueError):
        undisturbed([[1.0, 2.0], [1.0]])


# -- cProfile roll-up ----------------------------------------------------------

_REPLICATION = ("/x/src/repro/cluster/replication.py", 10, "flush")
_DISPATCH = ("/x/src/repro/sim/core.py", 20, "_drain_fast")
_DRIVER = ("/x/benchmarks/ledger/loadgen.py", 5, "_client_loop")
_HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
_DEEPCOPY = ("/usr/lib/python3.11/copy.py", 128, "deepcopy")
_LEN = ("~", 0, "<built-in method builtins.len>")


def test_builtin_time_lands_in_the_callers_package():
    # func -> (cc, nc, tt, ct, callers); callers[f] = (nc, cc, tt, ct)
    stats = {
        _DISPATCH: (1, 1, 2.0, 10.0, {}),
        _REPLICATION: (4, 4, 1.0, 3.0, {_DISPATCH: (4, 4, 1.0, 3.0)}),
        _DRIVER: (2, 2, 0.5, 0.5, {_DISPATCH: (2, 2, 0.5, 0.5)}),
        # 3 s of heappush: 1 s under replication, 2 s under the sim loop
        _HEAPPUSH: (
            30, 30, 3.0, 3.0,
            {_REPLICATION: (10, 10, 1.0, 1.0), _DISPATCH: (20, 20, 2.0, 2.0)},
        ),
        # stdlib called only from replication, and a built-in under it:
        # both hops resolve to cluster.replication
        _DEEPCOPY: (5, 5, 0.4, 1.0, {_REPLICATION: (5, 5, 0.4, 1.0)}),
        _LEN: (50, 50, 0.6, 0.6, {_DEEPCOPY: (50, 50, 0.6, 0.6)}),
    }
    rollup = layers.rollup_profile(stats)
    assert rollup["total_s"] == pytest.approx(7.5)
    assert rollup["time_s"]["cluster.replication"] == pytest.approx(1.0 + 1.0 + 0.4 + 0.6)
    assert rollup["time_s"]["sim.core"] == pytest.approx(2.0 + 2.0)
    assert rollup["time_s"]["other"] == pytest.approx(0.5)
    assert rollup["calls"]["cluster.replication"] == pytest.approx(4 + 10 + 5 + 50)
    packages = layers.by_package(rollup["time_s"])
    assert set(packages) == set(spec.PACKAGES)
    assert packages["cluster"] == pytest.approx(3.0)
    assert sum(packages.values()) == pytest.approx(rollup["total_s"])


def test_unowned_time_without_an_owned_caller_is_other():
    stats = {_LEN: (3, 3, 0.25, 0.25, {})}
    assert layers.rollup_profile(stats)["time_s"] == {"other": 0.25}


def test_classify():
    assert layers.classify("/a/src/repro/kvstore/wal.py") == "kvstore.wal"
    assert layers.classify("/a/src/repro/bench/harness.py") == "other"
    assert layers.classify("/a/src/repro/errors.py") == "other"
    assert layers.classify("/a/benchmarks/ledger/child.py") == "other"
    assert layers.classify("/usr/lib/python3.11/heapq.py") is None
    assert layers.classify("/home/repro/venv/lib/python3.11/json/encoder.py") is None
    assert layers.classify("/home/repro/checkout/src/repro/sim/core.py") == "sim.core"
    assert layers.classify("~") is None


# -- span self time ------------------------------------------------------------


def _span(span_id, parent_id, name, start, end, trace="t1"):
    return SimpleNamespace(
        span_id=span_id, parent_id=parent_id, name=name, start_ms=start, end_ms=end, trace_id=trace
    )


def test_self_time_is_duration_minus_the_union_of_children():
    spans = [
        _span(1, None, "request", 0.0, 10.0),
        _span(2, 1, "lock.wait", 2.0, 4.0),
        _span(3, 1, "replicate", 3.0, 6.0),  # overlaps the lock wait
        _span(4, 1, "replicate", 8.0, 12.0),  # runs past the parent: clipped
        _span(5, 1, "replicate", 9.0, None),  # unfinished: ignored
    ]
    totals = layers.span_self_times(spans)
    assert totals["request"] == {"count": 1, "total_ms": 10.0, "self_ms": 4.0}
    assert totals["replicate"]["count"] == 2
    assert totals["replicate"]["total_ms"] == pytest.approx(7.0)
    assert totals["lock.wait"]["self_ms"] == pytest.approx(2.0)


def test_an_enclosed_root_of_the_same_trace_counts_as_a_child():
    spans = [
        _span(1, None, "rpc.call", 0.0, 5.0, trace="a"),
        _span(2, None, "request", 1.0, 4.5, trace="a"),
        _span(3, None, "request", 1.0, 4.5, trace="b"),  # other trace: unrelated
    ]
    totals = layers.span_self_times(spans)
    assert totals["rpc.call"]["self_ms"] == pytest.approx(1.5)
    assert totals["request"]["self_ms"] == pytest.approx(7.0)


# -- counter deltas ------------------------------------------------------------


def _platform(registry, **net):
    stats = SimpleNamespace(
        messages_sent=0, messages_dropped=0, frames_sent=0, bytes_sent=0, **net
    )
    return SimpleNamespace(metrics=registry, net=SimpleNamespace(stats=stats))


def test_counters_are_deltas_between_two_snapshots():
    registry = MetricsRegistry()
    sim = SimpleNamespace(events_scheduled=1_000)
    platform = _platform(registry)
    calls = [registry.counter("rpc_calls", {"node": f"c{i}"}) for i in range(2)]
    rounds = registry.counter("node_replication_rounds", {"node": "s0"})
    frames = registry.counter("replication_flush_total", {"node": "s0"})
    queue = [registry.gauge("scheduler_max_queue_length", {"node": f"s{i}"}) for i in range(2)]
    registry.histogram("rpc_call_ms", {"node": "c0"}).observe(3.0)
    for counter in calls:
        counter.inc(500)  # warm-up traffic: must not show in the deltas
    rounds.inc(70)
    frames.inc(50)
    before = layers.snapshot(sim, platform)

    sim.events_scheduled += 4_000
    platform.net.stats.messages_sent += 300
    platform.net.stats.frames_sent += 450
    platform.net.stats.bytes_sent += 30_000
    calls[0].inc(60)
    calls[1].inc(40)
    rounds.inc(30)
    frames.inc(20)
    queue[0].set(2)
    queue[1].set(5)
    after = layers.snapshot(sim, platform)

    assert "rpc_call_ms" not in after["families"]
    measured = layers.counter_metrics(
        before, after, jobs=100, host_s=2.0, sim_ms=50.0, variant=spec.AGGREGATED, cpu_cores=60
    )
    assert set(measured) <= {name for name, _unit, _better in spec.PER_LAYER}
    assert measured["sim.events_per_job"] == 40.0
    assert measured["sim.host_events_per_s"] == 2_000.0
    assert measured["sim.network.frames_per_wire_msg"] == 1.5
    assert measured["sim.network.bytes_per_wire_msg"] == 100.0
    assert measured["rpc.stub.calls_per_job"] == 1.0
    assert measured["cluster.replication.rounds_per_frame"] == 1.5
    assert measured["cluster.replication.frames_per_job"] == 0.2
    assert measured["cluster.scheduler.max_queue_length"] == 5
    assert measured["core.caching.hit_rate"] == 0.0  # family absent: reads 0

    baseline = layers.counter_metrics(
        before, after, jobs=100, host_s=2.0, sim_ms=50.0, variant=spec.DISAGGREGATED, cpu_cores=60
    )
    assert baseline["cluster.replication.frames_per_job"] == 0.0
    assert baseline["cluster.scheduler.max_queue_length"] == 0.0


# -- the acknowledged-write audit ----------------------------------------------


def test_missing_writes_on_a_read_back_with_holes():
    accounts = ["id-a", "id-b", "id-c"]
    acked_posts = {0: ["p1", "p2"], 1: ["p3"]}
    acked_follows = [(0, 1), (2, 1)]
    posts = {0: ["seed", "p1", "p2"], 1: ["p3", "p3"]}  # p3 stored twice
    timelines = {0: ["p1"], 1: ["p3"]}  # p2 never reached the timeline
    followers = {1: {"id-a"}}  # id-c's follow is gone
    misses = audit.missing_writes(accounts, acked_posts, acked_follows, posts, timelines, followers)
    assert len(misses) == 3
    assert any("'p2'" in line and "0x in timeline" in line for line in misses)
    assert any("'p3'" in line and "2x in posts" in line for line in misses)
    assert any("follow 2->1" in line for line in misses)


def test_audit_catches_a_dropped_post_on_a_live_cluster():
    from repro.bench.calibration import Calibration
    from repro.bench.harness import build_platform

    from benchmarks.ledger.loadgen import ClosedLoop, Dataset

    sim = Simulation(seed=3)
    platform = build_platform(spec.AGGREGATED, sim, Calibration(seed=3))
    dataset = Dataset(seed=3, num_accounts=50)
    dataset.load(platform)
    platform.start()
    loop = ClosedLoop(sim, platform, dataset, {"post": 0.5, "follow": 0.4, "timeline": 0.1}, 3, 8)
    sim.run_until_triggered(loop.start(end_ms=40.0), limit=10_000.0)
    assert platform.quiesce()
    assert loop.acked_posts and loop.acked_follows and loop.failures == 0

    client = platform.client("audit")

    def check():
        followees = sorted({followee for _follower, followee in loop.acked_follows})
        read = audit.read_back(sim, client, dataset.accounts, sorted(loop.acked_posts), followees)
        return audit.missing_writes(dataset.accounts, loop.acked_posts, loop.acked_follows, *read)

    assert check() == []
    author = next(iter(loop.acked_posts))
    loop.acked_posts[author].append("acknowledged but never stored")
    (miss,) = check()
    assert "never stored" in miss and "0x in posts" in miss and "0x in timeline" in miss


# -- --compare -----------------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [97.0, 98.0, 96.0, 97.5], "higher", 0.10, False)[0] == "ok"
    assert compare.verdict(steady, [80.0, 81.0, 79.0, 80.5], "higher", 0.10, False)[0] == "regressed"
    assert compare.verdict(steady, [120.0, 121.0], "higher", 0.10, False)[0] == "ok"  # improved
    noisy = [60.0, 100.0, 140.0, 80.0]
    assert compare.verdict(steady, noisy, "higher", 0.10, False)[0] == "unresolved"
    assert compare.verdict([5.0], [5.0], "lower", 0.02, True)[0] == "ok"
    assert compare.verdict([5.0], [5.0001], "lower", 0.02, True)[0] == "regressed"
    assert compare.worse_by(10.0, 11.0, "lower") == pytest.approx(0.10)
    assert compare.worse_by(10.0, 11.0, "higher") == pytest.approx(-0.10)
    assert compare.spread([3.0]) == 0.0


def _ledger(commit, host_jobs, post_median, events_per_job, seed=1, lag=9):
    end_to_end = {
        name: {"value": 1.0, "unit": unit, "values": [1.0]}
        for name, unit, _better, _bound in spec.LEDGER_END_TO_END
    }
    end_to_end["host_jobs_per_s"]["values"] = host_jobs
    end_to_end["sim_post_median_ms"]["values"] = [post_median]
    end_to_end["failed_share"]["values"] = [0.0]
    per_layer = {name: {"value": 1.0, "unit": unit} for name, unit, _better in spec.PER_LAYER}
    per_layer["sim.events_per_job"]["value"] = events_per_job
    return {
        "environment": {"seed": seed, "window_scale": 1 / 3, "commit": commit, "comparable": True},
        "workloads": {
            "agg_write_mix": {
                "end_to_end": end_to_end,
                "per_layer": per_layer,
                "replica_counter_lag_objects": lag,
            }
        },
    }


def test_compare_files_exit_codes(tmp_path, capsys):
    def write(name, ledger):
        path = tmp_path / name
        path.write_text(json.dumps(ledger))
        return str(path)

    steady = [1000.0, 1010.0, 990.0]
    base = write("a.json", _ledger("abc", steady, 7.5, 40.0))
    same = write("b.json", _ledger("abc", [980.0, 1000.0, 990.0], 7.5, 40.0))
    assert cli.main(["--compare", base, same]) == 0
    assert "regressed" not in capsys.readouterr().out.replace("0 regressed", "")

    slower = write("c.json", _ledger("abc", [800.0, 810.0, 805.0], 7.5, 40.0))
    assert cli.main(["--compare", base, slower]) == 1
    assert "host_jobs_per_s" in capsys.readouterr().out

    # same seed and commit: a simulated metric, exact counter or the
    # replica counter lag that moved at all fails
    drifted = write("d.json", _ledger("abc", steady, 7.5001, 40.0))
    assert cli.main(["--compare", base, drifted]) == 1
    recount = write("e.json", _ledger("abc", steady, 7.5, 41.0))
    assert cli.main(["--compare", base, recount]) == 1
    assert "sim.events_per_job" in capsys.readouterr().out
    lagging = write("f.json", _ledger("abc", steady, 7.5, 40.0, lag=10))
    assert cli.main(["--compare", base, lagging]) == 1
    assert "replica_counter_lag_objects" in capsys.readouterr().out

    # same seed, another commit: the issue's tight bounds (2% on a median)
    assert cli.main(["--compare", base, write("g.json", _ledger("def", steady, 7.6, 41.0))]) == 0
    assert cli.main(["--compare", base, write("h.json", _ledger("def", steady, 7.8, 40.0))]) == 1
    # another seed: the inputs differ, so the cross-seed bound (15%) applies
    other_seed = write("i.json", _ledger("def", steady, 7.8, 40.0, seed=2))
    assert cli.main(["--compare", base, other_seed]) == 0
    # failed_share may never rise
    failing = _ledger("def", steady, 7.5, 40.0)
    failing["workloads"]["agg_write_mix"]["end_to_end"]["failed_share"]["values"] = [0.001]
    assert cli.main(["--compare", base, write("j.json", failing)]) == 1
    assert "failed_share" in capsys.readouterr().out

    smoke = _ledger("abc", [1000.0], 7.5, 40.0)
    smoke["environment"]["comparable"] = False
    with pytest.raises(ValueError):
        compare.compare(smoke, smoke)


# -- end to end ----------------------------------------------------------------


def test_smoke_runs_every_workload_and_every_pass(tmp_path, capsys):
    out = tmp_path / "ledger.json"
    assert cli.main(["--smoke", "--seed", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "NOT comparable" in printed
    ledger = json.loads(out.read_text())
    assert ledger["environment"]["comparable"] is False
    assert ledger["environment"]["window_scale"] == spec.SMOKE_SCALE
    assert set(ledger["workloads"]) == {w.name for w in spec.WORKLOADS}
    for name, result in ledger["workloads"].items():
        assert result["failures"] == [] and result["failed"] == 0
        assert set(result["end_to_end"]) == {metric for metric, *_rest in spec.LEDGER_END_TO_END}
        assert all(len(entry["values"]) == 2 for entry in result["end_to_end"].values())
        assert set(result["per_layer"]) == {metric for metric, *_rest in spec.PER_LAYER}
        for metric, unit, *_rest in spec.LEDGER_END_TO_END + spec.PER_LAYER:
            assert f"{name} {metric} " in printed
            entry = result["end_to_end"].get(metric) or result["per_layer"][metric]
            assert entry["unit"] == unit
        jobs = result["info"]["per_layer"]["jobs"]
        assert jobs["untraced"] == jobs["profile"] == jobs["spans"] > 0
