"""End-to-end acceptance checks for the observability layer.

Executable versions of the ISSUE-2 acceptance criteria:

- the span tracer reconstructs the full nested-call tree — caller →
  callee across storage nodes, including the §3.1 caller-commit split —
  for one cross-object ``bank.transfer`` request;
- the ``--metrics-out`` payload carries per-node, scheduler, cache,
  kvstore, and replication totals for *both* LambdaStore and the
  serverless baseline, and is JSON-serializable as written.
"""

from __future__ import annotations

import json
from dataclasses import replace

from repro.apps.bank import account_type
from repro.bench.calibration import preset
from repro.bench.harness import VARIANTS
from repro.bench.observability import collect_observability
from repro.cluster import Cluster, ClusterConfig
from repro.sim import Simulation

FAMILY_PREFIXES = ("node_", "scheduler_", "cache_", "kvstore_", "replication_")


def _build_cluster(sim: Simulation) -> Cluster:
    cluster = Cluster(
        sim,
        ClusterConfig(num_storage_nodes=4, num_shards=2, enable_cache=True, seed=7),
    )
    cluster.register_type(account_type())
    return cluster


def _cross_shard_accounts(cluster: Cluster):
    """Two account ids living in different replica sets (different primaries)."""
    payer = cluster.create_object("Account", initial={"balance": 100})
    home = cluster.bootstrap_shard_map.shard_for(payer).shard_id
    while True:
        payee = cluster.create_object("Account", initial={"balance": 5})
        if cluster.bootstrap_shard_map.shard_for(payee).shard_id != home:
            return payer, payee


class TestTransferSpanTree:
    def _run_transfer(self):
        sim = Simulation(seed=7)
        cluster = _build_cluster(sim)
        tracer = cluster.enable_tracing()
        payer, payee = _cross_shard_accounts(cluster)
        client = cluster.client("acct")
        result = cluster.run_invoke(client, payer, "transfer", payee, 30)
        assert result is True

        # Let the asynchronous fuel settlement at the payee's owner land.
        def drain():
            yield sim.timeout(100.0)

        sim.run_until_triggered(sim.process(drain()), limit=sim.now + 10_000)
        trace_id = next(
            t
            for t in tracer.trace_ids()
            for root in tracer.roots(t)
            if root.name == "request" and root.attrs.get("method") == "transfer"
        )
        return tracer, trace_id

    def test_reconstructs_cross_node_nested_call_tree(self):
        tracer, trace_id = self._run_transfer()
        spans = tracer.trace(trace_id)

        def find(name, **attrs):
            return [
                s
                for s in spans
                if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())
            ]

        root = next(s for s in tracer.roots(trace_id) if s.name == "request")
        assert root.attrs["method"] == "transfer"
        caller_node = root.node

        transfer = find("invoke", method="transfer")[0]
        assert transfer.parent_id == root.span_id
        assert transfer.node == caller_node

        # §3.1 caller-commit split: the caller's writes commit *before*
        # each nested call runs, as their own child span of the caller.
        pre_commits = [
            s
            for s in find("commit", reason="pre-nested")
            if s.parent_id == transfer.span_id
        ]
        assert pre_commits

        # The nested cross-object deposit executes at the payee's owner —
        # a different storage node, same trace.
        deposits = [
            s for s in find("invoke", method="deposit")
            if s.parent_id == transfer.span_id
        ]
        assert deposits
        deposit = deposits[0]
        assert deposit.node != caller_node
        assert any(pre.start_ms <= deposit.start_ms for pre in pre_commits)

        # The callee's own commit nests under its invoke span.
        assert any(
            c.parent_id == deposit.span_id for c in find("commit", reason="final")
        )

        # Replication and the remote fuel charge hang off the request root.
        assert any(s.parent_id == root.span_id for s in find("replicate"))
        assert any(s.parent_id == root.span_id for s in find("remote_charge"))

    def test_remote_settlement_joins_trace_as_second_root(self):
        tracer, trace_id = self._run_transfer()
        settles = [s for s in tracer.trace(trace_id) if s.name == "remote_charge.settle"]
        assert settles, "owner-side settlement should correlate by request_id"
        roots = tracer.roots(trace_id)
        assert settles[0] in roots
        assert settles[0].finished

    def test_render_shows_the_whole_story(self):
        tracer, trace_id = self._run_transfer()
        rendered = tracer.render(trace_id)
        for needle in (
            "request",
            "lock.wait",
            "method=transfer",
            "reason=pre-nested",
            "method=deposit",
            "replicate",
            "remote_charge",
        ):
            assert needle in rendered, rendered


class TestMetricsOutPayload:
    def test_both_variants_export_all_five_families(self):
        cal = replace(
            preset("quick"),
            duration_ms=250.0,
            warmup_ms=25.0,
            num_clients=3,
            num_accounts=30,
        )
        payload = collect_observability(cal)
        assert set(payload["variants"]) == set(VARIANTS)
        for variant in VARIANTS:
            bundle = payload["variants"][variant]
            names = {m["name"] for m in bundle["metrics"]}
            for prefix in FAMILY_PREFIXES:
                assert any(n.startswith(prefix) for n in names), (variant, prefix)
            assert bundle["spans"]["traces"] > 0
            assert bundle["spans"]["slowest_trace_tree"]
            assert bundle["report"]["completed"] > 0
        json.dumps(payload)  # exactly what --metrics-out writes


class TestCliWiring:
    def test_metrics_out_flag_writes_payload(self, tmp_path, monkeypatch):
        import repro.bench.observability as obs
        from repro.bench.__main__ import main

        # The real collection reruns both architectures; stub it so this
        # test only covers the CLI wiring (flag -> file -> experiments).
        monkeypatch.setattr(
            obs,
            "collect_observability",
            lambda cal, workload_name=None: {"kind": "observability", "variants": {}},
        )
        out = tmp_path / "metrics.json"
        assert main(["abl_coldstart", "--metrics-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "observability"
        assert "abl_coldstart" in payload["experiments"]
