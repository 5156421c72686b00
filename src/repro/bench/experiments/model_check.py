"""Model checking: the ``mc`` experiment drives :mod:`repro.mc` over
every protocol variant and writes ``BENCH_mc.json``."""

from __future__ import annotations

import json

from repro.bench.calibration import CalibrationLike, resolve
from repro.bench.report import format_comparison
from repro.mc import McBudget, McConfig, explore

#: model-checking configurations swept by the ``mc`` experiment; every
#: §3.1-relevant protocol variant gets an exhaustive small-config pass
_MC_CONFIGS = (
    ("group-commit", dict()),
    ("replica-reads", dict(replica_reads=True)),
    ("coalescing", dict(ops_per_client=1, transport_coalescing=True)),
    ("crash-recovery", dict(ops_per_client=1, max_crashes=1)),
)

#: the seeded-bug sensitivity probe: two writers race while a third
#: client reads the first register at a replica (see repro.mc tests)
_MC_SEEDED_PLANS = (
    ((0, "write", ("a",)),),
    ((1, "write", ("b",)),),
    ((0, "read", ()), (0, "read", ())),
)


def _explore_both(label: str, config: McConfig, budget: McBudget) -> tuple[dict, list]:
    """Explore ``config`` with sleep-set/DPOR + fingerprint reduction and
    naively; returns its row and the counterexamples either run found."""
    reduced = explore(config, budget)
    naive = explore(config, budget, use_sleep_sets=False, use_fingerprints=False)
    counterexamples = [
        dict(c.to_json(), config=label)
        for report in (reduced, naive)
        for c in report.counterexamples
    ]
    row = {
        "config": label,
        "schedules": reduced.schedules_run,
        "checked": reduced.schedules_checked,
        "pruned": reduced.sleep_pruned + reduced.fingerprint_pruned,
        "naive_schedules": naive.schedules_run,
        "dpor_ratio": round(naive.schedules_run / max(1, reduced.schedules_run), 1),
        "exhausted": reduced.exhausted and naive.exhausted,
        "violations": len(reduced.counterexamples) + len(naive.counterexamples),
        "wall_s": round(reduced.wall_s + naive.wall_s, 1),
    }
    return row, counterexamples


def mc(cal: CalibrationLike = None, out_path: str = "BENCH_mc.json") -> dict:
    """Exhaustively model-check the §3.1 guarantees on small configs.

    For every protocol variant, the ``repro.mc`` explorer enumerates all
    data-plane delivery orders (and fail-stop crash points, where
    budgeted) of a 2-object/2-node workload, asserting linearizability,
    replica convergence, cache coherence, and bookkeeping on each
    schedule.  Each config is explored twice — naive DFS and
    sleep-set/DPOR + fingerprint reduction — so the row reports the
    pruning ratio alongside the verdict.  A final sensitivity probe
    reintroduces the historical drain-invalidation bug behind the test-only
    ``seeded_bugs`` flag and reports how quickly the explorer finds a
    counterexample (the detector must not be vacuous).
    """
    cal = resolve(cal)
    full = cal.duration_ms > 500.0  # the "full" preset adds a 3-node pass
    budget = McBudget(max_schedules=50_000, max_wall_s=240.0 if full else 90.0)
    configs = list(_MC_CONFIGS)
    if full:
        configs.append(("group-commit-3node", dict(num_nodes=3, ops_per_client=1)))

    rows = []
    counterexamples = []
    for label, overrides in configs:
        row, found = _explore_both(label, McConfig(**overrides), budget)
        rows.append(row)
        counterexamples.extend(found)

    seeded = McConfig(
        num_nodes=2,
        num_objects=2,
        replica_reads=True,
        plans=_MC_SEEDED_PLANS,
        seeded_bugs=("drain-invalidation",),
    )
    probe = explore(seeded, budget)
    sensitivity = {
        "config": "seeded drain-invalidation (expected counterexample)",
        "schedules": probe.schedules_run,
        "checked": probe.schedules_checked,
        "found": bool(probe.counterexamples),
        "violations": len(probe.counterexamples),
    }

    violation_count = sum(row["violations"] for row in rows)
    not_exhausted = [row["config"] for row in rows if not row["exhausted"]]
    text = format_comparison(
        "Model checking: exhaustive interleavings, §3.1 assertions per schedule",
        rows,
    )
    text += (
        f"\n  schedule-space verdict: {violation_count} violation(s); "
        + ("every config exhausted" if not not_exhausted
           else f"budget exhausted first on {', '.join(not_exhausted)}")
    )
    text += (
        f"\n  seeded-bug sensitivity: drain-invalidation counterexample "
        + (f"found after {sensitivity['schedules']} schedules"
           if sensitivity["found"] else "NOT FOUND (detector is vacuous!)")
    )

    # wall time is printed, never written: a rerun leaves the file byte-identical
    payload = {
        "rows": [{k: v for k, v in row.items() if k != "wall_s"} for row in rows],
        "sensitivity": sensitivity,
        "counterexamples": counterexamples,
        "seeded_counterexample": (
            probe.counterexamples[0].to_json() if probe.counterexamples else None
        ),
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
    text += f"\n  schedules + counterexample traces written to {out_path}"

    return {
        "name": "mc",
        "rows": rows,
        "text": text,
        "violation_count": violation_count,
        "sensitivity_ok": sensitivity["found"],
    }
