"""Row goldens: every paper and ablation experiment, pinned exactly.

Each experiment in the registry (except ``mc``, whose rows carry wall
clock, and ``chaos_soak``, a confidence run rather than a measurement)
runs at the micro scale of ``test_experiments_micro.py`` and must return
exactly the rows and text recorded in ``experiment_rows_micro.json``.
Every run is a fixed-seed simulation, so nothing here depends on the
host: a change to the bench layer that keeps its output byte-identical
passes unedited, and one that moves a number names the experiment.

``PYTHONPATH=src python tests/bench/test_experiment_rows.py`` re-captures
the JSON file from the checkout it runs against; do that only on purpose
and say why.
"""

import json
from pathlib import Path

import pytest

from repro.bench import experiments
from repro.bench.calibration import preset

MICRO = preset(
    "quick", num_accounts=40, num_clients=4, duration_ms=60.0, warmup_ms=10.0, avg_follows=3
)

GOLDEN_PATH = Path(__file__).with_name("experiment_rows_micro.json")

PINNED = (
    "fig1",
    "fig2",
    "table1",
    "abl_cache",
    "abl_coalescing",
    "abl_group_commit",
    "abl_replica_reads",
    "abl_replication",
    "abl_overload",
    "abl_coldstart",
    "abl_contention",
    "abl_elasticity",
    "abl_fanout",
    "abl_migration",
    "abl_failover",
)

#: result keys left out of the golden: live run objects (``matrix``) and
#: the elasticity run's raw latency samples, which its rows summarise
UNPINNED_KEYS = ("matrix", "raw")


def _pinned(result: dict) -> dict:
    return {key: value for key, value in result.items() if key not in UNPINNED_KEYS}


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


def _measure(name: str) -> dict:
    return _pinned(getattr(experiments, name)(MICRO))


def test_every_registry_experiment_but_mc_and_chaos_soak_is_pinned():
    assert set(experiments.ALL_EXPERIMENTS) - {"mc", "chaos_soak"} == set(PINNED)


@pytest.mark.parametrize("name", PINNED)
def test_experiment_rows_match_their_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    measured = json.loads(_canonical(_measure(name)))
    moved = sorted(
        key
        for key in golden.keys() | measured.keys()
        if _canonical(golden.get(key)) != _canonical(measured.get(key))
    )
    assert not moved, f"{name}: result keys moved from the golden: {moved}"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        _canonical({name: _measure(name) for name in PINNED}) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
