"""Experiment definitions: every figure/table of the paper + ablations.

Each experiment builds fresh simulations, runs the measurement, and
returns a result dict with ``rows`` (machine-readable) and ``text``
(rendered).  The experiments live in one module per family;
:data:`ALL_EXPERIMENTS` is the one registry the CLI dispatches from.  The
mapping to the paper's artifacts is in DESIGN.md §4; measured-vs-paper
records live in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.bench.calibration import Calibration
from repro.bench.chaos import chaos_soak
from repro.bench.experiments.contention import abl_cache, abl_contention
from repro.bench.experiments.elasticity import abl_elasticity, abl_failover, abl_migration
from repro.bench.experiments.model_check import mc
from repro.bench.experiments.overload import abl_overload
from repro.bench.experiments.paper import abl_coldstart, fig1, fig2, run_matrix, table1
from repro.bench.experiments.replication import (
    abl_coalescing,
    abl_fanout,
    abl_group_commit,
    abl_replica_reads,
    abl_replication,
)


@dataclass(frozen=True)
class Experiment:
    """One registry entry: the experiment function, and whether it reads
    the (workload x variant) matrix that fig1, fig2 and table1 share."""

    run: Callable[..., dict]
    uses_matrix: bool = False


ALL_EXPERIMENTS = {
    "fig1": Experiment(fig1, uses_matrix=True),
    "fig2": Experiment(fig2, uses_matrix=True),
    "table1": Experiment(table1, uses_matrix=True),
    "abl_cache": Experiment(abl_cache),
    "abl_coalescing": Experiment(abl_coalescing),
    "abl_group_commit": Experiment(abl_group_commit),
    "abl_replica_reads": Experiment(abl_replica_reads),
    "abl_replication": Experiment(abl_replication),
    "abl_overload": Experiment(abl_overload),
    "abl_coldstart": Experiment(abl_coldstart),
    "abl_contention": Experiment(abl_contention),
    "abl_elasticity": Experiment(abl_elasticity),
    "abl_fanout": Experiment(abl_fanout),
    "abl_migration": Experiment(abl_migration),
    "abl_failover": Experiment(abl_failover),
    "chaos_soak": Experiment(chaos_soak),
    "mc": Experiment(mc),
}


def run_experiment(name: str, cal: Calibration, matrix: Optional[dict] = None) -> tuple[dict, float]:
    """Run one registry experiment; returns ``(result, wall_seconds)``.

    A matrix experiment reads ``matrix`` (or builds its own); the others
    ignore it.  This is also what ``--jobs`` ships to worker processes:
    the experiment builds its platforms inside the worker, and only the
    plain rows/text dict crosses the process boundary.
    """
    started = time.time()
    experiment = ALL_EXPERIMENTS[name]
    if experiment.uses_matrix:
        result = experiment.run(cal, matrix=matrix)
    else:
        result = experiment.run(cal)
    return result, time.time() - started


__all__ = ["ALL_EXPERIMENTS", "Experiment", "run_experiment", "run_matrix", *ALL_EXPERIMENTS]
