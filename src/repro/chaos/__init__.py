"""Chaos harness: nemesis fault injection plus consistency checking.

Jepsen-style testing for the simulated LambdaStore cluster: a
:class:`Nemesis` injects randomized (but seed-deterministic) faults while
clients record their invocations in a
:class:`~repro.core.linearizability.HistoryRecorder`; afterwards a
:class:`ConsistencyChecker` validates invocation linearizability, replica
convergence, cache coherence, and bounded-bookkeeping invariants.
"""

from repro.chaos.checker import ConsistencyChecker, ConsistencyReport, Violation
from repro.chaos.nemesis import Nemesis, NemesisConfig
from repro.chaos.workload import ScenarioResult, register_type, run_scenario

__all__ = [
    "ConsistencyChecker",
    "ConsistencyReport",
    "Nemesis",
    "NemesisConfig",
    "ScenarioResult",
    "Violation",
    "register_type",
    "run_scenario",
]
