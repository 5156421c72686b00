"""Discrete-event simulation substrate.

This package provides the deterministic event-driven "hardware" the
distributed layers run on: simulated time, generator-based processes,
CPU-core resources, mailbox stores, and a message-passing network with
pluggable latency models.

The engine is intentionally SimPy-flavoured so the cluster code reads like
ordinary coroutine code::

    sim = Simulation(seed=7)

    def worker(sim):
        yield sim.timeout(1.5)
        print("done at", sim.now)

    sim.process(worker(sim))
    sim.run()
"""

from repro.sim.events import Event, AllOf, AnyOf
from repro.sim.process import Process
from repro.sim.core import RECOLLECT, FifoPolicy, SchedulerPolicy, Simulation, Timeout
from repro.sim.resources import Resource, Store
from repro.sim.network import (
    BimodalLatency,
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    Network,
    NetworkHost,
    UniformLatency,
)
from repro.sim.rand import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "BimodalLatency",
    "ConstantLatency",
    "Event",
    "FifoPolicy",
    "LatencyModel",
    "LogNormalLatency",
    "Network",
    "NetworkHost",
    "Process",
    "RECOLLECT",
    "RandomStreams",
    "Resource",
    "SchedulerPolicy",
    "Simulation",
    "Store",
    "Timeout",
    "UniformLatency",
]
