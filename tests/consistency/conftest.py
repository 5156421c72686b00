"""Shared helpers for the chaos/consistency suite."""

from repro.sim import BimodalLatency


def use_bimodal_latency(cluster):
    """``post_build`` hook: aggressive reordering on every link."""
    cluster.net.latency = BimodalLatency(fast_ms=0.05, slow_ms=2.0, slow_probability=0.3)
