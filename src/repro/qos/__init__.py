"""Overload protection and multi-tenant QoS at the storage nodes.

This package gives LambdaStore's storage nodes the machinery to
*degrade* instead of collapse under open-loop overload: per-tenant token
buckets, concurrency caps, and backpressure-driven load shedding that
protects read SLOs during write storms.  Shed requests are answered with :class:`repro.rpc.RetryAfter`
so clients sleep the server-advised delay instead of blindly backing
off.  See DESIGN.md §5h.
"""

from repro.qos.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionStats,
    TokenBucket,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionStats",
    "TokenBucket",
]
