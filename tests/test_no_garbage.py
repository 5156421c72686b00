"""Noise-free guards: a run leaves nothing for the cycle collector and
nothing dead in the scheduler (DESIGN.md §5p).

Both are exact for a fixed seed.  With the collector off, whatever a
Retwis run leaves unreachable is what reference counting could not free
— at the commit before §5p some 60 to 90 objects per job: an
``InvocationContext``/``Instance`` pair per invocation, every finished
``Process`` and every deadline wait; and the heap then held one 1,000 ms
reply timer per call ever made.
"""

import gc

import pytest

from repro.bench.calibration import preset
from repro.bench.harness import AGGREGATED, DISAGGREGATED, run_replication_mix
from repro.sim.core import CANCELLED_TIMEOUTS_FLOOR

#: a few hundred jobs: enough that a per-job leak is in the thousands
CAL = preset("quick", num_accounts=200, num_clients=10, duration_ms=150.0, warmup_ms=30.0)

#: unreachable objects tolerated after a run — a constant, not a rate
#: (the runs below leave none; the parent commit left 62,204, 62,485
#: and 6,575)
GARBAGE_CEILING = 50


@pytest.mark.parametrize(
    "variant, overrides, least_jobs",
    [
        (AGGREGATED, {"enable_cache": True}, 500),
        (AGGREGATED, {"enable_cache": False}, 500),
        (DISAGGREGATED, {}, 100),
    ],
    ids=["aggregated-cached", "aggregated-uncached", "serverless"],
)
def test_a_run_leaves_no_cyclic_garbage_and_no_dead_timers(variant, overrides, least_jobs):
    gc.collect()
    gc.disable()
    try:
        result, platform, sim = run_replication_mix(CAL, variant, **overrides)
        # platform, sim and result stay referenced: only what the run
        # itself dropped can be unreachable.
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert result.total_completed >= least_jobs
    assert unreachable <= GARBAGE_CEILING

    heap = len(sim._queue)
    live = heap - sim._cancelled
    assert heap <= CANCELLED_TIMEOUTS_FLOOR + 2 * live
    # After the last reply only periodic timers (heartbeats, flushes) are
    # live; a deadline left to run out uncancelled would count here, one
    # per call made.
    assert live <= 2 * CAL.num_clients
