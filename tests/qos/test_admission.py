"""AdmissionController units: gate order, bucket math, LRU, stats."""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.qos import AdmissionController, TokenBucket


def make(now=0.0, **kwargs):
    """Controller on a hand-cranked clock; returns (clock_cell, controller)."""
    clock = [now]
    return clock, AdmissionController(lambda: clock[0], **kwargs)


# -- TokenBucket -----------------------------------------------------------


def test_bucket_spends_burst_then_advises_exact_deficit():
    bucket = TokenBucket(rate_per_sec=100.0, burst=5.0, now=0.0)
    for _ in range(5):
        assert bucket.try_take(0.0) == 0.0
    # Empty at 0.1 tokens/ms: one token is 10 ms away, and the advised
    # wait is exactly that deficit (what RetryAfter carries to clients).
    assert bucket.try_take(0.0) == pytest.approx(10.0)


def test_bucket_refills_lazily_and_caps_at_burst():
    bucket = TokenBucket(rate_per_sec=100.0, burst=3.0, now=0.0)
    for _ in range(3):
        assert bucket.try_take(0.0) == 0.0
    assert bucket.try_take(0.0) > 0.0
    # 10 ms refills exactly one token.
    assert bucket.try_take(10.0) == 0.0
    # A long idle period refills to the burst cap, no further: after an
    # hour the fourth take still has to wait.
    assert bucket.try_take(3_600_000.0) == 0.0
    assert bucket.try_take(3_600_000.0) == 0.0
    assert bucket.try_take(3_600_000.0) == 0.0
    assert bucket.try_take(3_600_000.0) > 0.0


def test_bucket_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        TokenBucket(rate_per_sec=0.0, burst=1.0, now=0.0)


# -- gate order ------------------------------------------------------------


def test_concurrency_cap_sheds_until_release():
    _clock, ctrl = make(max_inflight=2)
    assert ctrl.admit("a").admitted
    assert ctrl.admit("a").admitted
    decision = ctrl.admit("a")
    assert not decision.admitted
    assert decision.reason == "concurrency"
    assert decision.retry_after_ms == AdmissionController.CONCURRENCY_RETRY_MS
    ctrl.release()
    assert ctrl.admit("a").admitted
    assert ctrl.inflight == 2


def test_concurrency_gate_checked_before_pressure_and_rate():
    _clock, ctrl = make(
        max_inflight=1,
        tenant_rate_per_sec=1.0,
        pressure_fn=lambda: 10_000,
        pressure_threshold=1,
    )
    assert ctrl.admit("a", readonly=True).admitted  # reads bypass pressure
    # With the cap full, the pressure and rate gates never run: the shed
    # is attributed to (and advised for) the concurrency gate, even for a
    # mutating request under heavy pressure.
    assert ctrl.admit("a", readonly=False).reason == "concurrency"
    assert ctrl.stats.shed_pressure == 0
    assert ctrl.stats.shed_rate == 0


def test_protect_reads_sheds_mutations_only():
    _clock, ctrl = make(pressure_fn=lambda: 50, pressure_threshold=32)
    decision = ctrl.admit("a", readonly=False)
    assert not decision.admitted
    assert decision.reason == "pressure"
    # Advised wait scales with the queue depth the probe reported.
    assert decision.retry_after_ms == pytest.approx(
        50 * AdmissionController.PRESSURE_RETRY_PER_WAITER_MS
    )
    # The read SLO is the thing being protected: reads keep flowing.
    assert ctrl.admit("a", readonly=True).admitted


# -- per-tenant rate gate --------------------------------------------------


def test_rate_gate_is_per_tenant_and_advises_refill_time():
    clock, ctrl = make(tenant_rate_per_sec=1_000.0, tenant_burst=4.0)
    for _ in range(4):
        assert ctrl.admit("hog").admitted
        ctrl.release()
    decision = ctrl.admit("hog")
    assert not decision.admitted
    assert decision.reason == "rate"
    # 1 token/ms: the empty bucket holds a full token in exactly 1 ms.
    assert decision.retry_after_ms == pytest.approx(1.0)
    # Another tenant's bucket is untouched by the hog.
    assert ctrl.admit("quiet").admitted
    # Sleeping the advised delay is exactly enough.
    clock[0] += decision.retry_after_ms
    assert ctrl.admit("hog").admitted


def test_tenant_buckets_are_lru_capped():
    _clock, ctrl = make(
        tenant_rate_per_sec=1_000.0, tenant_burst=1.0, max_tenants=2
    )
    for tenant in ("a", "b", "c"):
        assert ctrl.admit(tenant).admitted
        ctrl.release()
    assert len(ctrl._buckets) == 2
    assert "a" not in ctrl._buckets  # least recently admitting, evicted
    # An evicted tenant restarts with a full burst (errs in its favor):
    # its old bucket was empty, yet it is admitted immediately.
    assert ctrl.admit("a").admitted


def test_release_never_goes_negative():
    _clock, ctrl = make(max_inflight=1)
    ctrl.release()
    ctrl.release()
    assert ctrl.inflight == 0
    assert ctrl.admit("a").admitted
    assert not ctrl.admit("a").admitted  # the cap still holds at 1


# -- stats export ----------------------------------------------------------


def test_stats_exported_to_registry():
    registry = MetricsRegistry()
    clock = [0.0]
    ctrl = AdmissionController(
        lambda: clock[0],
        tenant_rate_per_sec=1_000.0,
        tenant_burst=1.0,
        registry=registry,
        labels={"node": "store-0"},
    )
    assert ctrl.admit("a").admitted
    assert not ctrl.admit("a").admitted  # rate shed
    labels = {"node": "store-0"}
    assert registry.get("admission_admitted", labels).value == 1
    assert registry.get("admission_shed_rate", labels).value == 1
    assert registry.get("admission_inflight", labels).value == 1
    assert registry.get("admission_tenants", labels).value == 1
    assert ctrl.stats.shed_total == 1
