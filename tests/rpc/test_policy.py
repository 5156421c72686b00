"""Retry-policy schedules: shape and historical parity."""

import pytest

from repro.rpc import LinearJitterBackoff, RetryPolicy
from repro.sim import Simulation


def test_base_policy_is_single_attempt_no_delay():
    policy = RetryPolicy()
    assert policy.max_attempts == 1
    assert policy.delay_ms(0, None) == 0.0  # never touches the rng


def test_retry_policy_zero_delay_for_any_attempt():
    policy = RetryPolicy(max_attempts=10)
    assert [policy.delay_ms(a, None) for a in range(10)] == [0.0] * 10


def test_linear_jitter_matches_historical_client_schedule():
    """Draw-for-draw the cluster client's old ``uniform(0.1, 0.5) *
    (1 + attempt)`` backoff, from the same stream state."""
    policy_rng = Simulation(seed=3).rng("client.c0")
    legacy_rng = Simulation(seed=3).rng("client.c0")
    policy = LinearJitterBackoff(40)
    for attempt in range(12):
        assert policy.delay_ms(attempt, policy_rng) == pytest.approx(
            legacy_rng.uniform(0.1, 0.5) * (1 + attempt)
        )


def test_policies_reject_nonpositive_attempts():
    with pytest.raises(ValueError):
        RetryPolicy(0)
    with pytest.raises(ValueError):
        LinearJitterBackoff(-1)
