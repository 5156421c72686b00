"""Tests for the history recorder and linearizability checker."""

import pytest

from repro.core.linearizability import HistoryRecorder, check_linearizable, register_model
from repro.errors import ReproError


def op(history, client, method, object_id, start, end, result=None, args=()):
    record = history.begin(client, object_id, method, args, start)
    history.finish(record, end, result)
    return record


def check(history):
    initial, apply_fn = register_model()
    return check_linearizable(history.invocations(), initial, apply_fn)


def test_empty_history_linearizable():
    assert check(HistoryRecorder())


def test_sequential_read_your_write():
    h = HistoryRecorder()
    op(h, "c1", "write", "x", 0, 1, args=(5,))
    op(h, "c1", "read", "x", 2, 3, result=5)
    assert check(h)


def test_stale_read_after_write_not_linearizable():
    h = HistoryRecorder()
    op(h, "c1", "write", "x", 0, 1, args=(5,))
    op(h, "c1", "read", "x", 2, 3, result=None)  # must see 5
    assert not check(h)


def test_concurrent_write_read_either_order_ok():
    h = HistoryRecorder()
    op(h, "c1", "write", "x", 0, 10, args=(1,))
    op(h, "c2", "read", "x", 5, 6, result=None)  # read may linearize first
    assert check(h)


def test_concurrent_read_sees_written_value_ok():
    h = HistoryRecorder()
    op(h, "c1", "write", "x", 0, 10, args=(1,))
    op(h, "c2", "read", "x", 5, 6, result=1)
    assert check(h)


def test_two_writes_and_ordered_reads():
    h = HistoryRecorder()
    op(h, "c1", "write", "x", 0, 1, args=(1,))
    op(h, "c1", "write", "x", 2, 3, args=(2,))
    op(h, "c2", "read", "x", 4, 5, result=2)
    op(h, "c2", "read", "x", 6, 7, result=2)
    assert check(h)


def test_value_reverting_not_linearizable():
    h = HistoryRecorder()
    op(h, "c1", "write", "x", 0, 1, args=(1,))
    op(h, "c1", "write", "x", 2, 3, args=(2,))
    op(h, "c2", "read", "x", 4, 5, result=2)
    op(h, "c2", "read", "x", 6, 7, result=1)  # went back in time
    assert not check(h)


def test_independent_targets():
    h = HistoryRecorder()
    op(h, "c1", "write", "x", 0, 1, args=(1,))
    op(h, "c2", "write", "y", 0, 1, args=(9,))
    op(h, "c1", "read", "y", 2, 3, result=9)
    op(h, "c2", "read", "x", 2, 3, result=1)
    assert check(h)


def test_initial_state_respected():
    initial, apply_fn = register_model({"x": 42})
    h = HistoryRecorder()
    op(h, "c1", "read", "x", 0, 1, result=42)
    assert check_linearizable(h.invocations(), initial, apply_fn)


def test_incomplete_operations_ignored():
    h = HistoryRecorder()
    pending = h.begin("c1", "x", "write", (1,), 0)
    op(h, "c2", "read", "x", 2, 3, result=None)
    assert h.incomplete() == [pending]
    assert check(h)
    assert not pending.completed


def test_finish_before_start_rejected():
    h = HistoryRecorder()
    record = h.begin("c1", "x", "read", (), 10)
    with pytest.raises(ReproError):
        h.finish(record, 5, None)


def test_unknown_op_kind_rejected():
    initial, apply_fn = register_model()
    h = HistoryRecorder()
    op(h, "c1", "cas", "x", 0, 1)
    with pytest.raises(ReproError):
        check_linearizable(h.invocations(), initial, apply_fn)


def test_search_budget_guard():
    h = HistoryRecorder()
    # Many fully concurrent conflicting reads force a large search space.
    op(h, "w", "write", "x", 0, 100, args=(1,))
    for i in range(12):
        op(h, f"r{i}", "read", "x", 0, 100, result=1 if i % 2 else None)
    initial, apply_fn = register_model()
    with pytest.raises(ReproError):
        check_linearizable(h.invocations(), initial, apply_fn, max_states=10)
