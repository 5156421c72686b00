"""``--compare A.json B.json``: did B get worse than A, metric by metric.

Per workload and end-to-end metric the verdict is ``ok``, ``regressed``
(B's median is worse than A's by more than the bound) or ``unresolved``
(the run-to-run spread of either side is wider than the bound, so the
pair cannot tell).  Which bound applies depends on what the two files
share:

- another seed or window scale: the inputs differ, so the cross-seed
  bounds of ``BENCHMARK.json`` (``spec.END_TO_END``);
- the same seed and scale: the inputs are identical, so the tight bounds
  of ``spec.SAME_SEED_BOUND``;
- the same commit as well: every simulated-clock metric, exact counter
  and the replica counter lag must be *equal*; a difference there is a
  regression (lost determinism).
"""

from __future__ import annotations

from statistics import median, quantiles

from benchmarks.ledger.spec import (
    EXACT_PER_LAYER,
    HOST_METRICS,
    LEDGER_END_TO_END,
    SAME_SEED_BOUND,
)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    first, _second, third = quantiles(values, n=4)
    middle = median(values)
    return (third - first) / abs(middle) if middle else 0.0


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is, as a share of ``before`` (negative
    when it improved)."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def verdict(
    before: list[float], after: list[float], better: str, bound: float, exact: bool
) -> tuple[str, float]:
    """``(verdict, worse-by share)`` for one metric on one workload."""
    change = worse_by(median(before), median(after), better)
    if exact:
        return ("ok" if median(before) == median(after) else "regressed"), change
    if max(spread(before), spread(after)) > bound:
        return "unresolved", change
    return ("regressed" if change > bound else "ok"), change


def compare(ledger_a: dict, ledger_b: dict) -> tuple[list[str], int]:
    """The report lines and the number of regressions."""
    env_a, env_b = ledger_a["environment"], ledger_b["environment"]
    if not (env_a["comparable"] and env_b["comparable"]):
        raise ValueError("a --smoke ledger is not comparable")
    same_inputs = (env_a["seed"], env_a["window_scale"]) == (env_b["seed"], env_b["window_scale"])
    exact = same_inputs and env_a["commit"] == env_b["commit"] != "unknown"
    lines = [
        f"same seed and window scale: {'yes' if same_inputs else 'no'} "
        f"({'same-seed' if same_inputs else 'cross-seed'} bounds); "
        f"same commit too: {'yes' if exact else 'no'} "
        f"(exact metrics {'must be equal' if exact else 'are held to their bounds'})"
    ]
    regressions = 0
    for name, side_a in ledger_a["workloads"].items():
        side_b = ledger_b["workloads"].get(name)
        if side_b is None:
            lines.append(f"{name}: missing from the second ledger")
            regressions += 1
            continue
        lines.append(f"{name}:")
        for metric, unit, better, bound in LEDGER_END_TO_END:
            if same_inputs:
                bound = SAME_SEED_BOUND[metric]
            values_a = side_a["end_to_end"][metric]["values"]
            values_b = side_b["end_to_end"][metric]["values"]
            result, change = verdict(
                values_a, values_b, better, bound, exact and metric not in HOST_METRICS
            )
            regressions += result == "regressed"
            lines.append(
                f"  {metric:26s} {median(values_a):14.6f} -> {median(values_b):14.6f} {unit:9s} "
                f"worse by {change:+8.3%}  bound {bound:5.1%}  {result}"
            )
        if exact:
            pairs = [
                (metric, side_a["per_layer"][metric]["value"], side_b["per_layer"][metric]["value"])
                for metric in EXACT_PER_LAYER
            ]
            lag = "replica_counter_lag_objects"
            pairs.append((lag, side_a[lag], side_b[lag]))
            for metric, value_a, value_b in pairs:
                if value_a != value_b:
                    regressions += 1
                    lines.append(f"  {metric:26s} {value_a!r} != {value_b!r}  regressed (exact)")
    return lines, regressions
