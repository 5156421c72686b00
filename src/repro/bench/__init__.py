"""Reproduction harness: one entry per table/figure in the paper.

Run from the command line::

    python -m repro.bench fig1          # Figure 1: ReTwis throughput
    python -m repro.bench fig2          # Figure 2: ReTwis latency
    python -m repro.bench table1        # Table 1: architecture comparison
    python -m repro.bench abl_cache     # ablations (see DESIGN.md §4)
    python -m repro.bench all --preset full

or programmatically::

    from repro.bench import experiments
    result = experiments.fig1(preset="quick")
"""

from repro.bench.calibration import Calibration, PAPER_FIG1, PAPER_FIG2_CLAIMS, preset

__all__ = ["Calibration", "PAPER_FIG1", "PAPER_FIG2_CLAIMS", "preset"]
