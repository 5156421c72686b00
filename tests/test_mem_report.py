"""``tools/mem_report.py``: file ownership, and one smoke-window report
(its per-phase peaks, live heap by owner, the first replica's value
counts and top lines)."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mem_report", REPO_ROOT / "tools" / "mem_report.py")
mem_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mem_report)


def test_owner_names_the_package_the_benchmark_or_other():
    src = REPO_ROOT / "src" / "repro"
    assert mem_report.owner(str(src / "core" / "storage.py")) == "repro.core"
    assert mem_report.owner(str(src / "errors.py")) == "repro"
    assert mem_report.owner(str(REPO_ROOT / "benchmarks" / "ledger" / "loadgen.py")) == "benchmarks"
    assert mem_report.owner("/usr/lib/python3.11/json/decoder.py") == "other"


def test_smoke_report_sections_and_owner_sum():
    text = mem_report.report("disagg_write_mix", seed=1, seconds=10, smoke=True, top=3)
    lines = text.splitlines()
    total = float(lines[1].split(":")[1].split()[0])
    top_start = lines.index("top 3 allocating lines:")
    owners_start = lines.index("live MiB by owner:") + 1
    owners = lines[owners_start : lines.index("", owners_start)]
    assert {line.split()[2] for line in owners} >= {"repro.core", "benchmarks"}
    assert abs(sum(float(line.split()[0]) for line in owners) - total) < 0.01 * len(owners)
    top = lines[top_start + 1 :]
    assert len(top) == 3 and all(":" in line.split()[2] for line in top)
    # One traced peak per phase, in order; the measured window's peak is
    # at least what is live when it ends.
    peaks_start = lines.index("traced peak MiB by phase:")
    peaks = [line.split(None, 1) for line in lines[peaks_start + 1 : peaks_start + 4]]
    assert [name for _, name in peaks] == ["build + load", "warm-up", "measured window"]
    assert all(float(size) > 0 for size, _ in peaks)
    assert float(peaks[2][0]) >= total - 0.01
    assert lines[peaks_start + 4] == ""
    # The first replica's values, objects and contents, in that order.
    (counts,) = [line for line in lines if line.startswith("values in the first replica's")]
    assert counts.startswith("values in the first replica's store (storage-0): ")
    stored, objects, contents = (
        int(part.split()[0].replace(",", "")) for part in counts.split(": ")[1].split(", ")
    )
    assert stored >= objects >= contents > 0
