"""The driver's entry point: ``python3 benchmarks/ledger/run.py --workload
NAME --seed N --seconds S --trace 0|1`` from the root of a checkout.

The same command line as ``python -m benchmarks.ledger``; this file only
puts the checkout's ``src`` and root on the import path, because the
driver sets no ``PYTHONPATH``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
