"""``PYTHONPATH=src python -m benchmarks.ledger`` (see :mod:`benchmarks.ledger.cli`)."""

import sys

from benchmarks.ledger.cli import main

sys.exit(main())
