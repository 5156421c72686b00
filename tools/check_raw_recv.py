#!/usr/bin/env python
"""Fail if production code calls ``host.recv()`` outside the RPC layer.

Every mailbox in the system is owned by an :class:`repro.rpc.RpcEndpoint`
or :class:`repro.rpc.RpcStub`; a raw ``.recv(`` in feature code is a
regression to the hand-rolled pump/await pattern the RPC layer replaced
(and it bypasses dedupe, metrics, and the stale-waiter fix).

Allowlisted:

- ``src/repro/rpc/`` — the layer itself (stub pump, endpoint serve loop);
- ``src/repro/sim/`` — the primitive being wrapped;
- ``src/repro/cluster/replication.py`` — the group-commit pipeline keeps
  its own framed stream (frames still *ship* through the endpoint).

Tests may use raw hosts freely; only ``src/`` is scanned.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ALLOWLIST = (
    "src/repro/rpc/",
    "src/repro/sim/",
    "src/repro/cluster/replication.py",
)

RECV_CALL = re.compile(r"\.recv\(")


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    violations: list[str] = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if any(rel.startswith(prefix) for prefix in ALLOWLIST):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if RECV_CALL.search(line):
                violations.append(f"{rel}:{lineno}: {line.strip()}")
    if violations:
        print("raw host.recv() outside the RPC layer (route through")
        print("RpcEndpoint/RpcStub, or extend the allowlist in tools/check_raw_recv.py):")
        for violation in violations:
            print(f"  {violation}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
