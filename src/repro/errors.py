"""Exception hierarchy shared across all repro subsystems.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at API boundaries.  Subsystems define
narrower subclasses here (rather than in their own modules) to avoid import
cycles between e.g. the cluster layer and the core model.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Simulation substrate
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """A problem inside the discrete-event simulation engine."""


class ProcessKilled(SimulationError):
    """Raised inside a simulated process when it is externally interrupted."""


# ---------------------------------------------------------------------------
# Key-value store
# ---------------------------------------------------------------------------


class KVError(ReproError):
    """Base class for key-value store failures."""


class CorruptionError(KVError):
    """Persistent state failed an integrity check (bad CRC, framing, ...)."""


class NotFoundError(KVError):
    """The requested key does not exist."""


class DBClosedError(KVError):
    """An operation was attempted on a closed database handle."""


class ReadOnlyError(KVError):
    """A write was attempted through a read-only handle or snapshot."""


# ---------------------------------------------------------------------------
# WebAssembly-like runtime
# ---------------------------------------------------------------------------


class WasmError(ReproError):
    """Base class for sandbox failures: traps during a guest call, and
    link errors in an object type's method table."""


class Trap(WasmError):
    """The guest function trapped; the invocation must be aborted."""


class FuelExhausted(Trap):
    """The invocation ran out of metered fuel."""


class MemoryLimitExceeded(Trap):
    """The invocation exceeded its guest-memory allowance."""


class LinkError(WasmError):
    """An object type's method table cannot serve a call: a duplicate,
    missing or non-callable method, or a type with no methods."""


# ---------------------------------------------------------------------------
# LambdaObjects core model
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """Base class for LambdaObjects data-model violations."""


class UnknownTypeError(ModelError):
    """Referenced an object type that is not registered."""


class UnknownFieldError(ModelError):
    """A method accessed a field the object type does not declare."""


class UnknownMethodError(ModelError):
    """Invoked a method the object type does not define."""


class UnknownObjectError(ModelError):
    """Referenced an object id that does not exist."""


class ObjectExistsError(ModelError):
    """Attempted to create an object under an id that is already taken."""


class AccessViolation(ModelError):
    """A method tried to modify data outside its own object."""


class ReadOnlyViolation(ModelError):
    """A method declared ``@readonly`` attempted a write."""


class PrivateMethodError(ModelError):
    """A non-public method was invoked from outside its own object."""


class InvocationError(ReproError):
    """A function invocation failed; carries the guest-side cause."""


# ---------------------------------------------------------------------------
# Cluster / LambdaStore
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """Base class for distributed-layer failures."""


class ShardUnavailableError(ClusterError):
    """No live replica set currently serves the shard (mid-reconfiguration)."""


class RequestTimeout(ClusterError):
    """A client request exceeded its deadline without a response."""


class InvocationFailed(ClusterError):
    """The cluster answered, but the invocation itself failed.

    Distinct from :class:`RequestTimeout`: the request *did* reach a node
    and was definitively rejected with a non-retryable application error
    ("insufficient funds", unknown method, ...).  ``error`` carries the
    server-side error text verbatim.
    """

    def __init__(self, message: str, error: str = "") -> None:
        super().__init__(message)
        self.error = error


# ---------------------------------------------------------------------------
# Serverless baseline
# ---------------------------------------------------------------------------


class ServerlessError(ReproError):
    """Base class for the disaggregated baseline platform."""


class NoCapacityError(ServerlessError):
    """The container pool could not admit the invocation."""
