"""Microshards and the shard map.

Each object is its own microshard (paper §4.2): the shard map assigns
every object id to a *replica set* (one primary + backups).  Default
placement is deterministic rendezvous hashing over replica sets, with an
override table for objects that migrated — exactly the property the paper
wants from microsharding: most objects need no per-object state, and any
single object can move without touching the others.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.core.ids import ObjectId
from repro.errors import ShardUnavailableError


@dataclass
class ReplicaSet:
    """One replication group of storage nodes."""

    shard_id: int
    primary: str
    backups: list[str] = field(default_factory=list)

    @property
    def members(self) -> list[str]:
        return [self.primary] + self.backups

    def has_member(self, node: str) -> bool:
        """``node in self.members``, without building the list."""
        return node == self.primary or node in self.backups

    def read_replicas(self) -> list[str]:
        """Nodes eligible to serve lease-based replica reads: the backups
        when there are any, otherwise the primary itself."""
        return list(self.backups) if self.backups else [self.primary]

    def copy(self) -> "ReplicaSet":
        return ReplicaSet(self.shard_id, self.primary, list(self.backups))


@dataclass
class ShardMap:
    """Assignment of objects to replica sets, plus migration overrides."""

    replica_sets: list[ReplicaSet] = field(default_factory=list)
    #: objects explicitly placed off their hash-default replica set
    overrides: dict[str, int] = field(default_factory=dict)
    #: memoised rendezvous hashes plus the replica sets they were computed
    #: over; invalidated when replica sets are added, removed or replaced
    #: (membership changes within a set do not move hash-default objects,
    #: and nothing renumbers a set that is in a map)
    _hash_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _hash_cache_sets: list = field(default_factory=list, init=False, repr=False, compare=False)

    def copy(self) -> "ShardMap":
        return ShardMap(
            replica_sets=[rs.copy() for rs in self.replica_sets],
            overrides=dict(self.overrides),
        )

    def replica_set(self, shard_id: int) -> ReplicaSet:
        replica_set = self.replica_set_or_none(shard_id)
        if replica_set is None:
            raise ShardUnavailableError(f"no replica set with shard id {shard_id}")
        return replica_set

    def replica_set_or_none(self, shard_id: int) -> Optional[ReplicaSet]:
        """Like :meth:`replica_set`, but None when the shard left the map
        (reconfiguration callers — e.g. the replication pipeline deciding
        whether its node still leads a shard — treat that as 'deposed',
        not as an error)."""
        for replica_set in self.replica_sets:
            if replica_set.shard_id == shard_id:
                return replica_set
        return None

    def shard_for(self, object_id: ObjectId) -> ReplicaSet:
        """The replica set owning ``object_id``."""
        if not self.replica_sets:
            raise ShardUnavailableError("shard map has no replica sets")
        override = self.overrides.get(str(object_id)) if self.overrides else None
        if override is not None:
            return self.replica_set(override)
        return self.replica_set(self.default_shard_id(object_id))

    def default_shard_id(self, object_id: ObjectId) -> int:
        """Rendezvous hash of the object over all replica sets (memoised)."""
        # List equality stops at element identity, so checking that the
        # memo still describes this list allocates nothing.
        if self.replica_sets != self._hash_cache_sets:
            self._hash_cache = {}
            self._hash_cache_sets = list(self.replica_sets)
        shard = self._hash_cache.get(object_id)
        if shard is None:
            best_shard = -1
            best_weight = b""
            for replica_set in self.replica_sets:
                weight = hashlib.blake2b(
                    f"{object_id}:{replica_set.shard_id}".encode(), digest_size=8
                ).digest()
                if weight > best_weight:
                    best_weight = weight
                    best_shard = replica_set.shard_id
            shard = best_shard
            self._hash_cache[object_id] = shard
        return shard

    def primary_for(self, object_id: ObjectId) -> str:
        return self.shard_for(object_id).primary

    def move_override(self, object_id: ObjectId, shard_id: int) -> None:
        """Record that an object now lives on ``shard_id``.

        Clears the override when the object moves back to its hash-default
        home, keeping the override table minimal.
        """
        self.replica_set(shard_id)  # validate
        if self.default_shard_id(object_id) == shard_id:
            self.overrides.pop(str(object_id), None)
        else:
            self.overrides[str(object_id)] = shard_id

    def nodes(self) -> list[str]:
        """Every storage node referenced by the map."""
        seen: list[str] = []
        for replica_set in self.replica_sets:
            for member in replica_set.members:
                if member not in seen:
                    seen.append(member)
        return seen

    def shard_of_node(self, node: str) -> Optional[ReplicaSet]:
        """The replica set ``node`` belongs to, if any."""
        for replica_set in self.replica_sets:
            if replica_set.has_member(node):
                return replica_set
        return None
