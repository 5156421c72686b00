"""The ledger's own load generator: follower graph, op stream, closed loop.

Everything random here is drawn from ``random.Random`` instances seeded
from ``--seed``; the platform under test receives only the generated
accounts and operations.  The loop is closed (each simulated client
sends its next request only after the previous reply) because the
paper's callers each wait for a reply.
"""

from __future__ import annotations

import random
from typing import Any

from repro.apps.retwis import user_type
from repro.core.ids import ObjectId
from repro.errors import InvocationFailed, RequestTimeout

from benchmarks.ledger.spec import AVG_FOLLOWS, NUM_ACCOUNTS, OPS, SEED_POSTS

#: entries a GetTimeline job asks for (the Retwis default)
TIMELINE_LIMIT = 10


class Dataset:
    """1,000 accounts on a uniform follower graph, built from the seed."""

    def __init__(self, seed: int, num_accounts: int = NUM_ACCOUNTS) -> None:
        self.accounts = [
            ObjectId.from_name(f"ledger-user-{index}") for index in range(num_accounts)
        ]
        rng = random.Random(f"ledger-graph-{seed}")
        self.followers: list[dict] = [{} for _ in self.accounts]
        self.following: list[dict] = [{} for _ in self.accounts]
        for user in range(num_accounts):
            for _ in range(AVG_FOLLOWS):
                target = rng.randrange(num_accounts)
                if target == user:
                    continue
                self.followers[target][str(self.accounts[user])] = {"since": 0}
                self.following[user][str(self.accounts[target])] = {"since": 0}

    def load(self, platform: Any) -> None:
        """Create every account with its edges and seed posts."""
        platform.register_type(user_type())
        for index, oid in enumerate(self.accounts):
            seed_posts = [
                {"author": f"user-{index}", "time": -post, "text": f"seed {index}.{post}"}
                for post in range(SEED_POSTS)
            ]
            platform.create_object(
                "User",
                object_id=oid,
                initial={
                    "name": f"user-{index}",
                    "followers": self.followers[index],
                    "following": self.following[index],
                    "timeline": seed_posts,
                    "posts": seed_posts,
                },
            )


class OpStream:
    """One client's operations: a weighted draw over the three ops."""

    def __init__(
        self, seed: int, client: int, mix: dict, num_accounts: int, post_chars: int = 0
    ) -> None:
        unknown = set(mix) - set(OPS)
        if unknown or not mix:
            raise ValueError(f"mix must name ops from {sorted(OPS)}, got {sorted(mix)}")
        self._rng = random.Random(f"ledger-client-{seed}-{client}")
        self._client = client
        self._num_accounts = num_accounts
        self._post_chars = post_chars
        self._posts = 0
        total = sum(mix.values())
        self._bounds: list[tuple[float, str]] = []
        cumulative = 0.0
        for label, weight in mix.items():
            cumulative += weight / total
            self._bounds.append((cumulative, label))

    def next(self) -> tuple[str, int, Any]:
        """``(op label, target account index, op argument)``: the text
        for a post (unique, filled up to ``post_chars``), the followee
        index for a follow, ``None`` for a read."""
        rng = self._rng
        draw = rng.random()
        label = self._bounds[-1][1]
        for bound, candidate in self._bounds:
            if draw <= bound:
                label = candidate
                break
        target = rng.randrange(self._num_accounts)
        if label == "post":
            self._posts += 1
            return label, target, f"c{self._client}-p{self._posts}".ljust(self._post_chars, ".")
        if label == "follow":
            followee = rng.randrange(self._num_accounts)
            while followee == target:
                followee = rng.randrange(self._num_accounts)
            return label, target, followee
        return label, target, None


class ClosedLoop:
    """``num_clients`` simulated callers, one request outstanding each.

    Records every completion as ``(completed_at_ms, latency_ms)`` per op
    label and every *acknowledged* write, which the audit reads back.
    """

    def __init__(
        self,
        sim: Any,
        platform: Any,
        dataset: Dataset,
        mix: dict,
        seed: int,
        num_clients: int,
        post_chars: int = 0,
    ) -> None:
        self.sim = sim
        self.platform = platform
        self.dataset = dataset
        self.completions: dict[str, list[tuple[float, float]]] = {label: [] for label in OPS}
        self.attempted = 0
        self.failures = 0
        #: author index -> acknowledged post texts
        self.acked_posts: dict[int, list[str]] = {}
        #: acknowledged (follower index, followee index) edges
        self.acked_follows: list[tuple[int, int]] = []
        self._streams = [
            OpStream(seed, client, mix, len(dataset.accounts), post_chars)
            for client in range(num_clients)
        ]

    def start(self, end_ms: float) -> Any:
        """Start every client; returns the event that triggers when the
        last in-flight reply has arrived after ``end_ms``."""
        processes = [
            self.sim.process(
                self._client_loop(self.platform.client(f"ledger-{index}"), stream, end_ms),
                name=f"ledger.client-{index}",
            )
            for index, stream in enumerate(self._streams)
        ]
        return self.sim.all_of(processes)

    def _client_loop(self, client: Any, stream: OpStream, end_ms: float):
        sim = self.sim
        accounts = self.dataset.accounts
        while sim.now < end_ms:
            label, target, argument = stream.next()
            if label == "post":
                args = (argument,)
            elif label == "follow":
                args = (accounts[argument],)
            else:
                args = (TIMELINE_LIMIT,)
            started = sim.now
            self.attempted += 1
            try:
                yield from client.invoke(accounts[target], OPS[label], *args)
            except (RequestTimeout, InvocationFailed):
                self.failures += 1
                continue
            self.completions[label].append((sim.now, sim.now - started))
            if label == "post":
                self.acked_posts.setdefault(target, []).append(argument)
            elif label == "follow":
                self.acked_follows.append((target, argument))

    def measured(self, since_ms: float) -> dict[str, list[float]]:
        """Per-op latencies of the jobs that completed at or after ``since_ms``."""
        return {
            label: [latency for at, latency in series if at >= since_ms]
            for label, series in self.completions.items()
        }

