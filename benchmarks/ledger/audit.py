"""Output verification: every acknowledged write must be readable.

Run after the untraced clock stops.  :func:`read_back` asks the
platform, through an ordinary ``platform.client(...)``, for the posts, timeline and
followers of every account an acknowledged write touched;
:func:`missing_writes` compares what came back with what was
acknowledged and is pure, so a test can hand it a deliberately
incomplete read-back.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import InvocationFailed, RequestTimeout

#: larger than any collection the benchmark can grow, so reads see all
READ_ALL = 1_000_000


def read_back(
    sim: Any, client: Any, accounts: list, authors: Iterable[int], followees: Iterable[int]
) -> tuple[dict, dict, dict]:
    """``(posts, timelines, followers)`` keyed by account index.

    Posts and timelines hold the texts read for each of ``authors``;
    followers the follower ids read for each of ``followees``.  A read
    that fails leaves its account out, which the comparison counts as
    every write to it missing.
    """
    posts: dict[int, list[str]] = {}
    timelines: dict[int, list[str]] = {}
    followers: dict[int, set[str]] = {}

    def reader():
        for index in authors:
            try:
                own = yield from client.invoke(accounts[index], "get_posts", READ_ALL)
                feed = yield from client.invoke(accounts[index], "get_timeline", READ_ALL)
            except (RequestTimeout, InvocationFailed):
                continue
            posts[index] = [entry["text"] for entry in own]
            timelines[index] = [entry["text"] for entry in feed]
        for index in followees:
            try:
                found = yield from client.invoke(accounts[index], "get_followers")
            except (RequestTimeout, InvocationFailed):
                continue
            followers[index] = {str(oid) for oid in found}

    sim.run_until_triggered(sim.process(reader(), name="ledger.audit"))
    return posts, timelines, followers


def missing_writes(
    accounts: list,
    acked_posts: dict[int, list[str]],
    acked_follows: list[tuple[int, int]],
    posts: dict,
    timelines: dict,
    followers: dict,
) -> list[str]:
    """One line per acknowledged write the read-back does not show:
    a post must be exactly once in its author's posts *and* timeline, a
    follow's follower must be in the followee's follower list."""
    misses = []
    for author, texts in sorted(acked_posts.items()):
        places = (("posts", posts.get(author, [])), ("timeline", timelines.get(author, [])))
        for text in texts:
            wrong = [f"{found.count(text)}x in {where}" for where, found in places
                     if found.count(text) != 1]
            if wrong:
                misses.append(f"post {text!r} by account {author}: {', '.join(wrong)}")
    for follower, followee in acked_follows:
        if str(accounts[follower]) not in followers.get(followee, ()):
            misses.append(f"follow {follower}->{followee}: not in followers of {followee}")
    return misses
