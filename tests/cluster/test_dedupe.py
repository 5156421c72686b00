"""Unit tests for the bounded at-most-once reply table."""

from repro.rpc.dedupe import CompletedRequestTable, split_request_id


def test_split_request_id():
    assert split_request_id("c3#17") == ("c3", 17)
    assert split_request_id("multi#part#9") == ("multi#part", 9)
    assert split_request_id("no-counter") == (None, None)
    assert split_request_id("trailing#") == (None, None)
    assert split_request_id("#5") == (None, None)
    assert split_request_id("c#notanumber") == (None, None)


def test_lookup_returns_recorded_reply():
    table = CompletedRequestTable()
    table.record("c#1", "reply-1")
    assert table.lookup("c#1") == "reply-1"
    assert table.lookup("c#2") is None


def test_watermark_prunes_previous_reply():
    table = CompletedRequestTable()
    for counter in range(1, 6):
        table.record(f"c#{counter}", f"reply-{counter}")
    # only the latest reply survives; the client consumed the others
    assert len(table) == 1
    assert table.lookup("c#5") == "reply-5"
    assert table.lookup("c#4") is None
    assert table.watermark("c") == 5
    assert table.per_client_retained() == {"c": 1}


def test_many_clients_each_keep_one_reply():
    table = CompletedRequestTable()
    for client in range(10):
        for counter in range(1, 4):
            table.record(f"c{client}#{counter}", counter)
    assert len(table) == 10
    assert all(count == 1 for count in table.per_client_retained().values())


def test_superseded_ghosts_are_fenced():
    table = CompletedRequestTable()
    table.record("c#1", "a")
    table.record("c#2", "b")
    # counter 1 is below the watermark with no stored reply: a ghost
    assert table.is_superseded("c#1")
    # the current request is not superseded (its reply is stored)
    assert not table.is_superseded("c#2")
    # future counters are never superseded
    assert not table.is_superseded("c#3")
    # non-conforming ids cannot be fenced
    assert not table.is_superseded("weird-id")


def test_lru_backstop_caps_non_conforming_ids():
    table = CompletedRequestTable(max_entries=4)
    for n in range(10):
        table.record(f"opaque-{n}", n)  # no '#counter': plain LRU entries
    assert len(table) == 4
    assert table.lookup("opaque-9") == 9
    assert table.lookup("opaque-0") is None


def test_lookup_refreshes_lru_position():
    table = CompletedRequestTable(max_entries=2)
    table.record("a-1", 1)
    table.record("b-1", 2)
    assert table.lookup("a-1") == 1  # freshen a-1
    table.record("c-1", 3)  # evicts b-1, the least recently used
    assert table.lookup("a-1") == 1
    assert table.lookup("b-1") is None
