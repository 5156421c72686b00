"""Unit tests for the simulated network."""

import pytest

from repro.errors import SimulationError
from repro.sim import ConstantLatency, LogNormalLatency, Network, Simulation


def make_net(latency=None):
    sim = Simulation(seed=1)
    net = Network(sim, latency=latency or ConstantLatency(1.0))
    net.add_host("a")
    net.add_host("b")
    return sim, net


def test_message_delivered_after_latency():
    sim, net = make_net()
    got = []

    def receiver(sim):
        msg = yield net.host("b").recv()
        got.append((msg.payload, sim.now))

    sim.process(receiver(sim))
    net.send("a", "b", "hello", size_bytes=0)
    sim.run()
    assert got == [("hello", 1.0)]


def test_loopback_is_fast():
    sim, net = make_net(latency=ConstantLatency(10.0))
    got = []

    def receiver(sim):
        msg = yield net.host("a").recv()
        got.append(sim.now)

    sim.process(receiver(sim))
    net.send("a", "a", "self", size_bytes=0)
    sim.run()
    assert got[0] < 1.0


def test_size_adds_serialisation_delay():
    sim = Simulation()
    net = Network(sim, latency=ConstantLatency(1.0), bandwidth_mbps=8.0)
    net.add_host("a")
    net.add_host("b")
    got = []

    def receiver(sim):
        yield net.host("b").recv()
        got.append(sim.now)

    sim.process(receiver(sim))
    # 8 Mbps = 1000 bytes/ms, so 2000 bytes add 2 ms on top of 1 ms latency.
    net.send("a", "b", "big", size_bytes=2000)
    sim.run()
    assert got == [pytest.approx(3.0)]


def test_crashed_destination_drops_messages():
    sim, net = make_net()
    net.crash("b")
    net.send("a", "b", "lost")
    sim.run()
    assert net.stats.messages_dropped == 1
    assert len(net.host("b").inbox) == 0


def test_crashed_source_cannot_send():
    sim, net = make_net()
    net.crash("a")
    net.send("a", "b", "lost")
    sim.run()
    assert net.stats.messages_dropped == 1


def test_recover_restores_delivery():
    sim, net = make_net()
    net.crash("b")
    net.send("a", "b", "lost")
    sim.run()
    net.recover("b")
    net.send("a", "b", "found")
    sim.run()
    assert len(net.host("b").inbox) == 1


def test_partition_cuts_both_directions():
    sim, net = make_net()
    net.partition(["a"], ["b"])
    net.send("a", "b", "x")
    net.send("b", "a", "y")
    sim.run()
    assert net.stats.messages_dropped == 2
    net.heal()
    net.send("a", "b", "z")
    sim.run()
    assert len(net.host("b").inbox) == 1


def test_drop_probability_drops_roughly_that_fraction():
    sim = Simulation(seed=42)
    net = Network(sim, latency=ConstantLatency(0.1))
    net.add_host("a")
    net.add_host("b")
    net.drop_probability = 0.5
    for _ in range(400):
        net.send("a", "b", "m")
    sim.run()
    assert 120 < net.stats.messages_dropped < 280


def test_duplicate_host_rejected():
    sim, net = make_net()
    with pytest.raises(SimulationError):
        net.add_host("a")


def test_unknown_host_rejected():
    sim, net = make_net()
    with pytest.raises(SimulationError):
        net.send("a", "nope", "x")


def test_stats_count_sends_and_bytes():
    sim, net = make_net()
    net.send("a", "b", "x", size_bytes=100)
    net.send("a", "b", "y", size_bytes=50)
    sim.run()
    assert net.stats.messages_sent == 2
    assert net.stats.bytes_sent == 150
    # Per-link accounting only runs while fault injection is active; the
    # fault-free fast path skips it.
    assert net.stats.per_link == {}


def test_per_link_counts_only_while_faults_active():
    sim, net = make_net()
    net.set_drop_probability(1.0)  # drop everything
    net.send("a", "b", "x")
    net.set_drop_probability(0.0)
    net.send("a", "b", "y")  # fault-free again: not tracked per link
    sim.run()
    assert net.stats.per_link_dropped[("a", "b")] == 1
    assert net.stats.per_link == {}
    assert net.stats.messages_dropped == 1
    assert net.stats.messages_delivered == 1


def test_dropped_messages_do_not_inflate_per_link():
    sim, net = make_net()
    net.drop_filter = lambda message: message.payload == "evil"
    net.send("a", "b", "good")
    net.send("a", "b", "evil")
    net.send("a", "b", "good")
    sim.run()
    assert net.stats.per_link[("a", "b")] == 2
    assert net.stats.per_link_dropped[("a", "b")] == 1
    assert net.stats.messages_dropped == 1


def test_delivery_time_drop_counted_per_link():
    sim, net = make_net()
    net.drop_filter = lambda message: False  # any fault keeps accounting on
    net.send("a", "b", "doomed")
    net.crash("b")  # crashes while the message is in flight
    sim.run()
    assert net.stats.per_link[("a", "b")] == 1  # passed the send-time check
    assert net.stats.per_link_dropped[("a", "b")] == 1  # dropped at delivery
    assert net.stats.messages_delivered == 0


def test_tap_sees_dropped_messages():
    sim, net = make_net()
    seen = []
    net.tap = lambda message: seen.append(message.payload)
    net.drop_filter = lambda message: True
    net.send("a", "b", "dropped-anyway")
    sim.run()
    assert seen == ["dropped-anyway"]
    assert net.stats.messages_dropped == 1


def test_lognormal_latency_positive_and_capped():
    rng = Simulation(seed=3).rng("test")
    model = LogNormalLatency(1.0, sigma=0.5, cap_ms=4.0)
    samples = [model.sample(rng) for _ in range(200)]
    assert all(0 < s <= 4.0 for s in samples)


def test_deterministic_across_same_seed():
    def run_once():
        sim = Simulation(seed=99)
        net = Network(sim, latency=LogNormalLatency(0.5))
        net.add_host("a")
        net.add_host("b")
        times = []

        def receiver(sim):
            for _ in range(5):
                yield net.host("b").recv()
                times.append(sim.now)

        sim.process(receiver(sim))
        for _ in range(5):
            net.send("a", "b", "m")
        sim.run()
        return times

    assert run_once() == run_once()
