"""Unit tests for the network's fault-scripting hooks."""

import pytest

from repro.errors import SimulationError
from repro.sim import BimodalLatency, ConstantLatency, Network, Simulation


def make_net(latency=None):
    sim = Simulation(seed=1)
    net = Network(sim, latency=latency or ConstantLatency(1.0))
    net.add_host("a")
    net.add_host("b")
    return sim, net


def collect(sim, net, host):
    got = []

    def receiver(sim):
        while True:
            msg = yield net.host(host).recv()
            got.append((msg.payload, sim.now))

    sim.process(receiver(sim))
    return got


def test_set_drop_probability_validates_and_drops():
    sim, net = make_net()
    with pytest.raises(SimulationError):
        net.set_drop_probability(1.5)
    got = collect(sim, net, "b")
    net.set_drop_probability(1.0)
    for _ in range(5):
        net.send("a", "b", "lost")
    net.set_drop_probability(0.0)
    net.send("a", "b", "kept")
    sim.run()
    assert [p for p, _t in got] == ["kept"]
    assert net.stats.messages_dropped == 5


def test_drop_filter_targets_specific_messages():
    sim, net = make_net()
    got = collect(sim, net, "b")
    net.drop_filter = lambda message: message.payload == "evil"
    net.send("a", "b", "evil")
    net.send("a", "b", "fine")
    net.drop_filter = None
    net.send("a", "b", "evil")  # filter removed: delivered
    sim.run()
    assert sorted(p for p, _t in got) == ["evil", "fine"]


def test_isolate_cuts_both_directions():
    sim, net = make_net()
    net.add_host("c")
    got_b = collect(sim, net, "b")
    got_a = collect(sim, net, "a")
    got_c = collect(sim, net, "c")
    net.isolate("a")
    net.send("a", "b", "out")
    net.send("b", "a", "in")
    net.send("b", "c", "bystander")
    sim.run(until=10.0)
    assert got_a == [] and got_b == []
    assert [p for p, _t in got_c] == ["bystander"]
    net.heal()
    net.send("a", "b", "healed")
    sim.run()
    assert [p for p, _t in got_b] == ["healed"]


def test_schedule_runs_scripted_faults():
    sim, net = make_net()
    got = collect(sim, net, "b")
    # at t=5 cut the link, at t=15 heal it
    net.schedule(5.0, lambda: net.partition(["a"], ["b"]))
    net.schedule(15.0, net.heal)

    def sender(sim):
        for n in range(4):  # sends at t = 0, 6, 12, 18
            net.send("a", "b", n)
            yield sim.timeout(6.0)

    sim.process(sender(sim))
    sim.run()
    assert [p for p, _t in got] == [0, 3]  # the sends at t=6 and t=12 were cut


def test_bimodal_latency_reorders():
    sim, net = make_net(latency=BimodalLatency(fast_ms=0.05, slow_ms=5.0, slow_probability=0.5))
    got = collect(sim, net, "b")
    for n in range(20):
        net.send("a", "b", n)
    sim.run()
    order = [p for p, _t in got]
    assert sorted(order) == list(range(20))
    assert order != list(range(20))  # at least one inversion


def test_bimodal_latency_validates():
    with pytest.raises(SimulationError):
        BimodalLatency(fast_ms=5.0, slow_ms=1.0)
    with pytest.raises(SimulationError):
        BimodalLatency(slow_probability=2.0)
