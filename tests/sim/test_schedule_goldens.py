"""Schedule goldens: the execution order of ``repro.sim`` is a contract.

Each golden is the sha256 of the ``(now, label)`` step trace of one
seeded random program.  The digests were computed on the commit *before*
the scheduler started counting wake-ups instead of triggers (ISSUE 17)
and must never move without a stated reason:

* **class A** programs mix processes, timeouts with continuous delays,
  ``Resource`` (immediate and queued grants), ``Store``, ``all_of`` /
  ``any_of``, interrupts, failures, bare callbacks and events that
  trigger with no waiter.  No two timeouts share an instant, so neither
  eliding listener-less dispatch entries nor firing timeouts in place may
  change them.
* **class B** programs use no timeout at all: everything happens at
  instant 0 and the whole order is decided by same-instant ``seq`` ties.
  They pin that eliding an entry which would have run zero callbacks
  leaves every remaining entry in the same relative order.

Both classes run under the unbounded loop, the bounded loop (through
``run_until_triggered`` and ``run(until=...)``) and ``FifoPolicy``; all
three must produce the one recorded digest.

The single intended difference from the old dispatch — waiters of a
timeout run at the timeout's own queue position, not one now-lane hop
later — has its own test below, as do the entry counts.

``PYTHONPATH=src python tests/sim/test_schedule_goldens.py`` prints the
digest tables of the checkout it runs against.
"""

import hashlib
import random

import pytest

from repro.errors import ProcessKilled
from repro.sim import FifoPolicy, Network, Resource, Simulation, Store

MODES = ("fast", "bounded", "policy")
HORIZON_MS = 1.0e6


class _Boom(Exception):
    pass


def _trace(seed: int, timeouts: bool, mode: str) -> list:
    """Run the random program ``seed`` and return its step trace."""
    rng = random.Random(seed)
    sim = Simulation(seed)
    if mode == "policy":
        sim.set_policy(FifoPolicy())
    trace = []

    def log(label):
        trace.append(f"{sim.now!r} {label}")

    resources = [Resource(sim, capacity=rng.choice((1, 1, 2))) for _ in range(2)]
    stores = [Store(sim) for _ in range(2)]
    events = [sim.event(f"e{index}") for index in range(14)]
    processes = []

    def pause():
        # class A: a continuous delay.  class B: one same-instant hop
        # through an event that triggered before anybody listened.
        if timeouts:
            return sim.timeout(rng.uniform(0.01, 3.0))
        return sim.event().succeed()

    def hold(tag, resource):
        request = resource.request()
        log(f"{tag} request immediate={request.triggered}")
        try:
            yield request
        except ProcessKilled:
            # still queued (or granted this instant): hand the slot back
            # whenever the grant lands, from a bare callback
            request.add_callback(lambda _event: resource.release())
            raise
        log(f"{tag} granted in_use={resource.in_use} queued={resource.queue_length}")
        try:
            yield pause()
        finally:
            resource.release()
        log(f"{tag} released")

    def take(tag, store):
        get = store.get()
        if timeouts:
            got = yield sim.any_of([get, sim.timeout(rng.uniform(0.01, 2.0))])
            log(f"{tag} take {'item ' + repr(got[get]) if get in got else 'gave up'}")
        elif get.triggered or rng.random() < 0.5:
            log(f"{tag} take ready={get.triggered}")
            item = yield get
            log(f"{tag} took {item!r}")
        else:
            get.add_callback(lambda event: log(f"{tag} late item {event.value!r}"))

    def combine(tag, kind):
        children = rng.sample(events, rng.randint(1, 3))
        children.append(pause())
        if rng.random() < 0.4:
            children.append(rng.choice(stores).get())
        rng.shuffle(children)
        condition = sim.all_of(children) if kind == "all" else sim.any_of(children)
        log(f"{tag} {kind}_of {len(children)} triggered={condition.triggered}")
        values = yield condition
        log(f"{tag} {kind}_of -> {sorted(map(repr, values.values()))}")

    def step(pid, index, depth):
        tag = f"p{pid}.{index}"
        op = rng.choice(OPS)
        if op == "pause":
            yield pause()
            log(f"{tag} paused")
        elif op == "hold":
            yield from hold(tag, rng.choice(resources))
        elif op == "put":
            store = rng.choice(stores)
            store.put((pid, index))
            log(f"{tag} put len={len(store)}")
        elif op == "take":
            yield from take(tag, rng.choice(stores))
        elif op == "fire":
            pending = [event for event in events if not event.triggered]
            if pending:
                event = rng.choice(pending)
                if rng.random() < 0.15:
                    event.fail(_Boom(tag))
                else:
                    event.succeed((pid, index))
                log(f"{tag} fired {event._name}")
        elif op == "wait":
            event = rng.choice(events)
            log(f"{tag} wait {event._name} triggered={event.triggered}")
            value = yield event
            log(f"{tag} woke {event._name} {value!r}")
        elif op in ("all", "any"):
            yield from combine(tag, op)
        elif op == "callback":
            event = rng.choice(events)
            event.add_callback(lambda fired: log(f"{tag} callback {fired._name} ok={fired.ok}"))
            log(f"{tag} callback on {event._name} triggered={event.triggered}")
        elif op == "interrupt":
            victim = rng.choice(processes)
            victim.interrupt(tag)
            log(f"{tag} interrupt {victim._name} alive={victim.is_alive}")
        elif op == "spawn" and depth < 2:
            child = spawn(depth + 1, rng.randint(1, 4))
            log(f"{tag} spawned {child._name}")
            if rng.random() < 0.5:
                result = yield child
                log(f"{tag} joined {child._name} -> {result!r}")

    def body(pid, steps, depth):
        for index in range(steps):
            try:
                yield from step(pid, index, depth)
            except ProcessKilled as killed:
                log(f"p{pid}.{index} killed {killed}")
                if rng.random() < 0.3:
                    return "killed"
            except _Boom as boom:
                log(f"p{pid}.{index} caught {boom}")
        log(f"p{pid} done")
        return pid

    def spawn(depth, steps):
        pid = len(processes)
        process = sim.process(body(pid, steps, depth), name=f"p{pid}")
        processes.append(process)
        return process

    def sweeper():
        # Release whatever the random walk left blocked, so that late
        # wake-ups are part of the trace instead of silent deadlocks.
        if timeouts:
            yield sim.timeout(40.0)
        else:
            for _ in range(60):
                yield sim.event().succeed()
        for event in events:
            if not event.triggered:
                event.succeed("sweep")
        for store in stores:
            for index in range(6):
                store.put(("sweep", index))
        log("sweeper done")

    for _ in range(rng.randint(5, 8)):
        spawn(0, rng.randint(6, 14))
    sweep = sim.process(sweeper(), name="sweeper")

    if mode == "bounded":
        sim.run_until_triggered(sweep, limit=HORIZON_MS)
        sim.run(until=HORIZON_MS)
    else:
        sim.run()
    return trace


OPS = (
    "pause", "pause", "hold", "hold", "put", "take", "fire", "fire",
    "wait", "wait", "all", "any", "callback", "interrupt", "spawn",
)  # fmt: skip


def _digest(seed: int, timeouts: bool, mode: str = "fast") -> str:
    return hashlib.sha256("\n".join(_trace(seed, timeouts, mode)).encode()).hexdigest()


#: class A — processes, continuous-delay timeouts, resources, stores,
#: conditions, interrupts (seed -> digest, recorded on the parent commit)
CLASS_A = {
    1: "6a0c4005dfb31e942d850909132658aa8aae8a7d145077f3b18cfa7a43187c52",  # 92 steps
    2: "680bbc5d8c26e9ba51199f5c4921057be3729c4fb3b0302c11bb46c28e01a66e",  # 97 steps
    3: "96919e2c4e2701102430f60edf8cd1ac57b0a0c4b9c6e6ea6644d99713f22953",  # 129 steps
    4: "e95b356df9b94066023fb361e4f242a99c79ffd845fed6de584958ee5310c0e6",  # 68 steps
    5: "af7c2b6646cbb87db9c7576061bb66432fa83b74761e3d8ae90ad82460712ae8",  # 107 steps
    6: "3fecc2490941de3bb309cd4351d8d3bf7afa61f3d820e9ad86d40999e20071d5",  # 148 steps
    7: "29c7a0882ad05474325f87bc98410fed50abba1aa3593ea786b1b09792353973",  # 129 steps
    8: "3e8145b5bacbd06d87662583217ef15c722c96b73cab36e01604bb9e52519bd3",  # 104 steps
    9: "b0ee217f7ee7967ddcbdf33795df3554e5eac81a6e325b46733d42ed74e539be",  # 147 steps
    10: "8145d290ecee11e5ba91dfc8817eca5faf894be680b03401c624e940bea86fd4",  # 114 steps
    11: "ac6ae202d983ff1c796c28a2d6cc66bf0479e580c9227b3f9b2ec72a66a0af90",  # 150 steps
    12: "6f59abdccab5d9e40072c89a7c5c00d0d615167b864623b40dc0be46ddba358d",  # 135 steps
    13: "bee0d3c2d832986cfc858cdc43044ef5a0066a9b54d821fd74ca77ee305d3159",  # 100 steps
    14: "b02256c5e022c8a9ce23aed24e86ec9e890635ea3dbc2fa220fc96fefeb84f87",  # 102 steps
    15: "9feab1353be96b693438a70fa915ea6407222554b3a28d94af40384a6b1c373d",  # 85 steps
    16: "12bdef1201069109d1ca23b8426ea34103c85f3a2aa982ed2e74329bc6e6c7fc",  # 140 steps
    17: "ffb11bc54971ffaf68dec39e8924f3312ef1299f6c61d6efa32baf530d0e6b3b",  # 116 steps
    18: "7a92e153db4fb13eec0c0b7e1092116b55a673d474268a03b2f9f7e4e6380248",  # 151 steps
    19: "5a9ec28e3163d23b80135fb49a2199540166cd6095a09ba514b7335569751ec5",  # 86 steps
    20: "6e6d855e7968c2c3dad872ba103311c75773610994b05ba70b76eaa4e8c36677",  # 100 steps
}

#: class B — the same programs with no timeout: one instant, all ties
CLASS_B = {
    1: "8bc4a2f2b48c8a7cc6dd92b292a56bcd46647c1b0548c9edd8dac732dae57c8e",  # 101 steps
    2: "bd6d9a5a5bfde9a44665295500771c95baba20a27da57df5c4200bc81ff6da24",  # 120 steps
    3: "d7ca9bea64c3afe821cc3209e294e3ff38d08bc35f437e5cc213c24fbca7c713",  # 101 steps
    4: "93428421c2bd1f2fa8f726e49db1321a2f422c42788573d305473595d8fec243",  # 81 steps
    5: "1d4586b557a4ffece7e1cee0a78df1de6389d032a21e8abce7eb4af14f937d87",  # 117 steps
    6: "bfc4f74aff2181bd2568ca73b2028bec5433b94f43f96e9ea7c3b291fc546a18",  # 145 steps
    7: "e0cce524596c4693c45ab217fa97bac3ec35ff53fa9c6fc2089f7e9dffb68655",  # 136 steps
    8: "c997f1448a011f7a54e7bb62bd6dca84031efc92e08ccc5b1542f6c8fae25baa",  # 113 steps
    9: "f292e008cb336b18e6ca810bbde43eda11627c87ff28bd8d7ce3b3c2cac2127d",  # 158 steps
    10: "e87a391c8acd0670a59563b37e608a0e700379b97eac0cd83a6c727c32247050",  # 139 steps
    11: "1195daf6b21f8338a884fc22d37bfb2391102081fa4b4409b631c185d7607136",  # 156 steps
    12: "a23e24f95ae9d32d1f131ac21535269eb03ce18702bde2201d1a97ee7f131d6d",  # 137 steps
    13: "25f7276344aa1f7bfee8ef9d4632519cb43df295ae37949794f985f06f7fa889",  # 97 steps
    14: "84325906db583c5e5684681eaadcdac14310705621348d53d5ddd7b1dc421701",  # 109 steps
    15: "d83e165283d451cc720d85eb7299545ba552a2a4f476b979b73185ecb8b367ff",  # 73 steps
    16: "8afeea6b96aa879ac0869b1c0fcf6dae895f9dbc31ae3369283dc3e5f740ae5f",  # 128 steps
    17: "1bcc6327336eeeb6c634fa4f0913e5f7dea67ba7e93aebd326af8f01abf5db1b",  # 109 steps
    18: "27bdc700e3fcc81b4f33cf6981d628d847f6b03fd2cbe094a02388fc2bae0d2d",  # 174 steps
    19: "9d824b20e37462de84a899da7ba4cc0a1a8a8485610520c9704a2c7d7d61a1f1",  # 101 steps
    20: "b42d6831dc94116dad45519876a0f6fd5c3b695bce889a1e72013811700907e0",  # 88 steps
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", sorted(CLASS_A))
def test_class_a_timed_programs_keep_their_schedule(seed, mode):
    assert _digest(seed, True, mode) == CLASS_A[seed]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", sorted(CLASS_B))
def test_class_b_single_instant_programs_keep_their_schedule(seed, mode):
    assert _digest(seed, False, mode) == CLASS_B[seed]


def test_goldens_cover_twenty_distinct_programs_per_class():
    assert len(CLASS_A) >= 20 and len(CLASS_B) >= 20
    assert len(set(CLASS_A.values())) == len(CLASS_A)
    assert len(set(CLASS_B.values())) == len(CLASS_B)


# -- the one intended difference ------------------------------------------


def test_timeout_waiters_run_at_the_timeouts_own_queue_position():
    """Two timeouts due at one instant, with a plain heap entry between
    them: each timeout's waiter runs from the timeout's own heap entry,
    in (time, seq) order with everything else due at that instant — the
    old dispatch ran both waiters one now-lane hop later, after "heap"
    and with ``second`` already triggered."""
    sim = Simulation()
    order = []
    first = sim.timeout(1.0)
    sim._schedule(1.0, lambda: order.append("heap"))
    second = sim.timeout(1.0)
    first.add_callback(lambda _e: order.append(f"first second_fired={second.triggered}"))
    second.add_callback(lambda _e: order.append("second"))
    sim.run()
    assert order == ["first second_fired=False", "heap", "second"]


def test_zero_delay_timeout_keeps_its_place_among_now_lane_entries():
    """A zero-delay timeout sits between the lane entries scheduled before
    and after it; its waiter no longer queues behind the later one."""
    sim = Simulation()
    order = []
    sim._schedule_now(lambda: order.append("lane-before"))
    sim.timeout(0.0).add_callback(lambda _e: order.append("timeout"))
    sim._schedule_now(lambda: order.append("lane-after"))
    sim.run()
    assert order == ["lane-before", "timeout", "lane-after"]


# -- what takes a scheduler entry -----------------------------------------


def _entries(body_factory) -> int:
    """Scheduler entries a one-process program takes beyond its start."""
    sim = Simulation()
    sim.process(body_factory(sim))
    sim.run()
    return sim.events_scheduled - 1


def test_waiting_on_a_timeout_takes_one_entry():
    def body(sim):
        yield sim.timeout(1.0)

    assert _entries(body) == 1


def test_an_immediately_granted_request_takes_one_entry():
    def body(sim):
        cpu = Resource(sim, capacity=1)
        yield cpu.request()
        cpu.release()

    assert _entries(body) == 1


def test_a_queued_request_takes_one_entry_when_granted():
    def body(sim):
        cpu = Resource(sim, capacity=1)
        yield cpu.request()
        queued = cpu.request()
        cpu.release()  # grants `queued`, which nobody waits on yet: no entry
        yield queued
        cpu.release()

    assert _entries(body) == 2


def test_an_event_triggered_with_no_waiter_takes_no_entry():
    def body(sim):
        sim.event().succeed("unheard")
        sim.event().fail(_Boom("unheard"))
        Store(sim).put("parked")
        yield sim.timeout(1.0)

    assert _entries(body) == 1


def test_an_unheard_timeout_takes_only_its_heap_entry():
    sim = Simulation()
    timeout = sim.timeout(1.0)
    sim.run()
    assert timeout.triggered and sim.events_scheduled == 1
    # a late listener is scheduled by itself, as for any dispatched event
    heard = []
    timeout.add_callback(heard.append)
    assert sim.events_scheduled == 2 and not heard
    sim.run()
    assert heard == [timeout]


# -- entry counts of whole programs ------------------------------------------


@pytest.mark.parametrize("iterations", [1, 10, 100])
def test_a_mailbox_ping_pong_takes_two_entries_per_round_trip(iterations):
    """Two processes handing items through ``Store`` mailboxes at one
    instant: the zero-delay lane with no heap traffic."""
    sim = Simulation(seed=7)
    left, right = Store(sim), Store(sim)

    def pinger():
        for _ in range(iterations):
            left.put("ping")
            yield right.get()

    def ponger():
        for _ in range(iterations):
            yield left.get()
            right.put("pong")

    sim.process(pinger())
    done = sim.process(ponger())
    sim.run_until_triggered(done, limit=1.0)
    # per round trip one wake-up each; per process its start
    assert sim.events_scheduled == 2 * iterations + 2
    assert sim.now == 0.0


@pytest.mark.parametrize("chains, steps", [(1, 1), (2, 3), (10, 7), (50, 20)])
def test_interleaved_timeout_chains_take_one_entry_per_step(chains, steps):
    sim = Simulation(seed=7)

    def chain(offset: float):
        for _ in range(steps):
            yield sim.timeout(0.5 + offset)

    processes = [sim.process(chain(index * 1e-4)) for index in range(chains)]
    gate = sim.all_of(processes)
    # before the run: one start per chain and nothing else
    assert sim.pending == chains
    sim.run_until_triggered(gate, limit=float("inf"))
    # per chain its start, one entry per step and its end (the gate listens)
    assert sim.events_scheduled == chains * (steps + 2)


@pytest.mark.parametrize("pairs, messages", [(1, 1), (2, 20), (3, 7), (8, 50)])
def test_a_message_stream_takes_three_entries_per_message(pairs, messages):
    """Host pairs streaming messages through ``Network.send``."""
    sim = Simulation(seed=7)
    net = Network(sim)
    for index in range(pairs):
        net.add_host(f"tx-{index}")
        net.add_host(f"rx-{index}")

    def receiver(name: str):
        host = net.host(name)
        for _ in range(messages):
            yield host.recv()

    def sender(index: int):
        for _ in range(messages):
            net.send(f"tx-{index}", f"rx-{index}", "payload", size_bytes=128)
            yield sim.timeout(0.01)

    receivers = [sim.process(receiver(f"rx-{index}")) for index in range(pairs)]
    for index in range(pairs):
        sim.process(sender(index))
    sim.run_until_triggered(sim.all_of(receivers), limit=float("inf"))
    assert net.stats.messages_sent == pairs * messages
    # per message the sender's step, the delivery and the receiver's
    # wake-up; per pair both starts and the receiver's end
    assert sim.events_scheduled == pairs * (3 * messages + 3)


if __name__ == "__main__":
    for title, timeouts in (("CLASS_A", True), ("CLASS_B", False)):
        print(f"{title} = {{")
        for seed in range(1, 21):
            lines = _trace(seed, timeouts, "fast")
            digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
            print(f'    {seed}: "{digest}",  # {len(lines)} steps')
        print("}")
