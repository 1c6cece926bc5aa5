"""Unit tests for Store, Resource, and fair-share BandwidthResource."""

import pytest

from repro.simt import BandwidthResource, Resource, Simulator, Store
from repro.simt.primitives import AllOf, AnyOf


# ----------------------------------------------------------------- Store
def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.spawn(consumer())

    def producer():
        yield sim.timeout(1.0)
        store.put("a")
        store.put("b")
        store.put("c")

    sim.spawn(producer())
    sim.run()
    assert got == ["a", "b", "c"]


def test_store_get_before_put_blocks():
    sim = Simulator()
    store = Store(sim)
    times = []

    def consumer():
        yield store.get()
        times.append(sim.now)

    sim.spawn(consumer())

    def producer():
        yield sim.timeout(3.0)
        store.put(1)

    sim.spawn(producer())
    sim.run()
    assert times == [3.0]


def test_store_put_before_get_immediate():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    assert len(store) == 1
    out = []

    def consumer():
        out.append((yield store.get()))

    sim.spawn(consumer())
    sim.run()
    assert out == ["x"] and len(store) == 0


def test_store_skips_dead_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def doomed():
        yield store.get()
        got.append("doomed")  # pragma: no cover

    def survivor():
        got.append((yield store.get()))

    d = sim.spawn(doomed())
    sim.spawn(survivor())

    def driver():
        yield sim.timeout(1.0)
        d.kill()
        yield sim.timeout(1.0)
        store.put("item")

    sim.spawn(driver())
    sim.run()
    assert got == ["item"]


# --------------------------------------------------------------- Resource
def test_resource_capacity_blocks():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def user(name, hold):
        yield res.acquire()
        log.append((name, "in", sim.now))
        yield sim.timeout(hold)
        res.release()
        log.append((name, "out", sim.now))

    sim.spawn(user("a", 2.0))
    sim.spawn(user("b", 1.0))
    sim.run()
    assert log == [
        ("a", "in", 0.0),
        ("a", "out", 2.0),
        ("b", "in", 2.0),
        ("b", "out", 3.0),
    ]


def test_resource_multi_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    starts = []

    def user(name):
        yield res.acquire()
        starts.append((name, sim.now))
        yield sim.timeout(1.0)
        res.release()

    for n in ("a", "b", "c"):
        sim.spawn(user(n))
    sim.run()
    assert starts == [("a", 0.0), ("b", 0.0), ("c", 1.0)]


def test_resource_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_bad_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


# ------------------------------------------------------ BandwidthResource
def test_bandwidth_single_flow_time():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)  # 100 B/s
    done = bw.transfer(200.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(2.0)


def test_bandwidth_two_equal_flows_share_fairly():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    d1 = bw.transfer(100.0)
    d2 = bw.transfer(100.0)
    ends = []
    d1.callbacks.append(lambda e: ends.append(("d1", sim.now)))
    d2.callbacks.append(lambda e: ends.append(("d2", sim.now)))
    sim.run()
    # Both at 50 B/s -> both finish at t=2 (not 1 and 2).
    assert ends[0][1] == pytest.approx(2.0)
    assert ends[1][1] == pytest.approx(2.0)


def test_bandwidth_staggered_flows():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    ends = {}

    def flow(name, start, nbytes):
        yield sim.timeout(start)
        yield bw.transfer(nbytes)
        ends[name] = sim.now

    # f1 alone [0,1): moves 100B. Then shares: 50 B/s each.
    # f1 has 100B left -> 2 more seconds -> ends t=3.
    # f2 (100B) also ends t=3... wait f2 has 100B at 50B/s = 2s -> t=3. Then none left.
    sim.spawn(flow("f1", 0.0, 200.0))
    sim.spawn(flow("f2", 1.0, 100.0))
    sim.run()
    assert ends["f1"] == pytest.approx(3.0)
    assert ends["f2"] == pytest.approx(3.0)


def test_bandwidth_short_flow_releases_capacity():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    ends = {}

    def flow(name, nbytes):
        yield bw.transfer(nbytes)
        ends[name] = sim.now

    # Together at 50 B/s: f_small (50B) done at t=1.
    # f_big then has 150B left alone at 100B/s -> done at t=2.5.
    sim.spawn(flow("big", 200.0))
    sim.spawn(flow("small", 50.0))
    sim.run()
    assert ends["small"] == pytest.approx(1.0)
    assert ends["big"] == pytest.approx(2.5)


def test_bandwidth_overhead_added_before_bytes():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    done = bw.transfer(100.0, overhead=0.5)
    sim.run(until=done)
    assert sim.now == pytest.approx(1.5)


def test_bandwidth_zero_bytes_is_instant_after_overhead():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=10.0)
    done = bw.transfer(0.0, overhead=0.25)
    sim.run(until=done)
    assert sim.now == pytest.approx(0.25)


def test_bandwidth_rejects_negative():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=10.0)
    with pytest.raises(ValueError):
        bw.transfer(-1.0)
    with pytest.raises(ValueError):
        BandwidthResource(sim, capacity=0.0)


def test_bandwidth_bytes_done_accounting():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    bw.transfer(30.0)
    bw.transfer(70.0)
    sim.run()
    assert bw.bytes_done == pytest.approx(100.0)


def test_bandwidth_many_flows_aggregate_time():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    events = [bw.transfer(10.0) for _ in range(10)]
    sim.run()
    # 100 bytes total through a 100 B/s pipe: all end at t=1.
    assert sim.now == pytest.approx(1.0)
    assert all(e.processed for e in events)


# ------------------------------------------- one completion timer per pipe
def _depth(sim):
    return len(sim._heap) + len(sim._nowq)


def test_bandwidth_burst_leaves_one_live_timer():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    n = 8
    sizes = [10.0 * (i + 1) for i in range(n)]
    ends = []
    for size in sizes:
        done = bw.transfer(size)
        done.callbacks.append(lambda _e, size=size: ends.append((size, sim.now)))
    # Every start moved the deadline later: one timer in the heap.
    assert _depth(sim) == 1
    sim.run()
    # Processor sharing: the j-th smallest flow ends after the gaps
    # below it drained at capacity / (flows still active).
    expected, t, prev = [], 0.0, 0.0
    for j, size in enumerate(sizes):
        t += (n - j) * (size - prev) / 100.0
        prev = size
        expected.append((size, pytest.approx(t)))
    assert ends == expected
    # One early pop, one timer per completion, one event per flow.
    assert sim.stats.events_processed == 2 * n + 1


def _completion_order(sim, **events):
    order = []
    for name, evt in events.items():
        evt.callbacks.append(lambda _e, name=name: order.append((name, sim.now)))
    sim.run()
    return order


def test_bandwidth_same_instant_completions_follow_last_reschedule():
    # a's timer is pushed before b's, but a's deadline moves later
    # after b's push: a fires after b, as a fresh timer would.
    sim = Simulator()
    a = BandwidthResource(sim, capacity=100.0, name="a")
    b = BandwidthResource(sim, capacity=100.0, name="b")
    a1 = a.transfer(50.0)  # a's timer armed for t=0.5
    b1 = b.transfer(100.0)  # b's timer for t=1.0
    a2 = a.transfer(50.0)  # a shared: its deadline moves to t=1.0
    assert _completion_order(sim, a1=a1, b1=b1, a2=a2) == [
        ("b1", 1.0), ("a1", 1.0), ("a2", 1.0)]
    # a's deadline moves later *before* b's push: a keeps its place
    # ahead of b even though its timer re-enters the heap after b's.
    sim = Simulator()
    a = BandwidthResource(sim, capacity=100.0, name="a")
    b = BandwidthResource(sim, capacity=100.0, name="b")
    a1 = a.transfer(50.0)
    a2 = a.transfer(50.0)
    b1 = b.transfer(100.0)
    assert _completion_order(sim, a1=a1, b1=b1, a2=a2) == [
        ("a1", 1.0), ("a2", 1.0), ("b1", 1.0)]


def test_bandwidth_equal_deadline_takes_a_fresh_timer():
    # An empty flow recomputes a's unchanged deadline after b's push;
    # a fresh timer (not the armed one) decides the order.
    sim = Simulator()
    a = BandwidthResource(sim, capacity=100.0, name="a")
    b = BandwidthResource(sim, capacity=100.0, name="b")
    a1 = a.transfer(100.0)
    b1 = b.transfer(100.0)
    a.transfer(0.0)
    assert _completion_order(sim, a1=a1, b1=b1) == [("b1", 1.0), ("a1", 1.0)]


def test_bandwidth_set_capacity_down_then_up_with_a_timer_armed():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    done = bw.transfer(100.0)  # deadline t=1.0
    # t=0.25: 75 B left at 50 B/s -> deadline moves later, to t=1.75.
    sim.schedule(0.25, lambda _a: bw.set_capacity(50.0))
    # t=0.5: 62.5 B left at 250 B/s -> deadline moves earlier, to t=0.75.
    sim.schedule(0.5, lambda _a: bw.set_capacity(250.0))
    sim.run(until=done)
    assert sim.now == pytest.approx(0.75)
    assert bw.bytes_done == 100.0 and bw.active_flows == 0
    # The superseded timer still pops at its last deadline, so a drained
    # run leaves the clock where a fresh timer per reschedule did.
    sim.run()
    assert sim.now == 1.75


def test_bandwidth_float_residue_completes_at_deadline_after_early_fire():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=1e9)
    big = 32e9 + 1
    first = bw.transfer(big)  # timer armed for big / 1e9
    second = bw.transfer(40e9)  # shared: the deadline moves later
    deadline = big / (1e9 / 2)
    # Progress applied in one step at the deadline leaves more float
    # residue than the epsilon, so completion takes the fallback.
    assert big - deadline * (1e9 / 2) > BandwidthResource._EPS
    sim.run(until=first)
    assert sim.now == deadline
    assert not second.triggered
    # The early pop, the timer at the deadline, the completion.
    assert sim.stats.events_processed == 3
    # The early pop applied no progress: the survivor's came in the
    # same single step at the deadline.
    (survivor,) = bw._flows
    assert survivor.remaining == 40e9 - deadline * (1e9 / 2)


def test_bandwidth_transfer_to_callback():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    got = []
    assert bw.transfer(100.0, 0.5, got.append, "done") is None
    assert bw.transfer(0.0, 0.0, got.append, "empty") is None
    sim.run()
    assert got == ["empty", "done"]
    assert sim.now == pytest.approx(1.5)


# ---------------------------------------------------------------- AllOf/AnyOf
def test_allof_collects_values_in_order():
    sim = Simulator()
    e1, e2 = sim.timeout(2.0, "two"), sim.timeout(1.0, "one")
    both = AllOf(sim, [e1, e2])
    sim.run(until=both)
    assert both.value == ["two", "one"]
    assert sim.now == pytest.approx(2.0)


def test_allof_empty_succeeds_immediately():
    sim = Simulator()
    all_evt = AllOf(sim, [])
    sim.run()
    assert all_evt.value == []


def test_allof_fails_fast():
    sim = Simulator()
    bad = sim.event()
    slow = sim.timeout(10.0)
    trig = sim.timeout(1.0)
    trig.callbacks.append(lambda e: bad.fail(ValueError("nope")))
    both = AllOf(sim, [slow, bad])
    with pytest.raises(ValueError):
        sim.run(until=both)
    assert sim.now == pytest.approx(1.0)


def test_anyof_first_wins():
    sim = Simulator()
    e1, e2 = sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")
    race = AnyOf(sim, [e1, e2])
    sim.run(until=race)
    assert race.value == (1, "fast")
    assert sim.now == pytest.approx(1.0)


def test_anyof_requires_events():
    with pytest.raises(ValueError):
        AnyOf(Simulator(), [])


def test_anyof_with_processed_event():
    sim = Simulator()
    evt = sim.event()
    evt.succeed("pre")
    sim.run()
    race = AnyOf(sim, [evt, sim.timeout(9.0)])
    sim.run(until=race)
    assert race.value == (0, "pre")
