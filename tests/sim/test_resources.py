"""Unit tests for Resource / PriorityResource / Store."""

import pytest

from repro.sim import PriorityResource, Resource, Simulator, Store


def test_resource_grants_immediately_when_free():
    sim = Simulator()
    res = Resource(sim)
    req = res.request()
    sim.run()
    assert req.triggered
    assert res.busy


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim)
    order = []

    def user(tag, hold):
        req = res.request()
        yield req
        order.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    sim.process(user("a", 5))
    sim.process(user("b", 5))
    sim.process(user("c", 5))
    sim.run()
    assert order == [("a", 0), ("b", 5), ("c", 10)]


def test_resource_capacity_two():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    order = []

    def user(tag):
        req = res.request()
        yield req
        order.append((tag, sim.now))
        yield sim.timeout(10)
        res.release(req)

    for tag in "abc":
        sim.process(user(tag))
    sim.run()
    assert order == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_invalid_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


def test_release_unknown_request_raises():
    sim = Simulator()
    res = Resource(sim)
    other = Resource(sim)
    req = other.request()
    with pytest.raises(RuntimeError):
        res.release(req)


def test_release_waiting_request_cancels_it():
    sim = Simulator()
    res = Resource(sim)
    first = res.request()
    second = res.request()
    assert res.queue_length == 1
    res.release(second)  # cancel before grant
    assert res.queue_length == 0
    res.release(first)
    assert not res.busy


def test_priority_resource_orders_by_priority():
    sim = Simulator()
    res = PriorityResource(sim)
    order = []

    def user(tag, priority):
        req = res.request(priority=priority)
        yield req
        order.append(tag)
        yield sim.timeout(1)
        res.release(req)

    def spawn_all():
        hold = res.request(priority=-10)
        yield hold
        sim.process(user("low", 5))
        sim.process(user("high", 1))
        sim.process(user("mid", 3))
        yield sim.timeout(1)
        res.release(hold)

    sim.process(spawn_all())
    sim.run()
    assert order == ["high", "mid", "low"]


def test_priority_resource_fifo_among_equals():
    sim = Simulator()
    res = PriorityResource(sim)
    order = []

    def user(tag):
        req = res.request(priority=1)
        yield req
        order.append(tag)
        yield sim.timeout(1)
        res.release(req)

    def spawn():
        hold = res.request(priority=0)
        yield hold
        for tag in "abc":
            sim.process(user(tag))
        yield sim.timeout(1)
        res.release(hold)

    sim.process(spawn())
    sim.run()
    assert order == ["a", "b", "c"]


def test_priority_resource_cancel_waiting():
    sim = Simulator()
    res = PriorityResource(sim)
    first = res.request(priority=0)
    second = res.request(priority=1)
    res.release(second)
    assert res.queue_length == 0
    res.release(first)


def test_resource_wait_accounting():
    sim = Simulator()
    res = Resource(sim)

    def user(hold):
        req = res.request()
        yield req
        yield sim.timeout(hold)
        res.release(req)

    sim.process(user(10))
    sim.process(user(10))
    sim.run()
    assert res.grant_count == 2
    assert res.wait_cycles_total == 10


def _repeating_arbiter():
    """A held repeating request and two queued ones, made at cycle 0."""
    sim = Simulator()
    res = PriorityResource(sim)
    holder = res.request(1, 3, 5)
    res.request(0, 2, 7)
    res.request(2, 4, 3)
    return sim, res, holder


def _arbiter_state(res):
    def key(req):
        return req.priority, req.count, req.requested_at

    return (key(res.users[0]), sorted((p, o, key(r)) for p, o, r in res._pq),
            res._counter, res.grant_count, res.wait_cycles_total)


@pytest.mark.parametrize("limit", [4, 5, 19, 24, 100])
def test_priority_resource_replay_is_release_then_request(limit):
    sim, res, holder = _repeating_arbiter()
    res.replay(holder, limit)

    # The same grants, one release and re-request at a time.
    ref_sim, ref, held = _repeating_arbiter()
    while held.count > 1 and ref_sim.now + held.hold <= limit:
        ref_sim.now += held.hold
        ref.release(held)
        ref.request(held.priority, held.count - 1, held.hold)
        held = ref.users[0]
    assert _arbiter_state(res) == _arbiter_state(ref)
    # A hand-over leaves the old holder queued and pending.
    assert holder.triggered == (res.users[0] is holder)


def test_priority_resource_replay_needs_every_queued_request_to_repeat():
    sim = Simulator()
    res = PriorityResource(sim)
    holder = res.request(1, 3, 5)
    res.request(-1)
    assert res.replay(holder, 100) is None and holder.count == 3


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = store.get()
    assert got.triggered
    assert got.value == "x"
    assert len(store) == 0


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    values = []

    def consumer():
        item = yield store.get()
        values.append((sim.now, item))

    sim.process(consumer())
    sim.schedule(7, lambda: store.put("late"))
    sim.run()
    assert values == [(7, "late")]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert store.get().value == 1
    assert store.get().value == 2
