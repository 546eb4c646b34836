"""``OPBBus.burst`` against a per-transfer oracle.

The oracle, :func:`_transfer_loop`, is the arbitrated transfer without
coalescing: one request, grant, timeout and release per transaction.
Patched in place of ``OPBBus.burst`` it also stands in for ``transfer``
(which delegates to ``burst``), so a whole run replays on the
per-transfer path.  Every observable must match bit for bit; the engine
event count must not -- folding is the point -- and is pinned exactly,
so a silent loss of coalescing fails here too.
"""

import dataclasses

import pytest

from repro import CLOCK_HZ, TICK
from repro.experiments.figure4 import ARRIVAL_PHASES_S
from repro.faults.plan import FAULT_KINDS, random_plan
from repro.faults.scenarios import campaign_cell, demo_taskset
from repro.hw.bus import OPBBus
from repro.hw.memory import DDRMemory
from repro.hw.microblaze import ExecutionProfile, MicroBlaze, SegmentResult
from repro.kernel import DualPriorityMicrokernel
from repro.sim import Interrupt, Simulator
from repro.sim.engine import BUCKET_HORIZON
from repro.simulators.prototype import PrototypeConfig, PrototypeSimulator
from repro.trace import TraceRecorder
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)

QUEUES = ("bucket", "heap")
#: DDR latency of a one-word transfer.
LAT = DDRMemory().access_latency(1)


def _transfer_loop(self, master, target, n, words=1):
    """The oracle: ``n`` plain arbitrated transfers, one at a time."""
    spent = 0
    for _ in range(n):
        start = self.sim.now
        request = self._arbiter.request(priority=master)
        try:
            yield request
            waited = self.sim.now - start
            latency = target.access_latency(words)
            yield self.sim.timeout(latency)
        finally:
            self._arbiter.release(request)
        stats = self.stats
        stats.busy_cycles += latency
        stats.transactions += 1
        stats.wait_cycles[master] = stats.wait_cycles.get(master, 0) + waited
        stats.transfer_cycles[master] = stats.transfer_cycles.get(master, 0) + 1
        stats.per_target[target.name] = stats.per_target.get(target.name, 0) + latency
        spent += waited + latency
    return spent


def _both(monkeypatch, run):
    """``run()`` with the real ``burst``, then with the oracle."""
    fast = run()
    with monkeypatch.context() as patch:
        patch.setattr(OPBBus, "burst", _transfer_loop)
        slow = run()
    return fast, slow


def _bus_state(bus):
    return {
        "stats": dataclasses.asdict(bus.stats),
        "grants": bus._arbiter.grant_count,
        "arbiter_wait": bus._arbiter.wait_cycles_total,
        "arrivals": bus._arbiter._counter,
        "queued": bus.queue_length,
        "busy": bus.busy,
        "now": bus.sim.now,
    }


def _assert_same(fast, slow, skip=("events",)):
    """Every observable but the work counts in ``skip`` matches."""
    for key in fast.keys() - set(skip):
        assert fast[key] == slow[key], key


# -------------------------------------------------------- full-system runs
def _system_state(soc, kernel, trace, error):
    return {
        "jobs": [(j.task.name, j.index, j.release, j.start_time, j.finish_time,
                  j.cpu, j.preemptions, j.migrations, j.retries, j.invalid, j.shed)
                 for j in kernel.finished_jobs],
        "trace": list(trace.events),
        "cores": [core.utilization_stats for core in soc.cores],
        "kernel": kernel.stats(),
        "error": error,
        "events": soc.sim._eid,
        **_bus_state(soc.bus),
    }


def _prototype_cell(n_cpus, utilization, phase):
    taskset = prepare_taskset(build_automotive_taskset(utilization, n_cpus),
                              n_cpus, tick=TICK)
    arrival = int(ARRIVAL_PHASES_S[phase] * CLOCK_HZ)
    horizon = arrival + int(25.0 * CLOCK_HZ)
    trace = TraceRecorder()
    proto = PrototypeSimulator(
        taskset, PrototypeConfig(n_cpus=n_cpus, tick=TICK, scale=1_000),
        bindings=automotive_bindings(),
        aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]}, trace=trace,
    )
    error = None
    try:
        proto.run(horizon)
    except Exception as exc:  # compared, not raised: both paths must agree
        error = type(exc).__name__
    return _system_state(proto.soc, proto.kernel, trace, error)


@pytest.mark.parametrize("cell, queue, events, oracle_events, error", [
    ((2, 0.40, 0), "bucket", 8_492, 61_479, None),
    ((2, 0.40, 0), "heap", 8_492, 61_479, None),
    ((3, 0.50, 1), "bucket", 14_389, 93_411, None),  # the reference cell
    ((4, 0.60, 0), "bucket", 26_022, 133_399, None),
    # Overloaded: jobs are released past their deadlines, which the
    # watchdog counts as misses; both paths must agree on every one.
    ((4, 0.60, 1), "bucket", 32_683, 142_637, None),
], ids=["2P40-ph0", "2P40-ph0-heap", "3P50-ph1", "4P60-ph0", "4P60-ph1"])
def test_prototype_cell_matches_per_transfer_oracle(monkeypatch, cell, queue, events,
                                                    oracle_events, error):
    monkeypatch.setattr(Simulator, "DEFAULT_QUEUE", queue)
    fast, slow = _both(monkeypatch, lambda: _prototype_cell(*cell))
    _assert_same(fast, slow)
    assert fast["stats"]["transactions"] > 0 and fast["error"] == error
    # The oracle's count is the per-transfer engine's; the fold's must
    # stay exactly where it is.
    assert (fast["events"], slow["events"]) == (events, oracle_events)


def test_fault_campaign_cell_matches_per_transfer_oracle(monkeypatch):
    """A seeded plan of all nine kinds, two bus stalls among them."""
    wcets = {task.name: task.wcet for task in demo_taskset().periodic}
    plan = random_plan(seed=1, horizon=2_000_000, tasks=wcets, n_cpus=2,
                       n_faults=12, kinds=FAULT_KINDS)
    assert sum(event.kind == "bus_stall" for event in plan.events) == 2
    kernels = []
    run_kernel = DualPriorityMicrokernel.run

    def capturing_run(self, *args, **kwargs):
        kernels.append(self)
        return run_kernel(self, *args, **kwargs)

    monkeypatch.setattr(DualPriorityMicrokernel, "run", capturing_run)

    def run():
        error = None
        try:
            cell = campaign_cell({"plan": plan.to_dict(), "recovery": {"enabled": True},
                                  "until": 2_000_000})
        except Exception as exc:
            cell, error = None, type(exc).__name__
        kernel = kernels[-1]
        return {"cell": cell,
                **_system_state(kernel.soc, kernel, kernel.trace, error)}

    fast, slow = _both(monkeypatch, run)
    _assert_same(fast, slow)
    assert fast["stats"]["stalls_injected"] == 2
    assert (fast["events"], slow["events"]) == (3_079, 23_352)


# ------------------------------------------------------------- edge cases
@pytest.fixture(params=QUEUES)
def queue(request):
    return request.param


def _bus_run(queue, scenario):
    """Build a bus on a fresh ``queue`` simulator and run ``scenario``.

    ``scenario(sim, bus, ddr, log)`` sets up and drives the run; the
    returned observation adds the bus state, the event count and every
    sleep the run asked for.
    """
    sim = Simulator(queue=queue)
    bus, ddr, log, sleeps = OPBBus(sim), DDRMemory(), [], []
    timeout = sim.timeout

    def recording_timeout(delay, value=None):
        sleeps.append(delay)
        return timeout(delay, value)

    sim.timeout = recording_timeout
    scenario(sim, bus, ddr, log)
    return {"log": log, "sleeps": sleeps, "events": sim._eid, **_bus_state(bus)}


def _burst_both(monkeypatch, queue, scenario):
    fast, slow = _both(monkeypatch, lambda: _bus_run(queue, scenario))
    _assert_same(fast, slow, skip=("events", "sleeps"))
    return fast, slow


def test_uncontended_burst_is_one_sleep(monkeypatch, queue):
    def scenario(sim, bus, ddr, log):
        def master():
            spent = yield from bus.burst(2, ddr, 5, words=3)
            log.append((sim.now, spent))

        sim.process(master())
        sim.run()

    fast, slow = _burst_both(monkeypatch, queue, scenario)
    latency = DDRMemory().access_latency(3)
    assert fast["sleeps"] == [5 * latency]
    assert slow["sleeps"] == [latency] * 5
    assert fast["log"] == [(5 * latency, 5 * latency)]
    stats = fast["stats"]
    assert (stats["transactions"], stats["busy_cycles"], fast["grants"]) == (
        5, 5 * latency, 5)
    assert stats["transfer_cycles"] == {2: 5}
    assert fast["events"] < slow["events"]


def _bursting(sim, bus, ddr, log, mid, delay, n):
    """A master that sleeps ``delay`` cycles, then bursts ``n`` transfers."""
    yield sim.timeout(delay)
    spent = yield from bus.burst(mid, ddr, n)
    log.append((mid, sim.now, spent))


def test_queued_master_alternates_as_the_transfer_loop(monkeypatch, queue):
    """Masters 1 and 2 both queue behind master 9: every release hands
    the bus to the other one, and the replay resolves the alternation."""

    def scenario(sim, bus, ddr, log):
        sim.process(_bursting(sim, bus, ddr, log, 9, 0, 1))
        sim.process(_bursting(sim, bus, ddr, log, 1, 1, 3))
        sim.process(_bursting(sim, bus, ddr, log, 2, 1, 3))
        sim.run()

    fast, _ = _burst_both(monkeypatch, queue, scenario)
    assert fast["log"] == [(9, LAT, LAT), (1, 6 * LAT, 6 * LAT - 1),
                           (2, 7 * LAT, 7 * LAT - 1)]
    # Master 9's exit is due at master 1's grant (12), so 12..24 is a
    # real sleep.  At master 2's grant (24) the replay folds 24..60 and
    # hands master 1 its last transfer at 60; only the two last
    # transfers sleep.
    assert fast["sleeps"] == [0, 1, 1] + [LAT] * 4


def test_fixed_priority_starves_the_lowest_master(monkeypatch, queue):
    """Masters 0 and 1 queue behind master 2's first transfer; at each
    release the replay grants the lower id, so master 2 waits until
    master 1 has finished."""

    def scenario(sim, bus, ddr, log):
        for mid, delay in ((2, 0), (0, 1), (1, 1)):
            sim.process(_bursting(sim, bus, ddr, log, mid, delay, 3))
        sim.run()

    fast, _ = _burst_both(monkeypatch, queue, scenario)
    assert fast["log"] == [(0, 6 * LAT, 6 * LAT - 1), (1, 7 * LAT, 7 * LAT - 1),
                           (2, 9 * LAT, 9 * LAT)]
    assert fast["stats"]["wait_cycles"] == {2: 6 * LAT, 0: 2 * LAT + 11,
                                            1: 3 * LAT + 11}
    # Master 0's replay at 12 resolves 0, 1, 0, 1 and keeps its own last
    # transfer: one 5-transfer sleep.  Exits cap the rest.
    assert fast["sleeps"] == [0, 1, 1, LAT, 5 * LAT] + [LAT] * 3


def _holder(sim, bus, ddr):
    """Master 5 has the bus at 0 and then stays quiet for 100 cycles."""
    yield from bus.transfer(5, ddr)
    yield sim.timeout(100)


def test_queued_transfer_ends_the_window_at_its_grant(monkeypatch, queue):
    """Master 0's replay grants master 2's single transfer at its first
    release: that transfer is the window's last, slept by master 2
    after a hand-over, while master 0 queues for its next grant."""

    def scenario(sim, bus, ddr, log):
        sim.process(_holder(sim, bus, ddr))
        sim.process(_bursting(sim, bus, ddr, log, 0, 1, 4))
        sim.process(_bursting(sim, bus, ddr, log, 2, 1, 1))
        sim.run()

    fast, _ = _burst_both(monkeypatch, queue, scenario)
    assert fast["log"] == [(2, 3 * LAT, 3 * LAT - 1), (0, 6 * LAT, 6 * LAT - 1)]
    # 12..24 (master 0) is folded; 24..36 is master 2's sleep.
    assert fast["sleeps"] == [1, 1, LAT, 100, LAT, LAT, 2 * LAT]


def test_queued_stall_disables_the_fold(monkeypatch, queue):
    """A stall queued at master 1's grant keeps that grant per transfer;
    once the stall has released, the masters fold again."""

    def scenario(sim, bus, ddr, log):
        def glitch():
            yield sim.timeout(11)  # lands at 24, after master 2's release
            yield from bus.stall(30)
            log.append(("stall", sim.now))

        sim.process(_bursting(sim, bus, ddr, log, 1, 0, 6))
        sim.process(_bursting(sim, bus, ddr, log, 2, 1, 6))
        sim.schedule(13, lambda: sim.process(glitch()))
        sim.run()

    fast, _ = _burst_both(monkeypatch, queue, scenario)
    assert fast["log"] == [("stall", 66), (1, 66 + 7 * LAT, 66 + 7 * LAT),
                           (2, 66 + 9 * LAT, 66 + 9 * LAT - 1)]
    assert fast["stats"]["stall_cycles"] == 30
    # 24..36 is master 1's own sleep: the stall is queued.  The stall's
    # exit caps master 1's grant at 66; master 2's replay at 78 then
    # resolves 78..138 and hands master 1 its last transfer.
    assert fast["sleeps"] == [0, 1, LAT, LAT, 11, LAT, 30] + [LAT] * 4


def test_interrupt_into_a_handed_over_master_leaves_the_queue(monkeypatch, queue):
    """Master 0 is queued again by its own replay's hand-over; an
    interrupt must take that request out of the arbiter's heap."""

    def scenario(sim, bus, ddr, log):
        def master():
            try:
                yield from bus.burst(0, ddr, 4)
            except Interrupt as interrupt:
                log.append(("interrupted", sim.now, interrupt.cause))

        sim.process(_holder(sim, bus, ddr))
        proc = sim.process(master())
        sim.process(_bursting(sim, bus, ddr, log, 2, 1, 1))
        sim.schedule(30, lambda: proc.interrupt("irq"))
        sim.run()

    fast, _ = _burst_both(monkeypatch, queue, scenario)
    assert fast["log"] == [("interrupted", 30, "irq"), (2, 3 * LAT, 3 * LAT - 1)]
    assert (fast["queued"], fast["busy"], fast["grants"]) == (0, False, 3)
    assert fast["stats"]["transfer_cycles"] == {5: 1, 0: 1, 2: 1}
    assert fast["sleeps"] == [1, LAT, 100, LAT]


def test_run_until_between_hand_overs(monkeypatch, queue):
    def scenario(sim, bus, ddr, log):
        sim.process(_bursting(sim, bus, ddr, log, 1, 0, 4))
        sim.process(_bursting(sim, bus, ddr, log, 2, 1, 4))
        for until in (30, 55, None):
            sim.run(until=until)
            log.append((sim.now, _bus_state(bus)))

    fast, _ = _burst_both(monkeypatch, queue, scenario)
    # Hand-overs at 24 and 48 (master 2 to master 1); each run stops
    # while master 1 holds the bus and master 2 is queued.
    (t30, at30), (t55, at55) = fast["log"][:2]
    assert (t30, at30["grants"], at30["queued"], at30["busy"]) == (30, 3, 1, True)
    assert (t55, at55["grants"], at55["queued"], at55["busy"]) == (55, 5, 1, True)
    assert fast["sleeps"] == [0, 1, LAT, LAT, LAT, LAT, LAT]


def test_hand_over_beyond_the_bucket_horizon(monkeypatch, queue):
    """A 1060-cycle window: the hand-over at 1056 is pushed from 12, at
    least ``BUCKET_HORIZON`` ahead, so it takes the far-heap path."""
    assert 1056 - LAT >= BUCKET_HORIZON

    def scenario(sim, bus, ddr, log):
        sim.process(_bursting(sim, bus, ddr, log, 1, 0, 100))
        sim.process(_bursting(sim, bus, ddr, log, 2, 1, 100))
        sim.schedule(1060, lambda: log.append(
            ("peek", sim.now, bus.stats.transactions, bus.busy)))
        sim.run()

    fast, slow = _burst_both(monkeypatch, queue, scenario)
    assert fast["log"][0] == ("peek", 1060, 88, True)
    assert fast["stats"]["transfer_cycles"] == {1: 100, 2: 100}
    assert fast["sleeps"][:4] == [0, 1, LAT, LAT]
    assert (fast["events"], slow["events"]) == (17, 407)


@pytest.mark.parametrize("peek_at, sleeps, seen", [
    # Four releases fold by 48, before the peek; the fifth transfer is
    # the real sleep the peek sees in flight.
    (50, [5 * LAT, 5 * LAT], 4),
    (4 * LAT, [4 * LAT, 6 * LAT], 3),  # the peek ties a boundary: older entry first
])
def test_foreign_entry_caps_the_fold(monkeypatch, queue, peek_at, sleeps, seen):
    def scenario(sim, bus, ddr, log):
        def master():
            spent = yield from bus.burst(0, ddr, 10)
            log.append(("done", sim.now, spent))

        sim.process(master())
        sim.schedule(peek_at, lambda: log.append(
            ("peek", sim.now, bus.stats.transactions, bus.busy)))
        sim.run()

    fast, _ = _burst_both(monkeypatch, queue, scenario)
    assert fast["sleeps"] == sleeps
    assert fast["log"] == [("peek", peek_at, seen, True), ("done", 10 * LAT, 10 * LAT)]


def test_run_until_mid_burst_leaves_the_same_stats_and_clock(monkeypatch, queue):
    def scenario(sim, bus, ddr, log):
        def master():
            yield from bus.burst(0, ddr, 10)

        sim.process(master())
        for until in (50, 100, None):
            sim.run(until=until)
            log.append((sim.now, bus.stats.transactions, bus.stats.busy_cycles))

    fast, _ = _burst_both(monkeypatch, queue, scenario)
    assert fast["log"] == [(50, 4, 4 * LAT), (100, 8, 8 * LAT), (10 * LAT, 10, 10 * LAT)]


def test_stall_mid_burst_takes_the_bus_at_the_next_boundary(monkeypatch, queue):
    def scenario(sim, bus, ddr, log):
        def master():
            spent = yield from bus.burst(1, ddr, 10)
            log.append(("done", sim.now, spent))

        def glitch():
            yield sim.timeout(50)
            yield from bus.stall(30)
            log.append(("stall", sim.now))

        sim.process(master())
        sim.process(glitch())
        sim.run()

    fast, _ = _burst_both(monkeypatch, queue, scenario)
    # Five transfers by 60, the stall holds 60..90, then five more.
    assert fast["log"] == [("stall", 90), ("done", 90 + 5 * LAT, 90 + 5 * LAT)]
    assert fast["stats"]["wait_cycles"] == {1: 30}


def test_interrupt_mid_burst_gives_the_same_credit(monkeypatch, queue):
    profile = ExecutionProfile(access_period=50, access_words=1)

    def scenario(sim, bus, ddr, log):
        core = MicroBlaze(sim, 0, bus, ddr, chunk_cycles=1_000)
        result = SegmentResult()

        def task():
            try:
                yield from core.execute(5_000, profile, result)
            except Interrupt as interrupt:
                log.append(("interrupted", sim.now, interrupt.cause))

        proc = sim.process(task())
        # Chunk 2 computes locally over 1000..1760, then bursts 20 transfers.
        sim.schedule(1_850, lambda: proc.interrupt("irq"))
        sim.run()
        log.append(vars(result))
        log.append(core.utilization_stats)

    fast, _ = _burst_both(monkeypatch, queue, scenario)
    assert fast["log"][0] == ("interrupted", 1_850, "irq")
    assert fast["log"][1]["nominal_done"] == 1_850
    # 20 transfers in chunk 1, 7 folded before the interrupt's instant
    # plus the one it lands in, which is abandoned and not counted.
    assert fast["stats"]["transactions"] == 27
