"""Failure injection: the system must degrade gracefully, not wedge.

Injected faults:

- *optimistic analysis*: promotions computed from understated WCETs
  (a task runs longer than its budget) -- deadline misses must be
  detected and reported, and the system must keep scheduling;
- *interrupt flood*: a peripheral raising frames far faster than the
  service rate -- no deadlock, all hard deadlines still met;
- *unacknowledged interrupts*: a processor stuck with interrupts
  disabled -- the MPIC timeout must reroute around it;
- *bus hog*: a rogue master saturating the OPB -- other masters make
  progress (no starvation for higher-priority ports).
"""

import pytest

from repro.analysis import assign_promotions, partition
from repro.core.task import AperiodicTask, PeriodicTask, TaskSet
from repro.hw.bus import OPBBus
from repro.hw.memory import DDRMemory
from repro.hw.soc import SoC, SoCConfig
from repro.kernel import DualPriorityMicrokernel
from repro.sim import Simulator
from repro.simulators.theoretical import TheoreticalSimulator
from repro.trace import TraceRecorder

TICK = 20_000


def test_optimistic_analysis_misses_are_detected_not_fatal():
    # Promotions computed as if the tasks were half their real size:
    # the guarantee is void, but the scheduler must keep running and
    # report the misses honestly.
    lying = TaskSet([
        PeriodicTask(name="a", wcet=30_000, period=100_000, deadline=50_000,
                     low_priority=1, high_priority=1, cpu=0,
                     promotion=45_000),  # as if W were only 15_000
        PeriodicTask(name="b", wcet=30_000, period=100_000, deadline=50_000,
                     low_priority=0, high_priority=0, cpu=0,
                     promotion=45_000),
    ])
    sim = TheoreticalSimulator(lying, 1, tick=TICK, overhead=0.0)
    sim.run(500_000)
    misses = [j for j in sim.finished_jobs if j.missed_deadline]
    assert misses, "the injected optimism must surface as misses"
    # The system kept going: jobs from late releases still completed.
    assert max(j.release for j in sim.finished_jobs) >= 400_000
    sim.policy.check_invariants()


def test_interrupt_flood_does_not_break_hard_guarantees():
    ts = TaskSet(
        [
            PeriodicTask(name="hard1", wcet=10_000, period=100_000),
            PeriodicTask(name="hard2", wcet=15_000, period=150_000),
        ],
        [AperiodicTask(name="flood", wcet=2_000)],
    ).with_deadline_monotonic_priorities()
    ts = partition(ts, 2)
    ts = assign_promotions(ts, 2, tick=TICK)

    soc = SoC(SoCConfig(n_cpus=2, tick_cycles=TICK, chunk_cycles=1_000))
    soc.add_can_interface("can0", task_name="flood")
    # One frame every 2_500 cycles: far above the sustainable rate.
    soc.peripherals["can0"].program_frames(list(range(50_000, 450_000, 2_500)))
    trace = TraceRecorder()
    kernel = DualPriorityMicrokernel(soc, ts, trace=trace)
    kernel.run(until=1_000_000)

    periodic_misses = [
        j for j in kernel.finished_jobs if j.is_periodic and j.missed_deadline
    ]
    assert periodic_misses == []
    # The flood was not silently dropped either.
    assert kernel.aperiodic_releases > 50
    kernel.policy.check_invariants()


def test_stuck_cpu_rerouted_by_mpic_timeout():
    soc = SoC(SoCConfig(n_cpus=2, mpic_ack_timeout=300))
    source = soc.intc.add_source("dev")
    # cpu0 wedges with interrupts enabled but never acknowledges.
    soc.intc.raise_interrupt(source)
    assert soc.intc.pending_for(0) == 1
    soc.sim.run(until=400)
    assert soc.intc.pending_for(0) == 0
    assert soc.intc.pending_for(1) == 1
    assert soc.intc.timeouts == 1
    _src, _payload = soc.intc.acknowledge(1)


def test_bus_stall_over_acknowledge_is_a_spurious_irq():
    """A stall holds the bus past the MPIC ack timeout while both cpus'
    acknowledge reads wait for it: the offer moves on, and each read
    that finds nothing is counted and traced, not raised."""
    ts = TaskSet([PeriodicTask(name="p", wcet=5_000, period=100_000)])
    ts = assign_promotions(partition(ts, 2), 2, tick=TICK)
    soc = SoC(SoCConfig(n_cpus=2, tick_cycles=TICK))
    dev = soc.intc.add_source("dev")

    def stall_then_raise():
        soc.sim.process(soc.bus.stall(5_000))
        soc.intc.raise_interrupt(dev, payload={"kind": "dev"})

    soc.sim.schedule(30_000, stall_then_raise)
    trace = TraceRecorder()
    kernel = DualPriorityMicrokernel(soc, ts, trace=trace)
    kernel.run(until=300_000)
    irqs = [(e.time, e.cpu, e.info) for e in trace.events
            if e.kind == "irq" and 30_000 <= e.time < 40_000]
    assert irqs == [(35_003, 0, "spurious"), (35_006, 1, "spurious"), (35_089, 0, "dev")]
    assert kernel.stats()["spurious_irqs"] == soc.intc.spurious == 2
    assert soc.intc.timeouts == 2


def test_bus_hog_cannot_starve_higher_priority_master():
    sim = Simulator()
    bus = OPBBus(sim)
    ddr = DDRMemory()
    finished = {}

    def hog():
        while sim.now < 50_000:
            yield from bus.transfer(3, ddr, words=8)  # back-to-back

    def victim():
        for _ in range(100):
            yield from bus.transfer(0, ddr, words=1)
            yield sim.timeout(5)
        finished["victim"] = sim.now

    sim.process(hog())
    sim.process(victim())
    sim.run(until=60_000)
    assert "victim" in finished
    # Victim's mean wait is bounded by one in-flight hog transaction.
    assert bus.stats.mean_wait(0) <= ddr.access_latency(8)


def test_kernel_survives_aperiodic_for_unknown_peripheral():
    """A peripheral with no task payload must be acknowledged and
    dropped, not crash the service loop."""
    ts = TaskSet([PeriodicTask(name="p", wcet=5_000, period=100_000)])
    ts = assign_promotions(partition(ts, 1), 1, tick=TICK)
    soc = SoC(SoCConfig(n_cpus=1, tick_cycles=TICK))
    rogue = soc.intc.add_source("rogue")
    soc.sim.schedule(30_000, lambda: soc.intc.raise_interrupt(rogue, payload={"kind": "???"}))
    kernel = DualPriorityMicrokernel(soc, ts)
    kernel.run(until=300_000)
    assert kernel.finished_jobs  # still scheduling
    assert kernel.irqs_serviced >= 2
