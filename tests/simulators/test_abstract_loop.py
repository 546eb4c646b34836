"""Golden identity of the two stepping loops: tick-quantized MPDP
(:class:`TheoreticalSimulator`) and the event-exact baselines
(:class:`MultiprocessorSimulator` under P-FP, G-FP and G-EDF).

Each digest covers, over seeded task sets on 1-4 CPUs with extra
aperiodic arrivals on top of an in-taskset ``arrivals=`` tuple, every
finished job (name, index, release, finish, preemptions, migrations,
cpu), every recorded trace event, the simulator's counters and its
final clock.  The values are pinned, so any change that alters what a
loop does fails here and names the loop.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.analysis import assign_promotions, partition, random_taskset
from repro.core.task import TaskSet
from repro.simulators.baselines import (
    GlobalEDFPolicy,
    GlobalFixedPriorityPolicy,
    MultiprocessorSimulator,
    PartitionedFixedPriorityPolicy,
)
from repro.simulators.theoretical import TheoreticalSimulator
from repro.trace import TraceRecorder

TICK = 10_000
HORIZON = 2_000_000
CASES = [(n_cpus, seed) for n_cpus in (1, 2, 3, 4) for seed in range(5)]
BASELINES = {
    "partitioned-fp": PartitionedFixedPriorityPolicy,
    "global-fp": GlobalFixedPriorityPolicy,
    "global-edf": GlobalEDFPolicy,
}

GOLDEN = {
    "theoretical@0.0": "b6b2f4c7e5084a48",
    "theoretical@0.02": "8d73c31b3928eff9",
    "partitioned-fp@0": "d4063dc0f2467beb",
    "partitioned-fp@700": "47ee96dbfa2e7333",
    "global-fp@0": "1f7272c7c400b4c3",
    "global-fp@700": "20fb1f1fdd8a71a6",
    "global-edf@0": "c8ae7543917f523d",
    "global-edf@700": "1b05e2f4d32ce8ac",
}


def workload(n_cpus, seed):
    """An analysed task set plus extra arrivals for one case."""
    base = random_taskset(
        1 + 2 * n_cpus, 0.6 * n_cpus, seed=seed, n_aperiodic=2,
        min_period=100_000, max_period=800_000,
    )
    rng = random.Random(seed)
    own = sorted(rng.randrange(HORIZON) for _ in range(3))
    first, second = base.aperiodic
    tasks = TaskSet(base.periodic, [replace(first, arrivals=tuple(own)), second])
    tasks = assign_promotions(partition(tasks, n_cpus), n_cpus, tick=TICK)
    extra = {
        first.name: [own[0], rng.randrange(HORIZON)],
        second.name: [0] + [rng.randrange(HORIZON + TICK) for _ in range(4)],
    }
    return tasks, extra


def simulate(loop, n_cpus, seed, stops=(HORIZON,)):
    tasks, extra = workload(n_cpus, seed)
    trace = TraceRecorder()
    kind, _, knob = loop.rpartition("@")
    if kind == "theoretical":
        sim = TheoreticalSimulator(tasks, n_cpus, tick=TICK, overhead=float(knob),
                                   aperiodic_arrivals=extra, trace=trace)
        for stop in stops:
            sim.run(stop)
        finished, counters = sim.finished_jobs, sim.stats()
    else:
        sim = MultiprocessorSimulator(tasks, n_cpus, BASELINES[kind](),
                                      aperiodic_arrivals=extra,
                                      switch_penalty=int(knob), trace=trace)
        for stop in stops:
            sim.run(stop)
        finished, counters = sim.finished, sim.context_switches
    jobs = [(job.name, job.index, job.release, job.finish_time, job.preemptions,
             job.migrations, job.cpu) for job in finished]
    events = [(e.time, e.kind, e.job, e.cpu, e.info) for e in trace.events]
    return repr((jobs, events, counters, sim.now))


def digest(loop):
    h = hashlib.sha256()
    for n_cpus, seed in CASES:
        h.update(simulate(loop, n_cpus, seed).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("loop", sorted(GOLDEN))
def test_loop_matches_golden(loop):
    assert digest(loop) == GOLDEN[loop], f"the {loop} loop diverged from its golden run"


@pytest.mark.parametrize("loop", sorted(GOLDEN))
@pytest.mark.parametrize("seed", range(3))
def test_run_resumes_where_it_stopped(loop, seed):
    """``run(a); run(b)`` equals ``run(b)``: stopping mid-tick must not
    re-anchor the theoretical simulator's tick grid."""
    split = simulate(loop, 2, seed, stops=(1_055_000, HORIZON))
    assert split == simulate(loop, 2, seed), f"the {loop} loop does not resume"
