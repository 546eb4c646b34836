"""The incremental ``MPDPScheduler.allocate`` against the from-scratch one.

Every run below patches ``allocate`` with :class:`Lockstep`, which
requires, at every call, the same ``Allocation``, queue contents and
job records as :func:`scratch_allocate` (the fold-back-and-repop pass
the incremental one replaced) on the same state.  The unit cases pin
the hazards a from-scratch pass handles implicitly.
"""

import pytest

from repro.core import queues
from repro.core.mpdp import MPDPScheduler
from repro.core.task import AperiodicTask, Job, PeriodicTask, TaskSet
from repro.experiments.figure4 import ARRIVAL_PHASES_S
from repro.faults.plan import FAULT_KINDS, random_plan
from repro.faults.scenarios import campaign_cell, demo_taskset
from repro.simulators.ladder import run_rung
from repro.workloads.automotive import (
    automotive_bindings,
    automotive_cell,
    aperiodic_window,
)
from tests.core.mpdp_oracle import Lockstep, checked_allocate
from tests.simulators.test_abstract_loop import GOLDEN, digest


def _task(name, cpu=0, low=0, high=0, promotion=0, period=1000, wcet=100):
    return PeriodicTask(name=name, wcet=wcet, period=period, low_priority=low,
                        high_priority=high, cpu=cpu, promotion=promotion)


def _aperiodic(index, release=0):
    return Job(AperiodicTask(name="evt", wcet=100), release=release, index=index)


# ------------------------------------------------------------- whole runs
@pytest.mark.parametrize("loop", ["theoretical@0.0", "theoretical@0.02"])
def test_theoretical_golden_cases_in_lockstep(monkeypatch, loop):
    lockstep = Lockstep(monkeypatch)
    assert digest(loop) == GOLDEN[loop]
    assert lockstep.changed > 0 and lockstep.calls > lockstep.changed


@pytest.mark.parametrize("fidelity", ["tlm", "prototype"])
@pytest.mark.parametrize("cell", [(2, 0.40), (4, 0.60)], ids=["2P40", "4P60"])
def test_figure4_cell_in_lockstep(monkeypatch, fidelity, cell):
    n_cpus, utilization = cell
    arrivals, horizon = aperiodic_window(ARRIVAL_PHASES_S[0], 25.0)
    lockstep = Lockstep(monkeypatch)
    run_rung(fidelity, automotive_cell(n_cpus, utilization), n_cpus, horizon,
             scale=1_000, bindings=automotive_bindings(),
             aperiodic_arrivals=arrivals)
    assert lockstep.changed > 0


def test_fault_campaign_plan_in_lockstep(monkeypatch):
    wcets = {task.name: task.wcet for task in demo_taskset().periodic}
    plan = random_plan(seed=1, horizon=2_000_000, tasks=wcets, n_cpus=2,
                       n_faults=12, kinds=FAULT_KINDS)
    lockstep = Lockstep(monkeypatch)
    cell = campaign_cell({"plan": plan.to_dict(), "recovery": {"enabled": True},
                          "until": 2_000_000})
    assert cell["faults_fired"] > 0
    assert lockstep.changed > 0


def test_queue_operations_pinned(monkeypatch):
    """The incremental pass moves only the jobs that change place; the
    count over one theoretical cell is exact (the from-scratch pass
    needed 1,805 here)."""
    ops = []
    for cls, names in (
        (queues.PeriodicReadyQueue, ("push", "pop", "remove")),
        (queues.HighPriorityLocalQueue, ("push", "pop", "remove")),
        (queues.AperiodicReadyQueue, ("push", "pop", "remove", "requeue_front")),
        (queues.WaitingPeriodicQueue, ("push", "pop_released")),
    ):
        for name in names:
            original = getattr(cls, name)

            def counted(*args, _original=original, **kwargs):
                ops.append(None)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
    arrivals, horizon = aperiodic_window(ARRIVAL_PHASES_S[0], 25.0)
    run_rung("theoretical", automotive_cell(2, 0.40), 2, horizon,
             aperiodic_arrivals=arrivals)
    assert len(ops) == 905


# -------------------------------------------------------------- unit cases
def test_unchanged_state_touches_nothing(monkeypatch):
    sched = MPDPScheduler(TaskSet([_task("a"), _task("b", cpu=1)]), 2)
    sched.release_due(0)
    first = sched.allocate(0)
    assert first.switches == [0, 1]
    records = [(job.state, job.cpu, job.start_time) for job in sched.running]
    for cls in (queues.PeriodicReadyQueue, queues.HighPriorityLocalQueue,
                queues.AperiodicReadyQueue):
        for name in ("push", "pop", "remove"):
            monkeypatch.setattr(cls, name, None)
    again = sched.allocate(50)
    assert again.assignment == first.assignment and again.switches == []
    assert [(job.state, job.cpu, job.start_time) for job in sched.running] == records


def test_aperiodic_jobs_keep_running_in_reverse_cpu_order():
    """Three middle-band jobs run; two promotions bind cpus 0 and 1.
    The surviving job is the one on the highest cpu, not the oldest:
    the fold-back requeued running jobs at the ARQ head in cpu order."""
    tasks = [_task("p0", cpu=0, promotion=100), _task("p1", cpu=1, promotion=100)]
    sched = MPDPScheduler(TaskSet(tasks, [AperiodicTask(name="evt", wcet=100)]), 3)
    jobs = [_aperiodic(index) for index in range(3)]
    for job in jobs:
        sched.add_aperiodic(job)
    checked_allocate(sched, 0)
    sched.release_due(0)
    checked_allocate(sched, 0)
    assert sched.running == jobs
    sched.promote_due(100)
    allocation = checked_allocate(sched, 100)
    assert allocation.assignment[2] is jobs[2]
    assert list(sched.aperiodic_ready) == [jobs[1], jobs[0]]
    assert [job.preemptions for job in jobs] == [1, 1, 0]


def test_job_promoted_while_running_competes_for_its_home_cpu():
    """``b`` (home cpu 1) runs on cpu 0 in the lower band; promoted, it
    outranks cpu 1's running job and takes that cpu over."""
    tasks = [_task("a", cpu=0, low=1, high=0, promotion=500),
             _task("b", cpu=1, low=2, high=3, promotion=100),
             _task("c", cpu=1, low=0, high=1, promotion=0)]
    sched = MPDPScheduler(TaskSet(tasks), 2)
    sched.release_due(0)
    sched.promote_due(0)
    checked_allocate(sched, 0)
    b = next(job for job in sched.running if job.task.name == "b")
    assert sched.running.index(b) == 0
    sched.promote_due(100)
    checked_allocate(sched, 100)
    assert sched.running[1] is b and b.migrations == 1


def test_shed_clears_the_decision():
    tasks = [_task("a", low=2), _task("b", low=1)]
    sched = MPDPScheduler(TaskSet(tasks), 1)
    sched.release_due(0)
    checked_allocate(sched, 0)
    assert sched._decided is not None
    queued = sched.periodic_ready.peek()
    sched.shed(queued, 0)
    assert sched._decided is None and queued.shed and len(sched.periodic_ready) == 0
    sched.running[0].remaining = 0
    sched.job_finished(sched.running[0], 10)
    assert checked_allocate(sched, 10).assignment == [None]
