"""Stateful property test of the MPDP policy (hypothesis state machine).

Drives the scheduler through arbitrary interleavings of its five
operations -- time advance + release, promotion, aperiodic arrival,
allocation, and completion of running work -- and checks the
structural invariants plus job conservation after every step.  The
scheduling cycle and one allocation rule run in lockstep with the
from-scratch oracle (:mod:`tests.core.mpdp_oracle`).
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.mpdp import MPDPScheduler
from repro.core.task import AperiodicTask, Job, PeriodicTask, TaskSet
from tests.core.mpdp_oracle import checked_allocate


def _taskset():
    periodic = [
        PeriodicTask(name="fast", wcet=50, period=400, deadline=300,
                     low_priority=2, high_priority=2, cpu=0, promotion=100),
        PeriodicTask(name="mid", wcet=80, period=600,
                     low_priority=1, high_priority=1, cpu=1, promotion=200),
        PeriodicTask(name="slow", wcet=120, period=900,
                     low_priority=0, high_priority=0, cpu=0, promotion=400),
    ]
    aperiodic = [AperiodicTask(name="evt", wcet=60)]
    return TaskSet(periodic, aperiodic)


class MPDPMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.taskset = _taskset()
        self.scheduler = MPDPScheduler(self.taskset, n_cpus=2)
        self.now = 0
        self.aper_index = 0
        self.total_aperiodic = 0

    @rule(delta=st.integers(1, 250))
    def advance_and_release(self, delta):
        self.now += delta
        self.scheduler.release_due(self.now)

    @rule()
    def scheduling_cycle(self):
        # In the kernel, promotion is always followed by allocation in
        # the same (interrupt-disabled) scheduling cycle; the structural
        # invariants are only required to hold at cycle boundaries.
        self.scheduler.release_due(self.now)
        self.scheduler.promote_due(self.now)
        checked_allocate(self.scheduler, self.now)

    @rule()
    def arrive_aperiodic(self):
        if self.total_aperiodic >= 20:
            return
        job = Job(self.taskset.aperiodic[0], release=self.now, index=self.aper_index)
        self.aper_index += 1
        self.total_aperiodic += 1
        self.scheduler.add_aperiodic(job)

    @rule()
    def allocate(self):
        self.scheduler.allocate(self.now)

    @rule()
    def allocate_in_lockstep(self):
        checked_allocate(self.scheduler, self.now)

    @rule(work=st.integers(1, 100))
    def execute_running(self, work):
        for job in list(self.scheduler.running):
            if job is None:
                continue
            job.remaining = max(0, job.remaining - work)
            if job.remaining == 0:
                self.scheduler.job_finished(job, self.now)

    @invariant()
    def structural_invariants_hold(self):
        if not hasattr(self, "scheduler"):
            return
        self.scheduler.check_invariants()

    @invariant()
    def periodic_population_conserved(self):
        if not hasattr(self, "scheduler"):
            return
        # Each periodic task has exactly one live (non-finished) job.
        live = {}
        sched = self.scheduler
        for job in list(sched.waiting) + list(sched.periodic_ready):
            if job.is_periodic:
                live[job.task.name] = live.get(job.task.name, 0) + 1
        for queue in sched.local:
            for job in queue:
                live[job.task.name] = live.get(job.task.name, 0) + 1
        for job in sched.running:
            if job is not None and job.is_periodic:
                live[job.task.name] = live.get(job.task.name, 0) + 1
        for task in self.taskset.periodic:
            assert live.get(task.name, 0) == 1, (task.name, live)

    @invariant()
    def finished_jobs_are_complete(self):
        if not hasattr(self, "scheduler"):
            return
        for job in self.scheduler.finished_jobs:
            assert job.remaining == 0
            assert job.finish_time is not None


MPDPStatefulTest = MPDPMachine.TestCase
MPDPStatefulTest.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
