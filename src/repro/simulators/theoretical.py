"""The theoretical MPDP simulator (the paper's comparison baseline).

"The theoretical data for 2, 3, 4 processors architectures are
calculated with a simulator that adopts the same approach of the
scheduling kernel of the target architecture, considering a small
overhead (2%) for context switching and contentions.  Scheduling phase
is triggered each 0.1 seconds by the system timer."

So this simulator makes *exactly the same decisions* as the prototype
kernel -- it drives the identical :class:`~repro.core.mpdp.MPDPScheduler`
at the same tick granularity -- but replaces all physical effects
(arbitrated bus, context traffic, interrupt latency) with a uniform
inflation of execution times by ``overhead`` (2 % by default).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.mpdp import MPDPScheduler
from repro.core.task import Job, TaskSet
from repro.simulators.abstract import AbstractSimulator
from repro.trace.recorder import TraceRecorder


class TheoreticalSimulator(AbstractSimulator):
    """Event-driven MPDP with idealised hardware.

    Parameters
    ----------
    taskset:
        Analysed task set (promotions + partition assigned).
    n_cpus:
        Number of processors.
    tick:
        Scheduling period in cycles (the paper: 0.1 s = 5 M cycles).
    overhead:
        Fractional execution-time inflation standing in for context
        switches and contention (paper: 0.02).
    aperiodic_arrivals:
        Mapping task name -> list of absolute arrival cycles.  Tasks
        must exist in ``taskset.aperiodic``; arrivals given there are
        honoured too.
    """

    def __init__(
        self,
        taskset: TaskSet,
        n_cpus: int,
        tick: int,
        overhead: float = 0.02,
        aperiodic_arrivals: Optional[Dict[str, Sequence[int]]] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        if tick <= 0:
            raise ValueError("tick must be positive")
        if overhead < 0:
            raise ValueError("overhead must be non-negative")
        self.tick = tick
        self.overhead = overhead
        self.policy = MPDPScheduler(taskset, n_cpus, promotion_granularity="tick")
        self.scheduling_cycles = 0
        self._next_tick = 0  # scheduling cycles fall on multiples of ``tick``
        super().__init__(taskset, n_cpus, aperiodic_arrivals, trace)

    def _inflate(self, job: Job) -> None:
        """Apply the uniform overhead (once per job: at release or arrival)."""
        job.remaining = int(round(job.remaining * (1.0 + self.overhead)))

    # ------------------------------------------------------------ policy hooks
    def _step(self) -> bool:
        now, policy, trace = self.now, self.policy, self.trace
        dirty = False
        if now == self._next_tick:
            for job in policy.release_due(now):
                self._inflate(job)
                trace.record(now, "release", job=job.name)
            for job in policy.promote_due(now):
                trace.record(now, "promote", job=job.name)
            self.scheduling_cycles += 1
            trace.record(now, "tick")
            self._next_tick += self.tick
            dirty = True
        for job in self._arrive():
            self._inflate(job)
            policy.add_aperiodic(job)
            dirty = True
        for cpu, job in enumerate(list(policy.running)):
            if job is not None and job.remaining == 0:
                policy.job_finished(job, now)
                trace.record(now, "finish", job=job.name, cpu=cpu)
                dirty = True
        return dirty

    def _schedule(self) -> None:
        previous = list(self.policy.running)
        allocation = self.policy.allocate(self.now)
        self.context_switches += len(allocation.switches)
        for cpu in allocation.switches:
            job = allocation.assignment[cpu]
            old = previous[cpu]
            if old is not None and old.remaining > 0 and old is not job:
                self.trace.record(self.now, "preempt", job=old.name, cpu=cpu)
            if job is not None:
                self.trace.record(self.now, "dispatch", job=job.name, cpu=cpu)
            else:
                self.trace.record(self.now, "idle", cpu=cpu)

    def _wakeups(self) -> List[int]:
        return [self._next_tick]

    def _running(self) -> List[Optional[Job]]:
        return self.policy.running

    # ----------------------------------------------------------------- queries
    @property
    def finished_jobs(self) -> List[Job]:
        return self.policy.finished_jobs

    def stats(self) -> dict:
        return {
            "context_switches": self.context_switches,
            "scheduling_cycles": self.scheduling_cycles,
            "promotions": self.policy.promotion_count,
        }
