"""Baseline multiprocessor schedulers for comparison with MPDP.

The related-work section of the paper frames MPDP against two families:

- *partitioned fixed priority* with aperiodic tasks served in the
  background of the processor they land on (the common commercial-RTOS
  approach);
- *global* schedulers (fixed priority, EDF) that allocate all tasks on
  all processors but "do not deal with aperiodic tasks" -- here
  aperiodics also run in the background.

They are policies for one event-exact simulator
(:class:`MultiprocessorSimulator`, on the stepping loop of
:mod:`repro.simulators.abstract` it shares with the theoretical MPDP
simulator) so the ablation benchmarks can put aperiodic response times
side by side under identical workloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.task import Job, TaskSet
from repro.simulators.abstract import AbstractSimulator
from repro.trace.recorder import TraceRecorder


class BaselinePolicy:
    """Priority/affinity rules for :class:`MultiprocessorSimulator`.

    ``job_key`` orders ready jobs (larger runs first); ``eligible_cpu``
    returns the only processor a job may use, or None for any.
    """

    name = "abstract"

    def job_key(self, job: Job, now: int) -> Tuple:
        raise NotImplementedError

    def eligible_cpu(self, job: Job) -> Optional[int]:
        raise NotImplementedError


class GlobalFixedPriorityPolicy(BaselinePolicy):
    """Periodic tasks run anywhere at fixed priority; aperiodic jobs
    execute in the background (below every periodic) on any processor,
    FIFO among themselves."""

    name = "global-fp"

    def job_key(self, job: Job, now: int) -> Tuple:
        if job.is_periodic:
            return (1, job.task.high_priority, -job.uid)
        return (0, -job.release, -job.uid)

    def eligible_cpu(self, job: Job) -> Optional[int]:
        return None


class PartitionedFixedPriorityPolicy(GlobalFixedPriorityPolicy):
    """Global FP with periodic tasks pinned to their partition;
    background aperiodics on any processor."""

    name = "partitioned-fp"

    def eligible_cpu(self, job: Job) -> Optional[int]:
        return job.task.cpu if job.is_periodic else None


class GlobalEDFPolicy(BaselinePolicy):
    """Earliest absolute deadline first across all processors;
    background aperiodics."""

    name = "global-edf"

    def job_key(self, job: Job, now: int) -> Tuple:
        if job.is_periodic:
            return (1, -(job.release + job.task.deadline), -job.uid)
        return (0, -job.release, -job.uid)

    def eligible_cpu(self, job: Job) -> Optional[int]:
        return None


class MultiprocessorSimulator(AbstractSimulator):
    """Event-exact preemptive N-processor simulator.

    Scheduling points: every release, arrival and completion (no tick
    quantisation -- baselines are given their best case).  An optional
    ``switch_penalty`` charges cycles whenever a job is (re)dispatched
    after not running, approximating context-switch costs.
    """

    def __init__(
        self,
        taskset: TaskSet,
        n_cpus: int,
        policy: BaselinePolicy,
        aperiodic_arrivals: Optional[Dict[str, Sequence[int]]] = None,
        switch_penalty: int = 0,
        trace: Optional[TraceRecorder] = None,
    ):
        if n_cpus < 1:
            raise ValueError("n_cpus must be >= 1")
        if switch_penalty < 0:
            raise ValueError("switch_penalty must be non-negative")
        self.policy = policy
        self.switch_penalty = switch_penalty
        self.running: List[Optional[Job]] = [None] * n_cpus
        self.ready: List[Job] = []
        self.finished: List[Job] = []
        self._pending_releases: List[Job] = [
            Job(task, task.offset, index=0) for task in taskset.periodic
        ]
        super().__init__(taskset, n_cpus, aperiodic_arrivals, trace)

    # ------------------------------------------------------------ policy hooks
    def _step(self) -> bool:
        now, trace = self.now, self.trace
        dirty = False
        still: List[Job] = []
        for job in self._pending_releases:
            if job.release <= now:
                self.ready.append(job)
                trace.record(now, "release", job=job.name)
                dirty = True
            else:
                still.append(job)
        self._pending_releases = still
        for job in self._arrive():
            self.ready.append(job)
            dirty = True
        for cpu, job in enumerate(self.running):
            if job is not None and job.remaining == 0:
                self.running[cpu] = None
                job.record_finish(now)
                self.finished.append(job)
                trace.record(now, "finish", job=job.name, cpu=cpu)
                if job.is_periodic:
                    self._pending_releases.append(
                        Job(job.task, job.release + job.task.period, index=job.index + 1)
                    )
                dirty = True
        return dirty

    def _schedule(self) -> None:
        """Recompute the assignment greedily by policy key."""
        previous = list(self.running)
        pool = self.ready + [job for job in previous if job is not None]
        pool.sort(key=lambda job: self.policy.job_key(job, self.now), reverse=True)

        assignment: List[Optional[Job]] = [None] * self.n_cpus
        free = set(range(self.n_cpus))
        deferred: List[Tuple[Job, Optional[int]]] = []
        for job in pool:
            if not free:
                break
            pinned = self.policy.eligible_cpu(job)
            if pinned is not None:
                if pinned in free:
                    assignment[pinned] = job
                    free.remove(pinned)
                continue
            deferred.append((job, previous.index(job) if job in previous else None))

        # Global jobs: prefer their previous cpu, then any free one.
        rest: List[Job] = []
        for job, prev_cpu in deferred:
            if prev_cpu is not None and prev_cpu in free:
                assignment[prev_cpu] = job
                free.remove(prev_cpu)
            else:
                rest.append(job)
        for job in rest:
            if not free:
                break
            assignment[free.pop()] = job

        # Apply the diff.
        for cpu, job in enumerate(previous):
            if job is not None and job not in assignment and job.remaining > 0:
                job.record_preemption()
                self.trace.record(self.now, "preempt", job=job.name, cpu=cpu)
                self.ready.append(job)  # running jobs are never in ``ready``
        for cpu, job in enumerate(assignment):
            if job is None:
                continue
            if job in self.ready:
                self.ready.remove(job)
            if previous[cpu] is not job:
                self.context_switches += 1
                if self.switch_penalty and job.remaining > 0:
                    job.remaining += self.switch_penalty
                job.record_dispatch(cpu, self.now)
                self.trace.record(self.now, "dispatch", job=job.name, cpu=cpu)
        self.running = assignment

    def _wakeups(self) -> List[int]:
        return [job.release for job in self._pending_releases if job.release > self.now]

    def _running(self) -> List[Optional[Job]]:
        return self.running

    # ----------------------------------------------------------------- queries
    @property
    def finished_jobs(self) -> List[Job]:
        return self.finished

    def deadline_misses(self) -> List[Job]:
        return [job for job in self.finished if job.missed_deadline]
