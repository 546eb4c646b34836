"""The Multiprocessor Dual Priority (MPDP) scheduling policy.

This module implements the decision procedure of Banús et al. with the
paper's implementation variations (Section 4.2):

- unpromoted periodic jobs and aperiodic jobs live in two separate
  global queues (Periodic Ready Queue sorted by lower-band priority,
  Aperiodic Ready Queue in FIFO order);
- completed periodic jobs are parked in a Waiting Periodic Queue until
  their next release;
- at promotion time U_i a periodic job moves to the High Priority Local
  Ready Queue of its *home* processor and from then on may only execute
  there (local phase);
- allocation: processors with a non-empty local queue take its head;
  remaining processors take aperiodic jobs oldest-first; remaining
  processors take unpromoted periodic jobs by lower-band priority;
- a job already running on a processor that is assigned the same job
  again is not context-switched.

Allocation is incremental (see :meth:`MPDPScheduler.allocate`): a
decision recomputes only what changed since the previous one.

The policy is substrate-free: callers (the theoretical simulator and
the full-system microkernel) own time and call in at scheduling points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.queues import (
    AperiodicReadyQueue,
    HighPriorityLocalQueue,
    PeriodicReadyQueue,
    WaitingPeriodicQueue,
)
from repro.core.task import AperiodicTask, Job, JobState, PeriodicTask, TaskSet


@dataclass
class Allocation:
    """Result of one scheduling decision.

    ``assignment[cpu]`` is the job that must run on ``cpu`` (None =
    idle).  ``switches`` lists the processors whose running job changed
    and therefore need an inter-processor interrupt and a context
    switch.  ``preempted`` lists jobs that lost their processor while
    still having work left.
    """

    assignment: List[Optional[Job]]
    switches: List[int] = field(default_factory=list)
    preempted: List[Job] = field(default_factory=list)

    def job_on(self, cpu: int) -> Optional[Job]:
        return self.assignment[cpu]


class MPDPScheduler:
    """State machine for MPDP scheduling decisions.

    Parameters
    ----------
    taskset:
        Analysed task set (every periodic task needs ``promotion`` and
        ``cpu`` assigned).
    n_cpus:
        Number of processors.
    promotion_granularity:
        ``"exact"`` promotes jobs at exactly release + U_i (the model in
        the MPDP paper); ``"tick"`` promotes only when a scheduling
        cycle observes the promotion time passed, reproducing the
        prototype where the system timer triggers promotions.
    """

    def __init__(self, taskset: TaskSet, n_cpus: int, promotion_granularity: str = "exact"):
        if n_cpus < 1:
            raise ValueError("n_cpus must be >= 1")
        if promotion_granularity not in ("exact", "tick"):
            raise ValueError("promotion_granularity must be 'exact' or 'tick'")
        taskset.require_analysed()
        for task in taskset.periodic:
            if not 0 <= task.cpu < n_cpus:
                raise ValueError(
                    f"{task.name}: home cpu {task.cpu} outside 0..{n_cpus - 1}"
                )
        self.taskset = taskset
        self.n_cpus = n_cpus
        self.promotion_granularity = promotion_granularity

        self.waiting = WaitingPeriodicQueue()
        self.periodic_ready = PeriodicReadyQueue()
        self.aperiodic_ready = AperiodicReadyQueue()
        self.local = [HighPriorityLocalQueue(cpu) for cpu in range(n_cpus)]
        self.running: List[Optional[Job]] = [None] * n_cpus

        # The assignment the last allocation settled on, or None once a
        # queue changed since (every queue mutation goes through a
        # method below that clears it).
        self._decided: Optional[List[Optional[Job]]] = None

        self.finished_jobs: List[Job] = []
        self.released_count = 0
        self.promotion_count = 0
        self._job_index: Dict[str, int] = {}

        for task in taskset.periodic:
            job = Job(task, task.offset, index=0)
            self._job_index[task.name] = 0
            self.waiting.push(job)

    # ------------------------------------------------------------------ events
    def release_due(self, now: int) -> List[Job]:
        """Move periodic jobs whose release time passed into the PRQ."""
        released = self.waiting.pop_released(now)
        if released:
            self._decided = None
            for job in released:
                self.periodic_ready.push(job)
            self.released_count += len(released)
        return released

    def add_aperiodic(self, job: Job) -> None:
        """Enqueue a newly arrived aperiodic job (interrupt handler)."""
        if job.is_periodic:
            raise TypeError("add_aperiodic requires an aperiodic job")
        job.state = JobState.READY
        self.aperiodic_ready.push(job)
        self._decided = None

    def promote_due(self, now: int) -> List[Job]:
        """Promote every unpromoted periodic job whose U_i has passed.

        Covers both queued jobs (PRQ) and jobs currently running in the
        lower band; the latter stay in ``running`` but flip to the upper
        band, which may force a migration at the next allocation.
        """
        # ``release + task.promotion`` inlined from Job.promotion_time:
        # require_analysed() guaranteed promotion is set, and this scan
        # runs every scheduling cycle.
        promoted = [
            job for job in self.periodic_ready
            if job.release + job.task.promotion <= now
        ]
        for job in promoted:
            self.periodic_ready.remove(job)
            job.promoted = True
            self.local[job.task.cpu].push(job)
        for job in self.running:
            if (
                job is not None
                and job.is_periodic
                and not job.promoted
                and job.release + job.task.promotion <= now
            ):
                job.promoted = True
                promoted.append(job)
        if promoted:
            self._decided = None
            self.promotion_count += len(promoted)
        return promoted

    def next_promotion_time(self) -> Optional[int]:
        """Earliest pending promotion instant among ready/running jobs."""
        times = [job.promotion_time for job in self.periodic_ready]
        times += [
            job.promotion_time
            for job in self.running
            if job is not None and job.is_periodic and not job.promoted
        ]
        return min(times) if times else None

    def next_release_time(self) -> Optional[int]:
        """Earliest parked periodic release."""
        return self.waiting.next_release()

    def job_finished(self, job: Job, now: int) -> Optional[Job]:
        """Handle a completed job; re-arm periodic tasks.

        Returns the next job instance for periodic tasks (already parked
        in the WPQ), or None for aperiodic jobs.  Its one change that an
        allocation sees is the freed processor, which :meth:`allocate`
        reads off ``running`` as a completion.
        """
        if job.remaining > 0:
            raise ValueError(f"{job.name} finished with {job.remaining} cycles left")
        for cpu, running in enumerate(self.running):
            if running is job:
                self.running[cpu] = None
        job.record_finish(now)
        self.finished_jobs.append(job)
        if not job.is_periodic:
            return None
        index = self._job_index[job.task.name] + 1
        self._job_index[job.task.name] = index
        next_job = Job(job.task, job.release + job.task.period, index=index)
        self.waiting.push(next_job)
        return next_job

    def shed(self, job: Job, now: int) -> Optional[Job]:
        """Complete a just-released periodic job at zero cost.

        The job leaves the PRQ, is marked ``shed`` and goes through
        :meth:`job_finished`, so its next instance still parks in the
        WPQ.  Returns that next instance.
        """
        self.periodic_ready.remove(job)
        self._decided = None
        job.remaining = 0
        job.shed = True
        return self.job_finished(job, now)

    # -------------------------------------------------------------- allocation
    def allocate(self, now: int) -> Allocation:
        """Compute the MPDP assignment of ready jobs to processors.

        The result is the one a from-scratch allocation would reach --
        fold every running job back into its queue, pop the assignment
        by rules 1-3, keep each job on its previous processor when
        possible, and diff against the previous assignment -- computed
        from what changed since the last call:

        - nothing (no queue mutation, ``running`` as last decided): the
          same assignment, no switches, no queue or job touched;
        - completions only (some processors went free): each free
          processor takes its queue head, in cpu order, the fixpoint
          documented in :meth:`refill`;
        - otherwise :meth:`_reallocate`, which merges the running jobs
          with the queue heads instead of folding them back.
        """
        running = self.running
        decided = self._decided
        if decided is not None:
            # Jobs compare by identity (Job defines no __eq__).
            if running == decided:
                return Allocation(assignment=list(running))
            if all(job is None or job is last for job, last in zip(running, decided)):
                switches: List[int] = []
                for cpu, job in enumerate(running):
                    if job is None and self._take(cpu, now) is not None:
                        switches.append(cpu)
                self._decided = list(running)
                return Allocation(assignment=list(running), switches=switches)
        return self._reallocate(now)

    def _reallocate(self, now: int) -> Allocation:
        """Rules 1-3 over the running jobs merged with the queue heads.

        A from-scratch allocation folds the running jobs into their
        queues first.  Here each running job instead competes with the
        head of the queue it would have joined, and only the jobs that
        lose their processor are pushed back.  The fold-back requeued
        running aperiodic jobs at the ARQ head in cpu order, so they
        lead the middle band in *reverse* cpu order; that order decides
        which of them keep running when the slots shrink.
        """
        n_cpus = self.n_cpus
        previous = self.running
        assignment: List[Optional[Job]] = [None] * n_cpus
        aperiodic: List[int] = []  # cpus running a middle-band job
        lower: List[int] = []      # cpus running an unpromoted periodic job
        upper: List[int] = []      # cpus running a promoted job
        for cpu, job in enumerate(previous):
            if job is None:
                continue
            if not job.is_periodic:
                aperiodic.append(cpu)
            elif job.promoted:
                upper.append(cpu)
            else:
                lower.append(cpu)

        # Rule 1: local queues bind their processor.  A running promoted
        # job competes with its home queue's head (a job promoted while
        # running in the lower band may sit on a foreign cpu).
        for cpu in upper:
            job = previous[cpu]
            home = job.task.cpu
            queue = self.local[home]
            rival = assignment[home]
            if rival is not None and queue.rank(rival) < queue.rank(job):
                queue.push(job)
            elif queue.outranks_head(job):
                if rival is not None:
                    queue.push(rival)
                assignment[home] = job
            else:
                queue.push(job)
        for cpu in range(n_cpus):
            if assignment[cpu] is None and len(self.local[cpu]):
                assignment[cpu] = self.local[cpu].pop()
        slots = assignment.count(None)

        # Rules 2 and 3 choose ``slots`` global jobs as (job, previous
        # cpu or None), in the order a from-scratch pass would see them.
        chosen: List[Tuple[Job, Optional[int]]] = []
        arq = self.aperiodic_ready
        kept = min(slots, len(aperiodic))
        for cpu in aperiodic[:len(aperiodic) - kept]:
            arq.requeue_front(previous[cpu])
        for cpu in reversed(aperiodic[len(aperiodic) - kept:]):
            chosen.append((previous[cpu], cpu))
        slots -= kept
        while slots and len(arq):
            chosen.append((arq.pop(), None))
            slots -= 1
        prq = self.periodic_ready
        if len(lower) > 1:
            lower.sort(key=lambda cpu: prq.rank(previous[cpu]))
        for cpu in lower:
            job = previous[cpu]
            while slots and not prq.outranks_head(job):
                chosen.append((prq.pop(), None))
                slots -= 1
            if slots:
                chosen.append((job, cpu))
                slots -= 1
            else:
                prq.push(job)
        while slots and len(prq):
            chosen.append((prq.pop(), None))
            slots -= 1

        # Place the chosen jobs, honouring affinity with the previous
        # assignment to minimise context switches/migrations.
        remaining: List[Job] = []
        for job, cpu in chosen:
            if cpu is not None and assignment[cpu] is None:
                assignment[cpu] = job
            else:
                remaining.append(job)
        if remaining:
            free = iter([cpu for cpu in range(n_cpus) if assignment[cpu] is None])
            for job in remaining:
                assignment[next(free)] = job

        # Diff with the previous assignment.
        switches: List[int] = []
        preempted: List[Job] = []
        for cpu in range(n_cpus):
            if assignment[cpu] is not previous[cpu]:
                switches.append(cpu)
        for job in previous:
            if job is not None and job not in assignment and job.remaining > 0:
                job.record_preemption()
                preempted.append(job)

        self.running = list(assignment)
        self._decided = list(assignment)
        for cpu, job in enumerate(assignment):
            if job is not None:
                job.record_dispatch(cpu, now)
        return Allocation(assignment=assignment, switches=switches, preempted=preempted)

    def refill(self, cpu: int, now: int) -> Optional[Job]:
        """Incremental allocation after ``cpu`` alone went free.

        Equivalent to :meth:`allocate` when the only state change since
        the last allocation is that ``running[cpu]`` became ``None``
        (a completion): every other processor keeps its job through the
        affinity rule, and the freed slot takes the highest-standing
        queued job -- the local queue binds its processor (rule 1),
        otherwise the middle band goes before the lower band (rules
        2/3).  The queued candidates are strictly below every running
        job in the MPDP order (otherwise the previous allocation would
        already have chosen them), so handing the single head over is
        the same fixpoint ``allocate`` would recompute from scratch.

        Returns the dispatched job, or ``None`` when the processor goes
        idle.  Callers must have detached the finished job first (see
        :meth:`job_finished`).
        """
        if self.running[cpu] is not None:
            raise ValueError(f"cpu {cpu} is not free")
        self._decided = None
        return self._take(cpu, now)

    def _take(self, cpu: int, now: int) -> Optional[Job]:
        """Dispatch the highest-standing queued job onto free ``cpu``."""
        if len(self.local[cpu]):
            job = self.local[cpu].pop()
        elif len(self.aperiodic_ready):
            job = self.aperiodic_ready.pop()
        elif len(self.periodic_ready):
            job = self.periodic_ready.pop()
        else:
            return None
        self.running[cpu] = job
        job.record_dispatch(cpu, now)
        return job

    # ---------------------------------------------------------------- queries
    def ready_job_count(self) -> int:
        """Jobs currently ready (running included)."""
        return (
            len(self.periodic_ready)
            + len(self.aperiodic_ready)
            + sum(len(q) for q in self.local)
            + sum(1 for job in self.running if job is not None)
        )

    def idle(self) -> bool:
        """True when nothing is ready or running."""
        return self.ready_job_count() == 0

    def check_invariants(self) -> None:
        """Assert structural invariants (used by property tests).

        - no job appears in two places at once;
        - promoted jobs only run on (or queue for) their home cpu;
        - a processor with a non-empty local queue never runs a
          lower/middle band job.
        """
        seen: Dict[int, str] = {}

        def note(job: Job, where: str) -> None:
            if job.uid in seen:
                raise AssertionError(
                    f"{job.name} present in both {seen[job.uid]} and {where}"
                )
            seen[job.uid] = where

        for job in self.waiting:
            note(job, "WPQ")
        for job in self.periodic_ready:
            note(job, "PRQ")
            if job.promoted:
                raise AssertionError(f"promoted job {job.name} in PRQ")
        for job in self.aperiodic_ready:
            note(job, "ARQ")
        for cpu, queue in enumerate(self.local):
            for job in queue:
                note(job, f"HPLRQ{cpu}")
                if job.task.cpu != cpu:
                    raise AssertionError(f"{job.name} in wrong local queue {cpu}")
        for cpu, job in enumerate(self.running):
            if job is None:
                continue
            note(job, f"cpu{cpu}")
            if job.is_periodic and job.promoted and job.task.cpu != cpu:
                raise AssertionError(
                    f"promoted {job.name} running on cpu {cpu}, home {job.task.cpu}"
                )
            if len(self.local[cpu]) and (
                not job.is_periodic or not job.promoted
            ):
                head = self.local[cpu].peek()
                raise AssertionError(
                    f"cpu {cpu} runs {job.name} while {head.name} is promoted locally"
                )
