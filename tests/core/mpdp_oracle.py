"""Lockstep oracle for the incremental ``MPDPScheduler.allocate``.

:func:`scratch_allocate` is the from-scratch allocation the incremental
one replaced, kept verbatim (its ``_previous_cpu`` helper moved out of
the class with it): every running job is folded back into its queue
and the whole assignment is popped again.  :class:`Lockstep`
patches ``MPDPScheduler.allocate`` so that each call first runs the
oracle on the live scheduler, captures what it produced, rewinds the
queues and job records, then runs the real method and requires the
same ``Allocation``, queue contents and job records.  The run goes on
with the real method's state.
"""

from typing import List, Optional, Sequence

from repro.core.mpdp import Allocation, MPDPScheduler
from repro.core.task import Job


def scratch_allocate(self, now: int) -> Allocation:
    """Compute the MPDP assignment of ready jobs to processors.

    Running jobs are folded back into the candidate pool, the
    assignment is recomputed from scratch following the MPDP rules,
    and the diff against the previous assignment yields the set of
    context switches.  Jobs keep their processor when possible to
    avoid gratuitous migrations.
    """
    previous = list(self.running)

    # Fold running jobs back into their logical queues.
    for cpu, job in enumerate(self.running):
        if job is None:
            continue
        if job.is_periodic and job.promoted:
            self.local[job.task.cpu].push(job)
        elif job.is_periodic:
            self.periodic_ready.push(job)
        else:
            self.aperiodic_ready.requeue_front(job)
        self.running[cpu] = None

    assignment: List[Optional[Job]] = [None] * self.n_cpus

    # Rule 1: local queues bind their processor.
    for cpu in range(self.n_cpus):
        if len(self.local[cpu]):
            assignment[cpu] = self.local[cpu].pop()

    slots = sum(1 for cpu in range(self.n_cpus) if assignment[cpu] is None)

    # Rule 2: aperiodic jobs, oldest first, onto free processors.
    chosen: List[Job] = []
    for job in self.aperiodic_ready:
        if slots == 0:
            break
        chosen.append(job)
        slots -= 1

    # Rule 3: unpromoted periodic jobs by lower-band priority.
    for job in self.periodic_ready:
        if slots == 0:
            break
        chosen.append(job)
        slots -= 1

    # Place chosen global jobs, honouring affinity with the previous
    # assignment to minimise context switches/migrations.
    free = [cpu for cpu in range(self.n_cpus) if assignment[cpu] is None]
    remaining: List[Job] = []
    for job in chosen:
        prev_cpu = _previous_cpu(job, previous)
        if prev_cpu is not None and prev_cpu in free:
            assignment[prev_cpu] = job
            free.remove(prev_cpu)
        else:
            remaining.append(job)
    for job in remaining:
        assignment[free.pop(0)] = job

    # Remove placed jobs from the global queues.
    for cpu, job in enumerate(assignment):
        if job is None:
            continue
        if job.is_periodic and not job.promoted and job in self.periodic_ready:
            self.periodic_ready.remove(job)
        elif not job.is_periodic and job in self.aperiodic_ready:
            self.aperiodic_ready.remove(job)

    # Diff with the previous assignment.
    switches: List[int] = []
    preempted: List[Job] = []
    for cpu in range(self.n_cpus):
        if assignment[cpu] is not previous[cpu]:
            switches.append(cpu)
    placed = set(id(j) for j in assignment if j is not None)
    for job in previous:
        if job is not None and id(job) not in placed and job.remaining > 0:
            job.record_preemption()
            preempted.append(job)

    self.running = list(assignment)
    for cpu, job in enumerate(assignment):
        if job is not None:
            job.record_dispatch(cpu, now)
    return Allocation(assignment=assignment, switches=switches, preempted=preempted)


def _previous_cpu(job: Job, previous: Sequence[Optional[Job]]) -> Optional[int]:
    for cpu, prev in enumerate(previous):
        if prev is job:
            return cpu
    return None


_RECORD = ("state", "cpu", "start_time", "preemptions", "migrations", "_last_cpu",
           "promoted", "remaining")


def _queues(sched: MPDPScheduler):
    """The allocation-visible queues, in a fixed order."""
    return [sched.periodic_ready, sched.aperiodic_ready, *sched.local]


def _capture(sched: MPDPScheduler, jobs: Sequence[Job]):
    """Queue contents and running list (by identity) plus job records."""
    return (
        [[id(job) for job in queue] for queue in _queues(sched)],
        [id(job) if job is not None else None for job in sched.running],
        [tuple(getattr(job, name) for name in _RECORD) for job in jobs],
    )


def _ids(allocation: Allocation):
    return (
        [id(job) if job is not None else None for job in allocation.assignment],
        list(allocation.switches),
        [id(job) for job in allocation.preempted],
    )


def checked_allocate(sched: MPDPScheduler, now: int,
                     real=MPDPScheduler.allocate) -> Allocation:
    """``real(sched, now)``, after requiring that the oracle, run on the
    same state, yields the same allocation, queues and job records."""
    jobs = [job for queue in _queues(sched) for job in queue]
    jobs += [job for job in sched.running if job is not None]
    saved_queues = [(queue, _contents(queue)) for queue in _queues(sched)]
    saved_running = list(sched.running)
    saved_jobs = [(job, tuple(getattr(job, name) for name in _RECORD)) for job in jobs]

    expected = scratch_allocate(sched, now)
    want = (_ids(expected), _capture(sched, jobs))

    for queue, contents in saved_queues:
        _restore(queue, contents)
    sched.running = saved_running
    for job, record in saved_jobs:
        for name, value in zip(_RECORD, record):
            setattr(job, name, value)

    actual = real(sched, now)
    got = (_ids(actual), _capture(sched, jobs))
    assert got == want, f"allocate({now}) diverged from the oracle"
    return actual


class Lockstep:
    """Patch ``MPDPScheduler.allocate`` with :func:`checked_allocate`.

    ``calls`` counts the compared allocations and ``changed`` those
    that switched at least one processor; ``monkeypatch`` restores the
    method.
    """

    def __init__(self, monkeypatch):
        self.calls = 0
        self.changed = 0
        real = MPDPScheduler.allocate

        def allocate(sched: MPDPScheduler, now: int) -> Allocation:
            actual = checked_allocate(sched, now, real)
            self.calls += 1
            self.changed += bool(actual.switches)
            return actual

        monkeypatch.setattr(MPDPScheduler, "allocate", allocate)


def _contents(queue):
    if hasattr(queue, "_keys"):
        return list(queue._jobs), list(queue._keys)
    return list(queue._jobs), None


def _restore(queue, contents):
    jobs, keys = contents
    queue._jobs.clear()
    queue._jobs.extend(jobs)
    if keys is not None:
        queue._keys[:] = keys
