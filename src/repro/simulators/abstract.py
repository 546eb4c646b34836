"""The stepping loop shared by the theoretical and baseline simulators.

Both idealised simulators process what is due at ``now`` (releases,
aperiodic arrivals, completions), reschedule when something changed,
then jump to the earliest wakeup, arrival or completion, charging the
elapsed cycles to every running job.  :class:`AbstractSimulator` owns
that loop and the arrival stream; a subclass supplies the abstraction
level through four hooks (``_step``, ``_schedule``, ``_wakeups``,
``_running``).  :func:`merge_arrivals` combines a task set's own
aperiodic arrivals with extra ones for every rung.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.task import AperiodicTask, Job, TaskSet
from repro.trace.recorder import TraceRecorder


def merge_arrivals(
    taskset: TaskSet, extra: Optional[Dict[str, Sequence[int]]] = None
) -> Dict[str, List[int]]:
    """Task name -> each aperiodic task's own ``arrivals`` followed by
    the ``extra`` ones.  ``TypeError`` when an extra name is not an
    aperiodic task (``KeyError`` when it names no task)."""
    merged: Dict[str, List[int]] = {
        task.name: list(task.arrivals) for task in taskset.aperiodic
    }
    for name, times in (extra or {}).items():
        if not isinstance(taskset.by_name(name), AperiodicTask):
            raise TypeError(f"{name} is not an aperiodic task")
        merged.setdefault(name, []).extend(times)
    return merged


class AbstractSimulator:
    """Event-stepping simulator over an idealised N-processor platform."""

    def __init__(
        self,
        taskset: TaskSet,
        n_cpus: int,
        aperiodic_arrivals: Optional[Dict[str, Sequence[int]]] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        self.taskset = taskset
        self.n_cpus = n_cpus
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.now = 0
        self.context_switches = 0
        arrivals = [
            (time, taskset.by_name(name))
            for name, times in merge_arrivals(taskset, aperiodic_arrivals).items()
            for time in times
        ]
        arrivals.sort(key=lambda item: item[0])
        self._arrivals: Deque[Tuple[int, AperiodicTask]] = deque(arrivals)
        self._aper_index: Dict[str, int] = {}

    # ------------------------------------------------------------ policy hooks
    def _step(self) -> bool:
        """Process what is due at ``now``; True when rescheduling is due."""
        raise NotImplementedError

    def _schedule(self) -> None:
        """Recompute the processor assignment."""
        raise NotImplementedError

    def _wakeups(self) -> List[int]:
        """Own future instants (the next tick, or pending releases)."""
        raise NotImplementedError

    def _running(self) -> List[Optional[Job]]:
        """The running job per processor (None when idle)."""
        raise NotImplementedError

    @property
    def finished_jobs(self) -> List[Job]:
        """Finished jobs in completion order."""
        raise NotImplementedError

    # ---------------------------------------------------------------- arrivals
    def _arrive(self) -> List[Job]:
        """Create (and trace) a job for every arrival due at ``now``."""
        jobs = []
        arrivals = self._arrivals
        while arrivals and arrivals[0][0] <= self.now:
            task = arrivals.popleft()[1]
            index = self._aper_index.get(task.name, 0)
            self._aper_index[task.name] = index + 1
            job = Job(task, release=self.now, index=index)
            self.trace.record(self.now, "release", job=job.name, info="aperiodic")
            jobs.append(job)
        return jobs

    # --------------------------------------------------------------------- run
    def run(self, until: int) -> List[Job]:
        """Simulate up to ``until``; returns the finished jobs.

        Resumable: ``run(a); run(b)`` equals ``run(b)``.
        """
        while self.now < until:
            if self._step():
                self._schedule()

            running = [job for job in self._running() if job is not None]
            candidates = self._wakeups()
            if self._arrivals:
                candidates.append(self._arrivals[0][0])
            candidates.extend(self.now + job.remaining for job in running)
            if not candidates:
                break
            next_time = min(min(candidates), until)
            if next_time <= self.now:
                break
            delta = next_time - self.now
            for job in running:
                if job.remaining < delta:  # pragma: no cover - defensive
                    raise RuntimeError("missed a completion event")
                job.remaining -= delta
            self.now = next_time
        return self.finished_jobs
