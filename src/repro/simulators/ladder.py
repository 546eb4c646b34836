"""The fidelity ladder: one construction point and one full-scale read-out.

:func:`make_simulator` builds any rung of :data:`FIDELITIES` and
:class:`Readout` reads its run back at full scale (:func:`run_rung`
does both around one run), so an experiment names its rung once and
never converts the prototype's time base itself.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Optional, Sequence

from repro import TICK
from repro.core.task import TaskSet
from repro.kernel.costs import KernelCosts
from repro.kernel.microkernel import TaskBinding
from repro.simulators.prototype import PrototypeConfig, PrototypeSimulator
from repro.simulators.theoretical import TheoreticalSimulator
from repro.simulators.tlm import (
    DEFAULT_COST_TABLE,
    TLMCostTable,
    TLMSimulator,
    per_task_wcrt,
)
from repro.trace.metrics import ScheduleMetrics, compute_metrics
from repro.trace.recorder import TraceRecorder

#: The simulation ladder, slowest/most faithful last.  ``theoretical``
#: is the paper's idealised baseline (flat 2 % overhead), ``tlm`` the
#: calibrated transaction-level rung (:mod:`repro.simulators.tlm`) and
#: ``prototype`` the cycle-approximate kernel-on-SoC run.
FIDELITIES = ("theoretical", "tlm", "prototype")


def make_simulator(
    fidelity: str,
    taskset: TaskSet,
    n_cpus: int,
    tick: int = TICK,
    scale: int = 1,
    overhead: float = 0.02,
    costs: Optional[KernelCosts] = None,
    table: TLMCostTable = DEFAULT_COST_TABLE,
    bindings: Optional[Dict[str, TaskBinding]] = None,
    aperiodic_arrivals: Optional[Dict[str, Sequence[int]]] = None,
    trace: Optional[TraceRecorder] = None,
    metrics=None,
):
    """Build the ``fidelity`` rung on ``taskset``.

    Each rung takes the options it models and ignores the rest:
    ``overhead`` is the theoretical rung's uniform inflation, ``table``
    the TLM rung's calibrated contention parameters and ``scale`` the
    prototype's workload divisor; ``costs``, ``bindings`` and
    ``metrics`` reach the tlm and prototype rungs.  Every argument is
    at full scale; read the run through :class:`Readout`.
    """
    if fidelity == "theoretical":
        return TheoreticalSimulator(
            taskset, n_cpus, tick=tick, overhead=overhead,
            aperiodic_arrivals=aperiodic_arrivals, trace=trace,
        )
    if fidelity == "tlm":
        return TLMSimulator(
            taskset, n_cpus, tick=tick, bindings=bindings,
            aperiodic_arrivals=aperiodic_arrivals, trace=trace,
            metrics=metrics, costs=costs, table=table,
        )
    if fidelity == "prototype":
        return PrototypeSimulator(
            taskset,
            PrototypeConfig(n_cpus=n_cpus, tick=tick, scale=scale,
                            costs=costs or KernelCosts()),
            bindings=bindings, aperiodic_arrivals=aperiodic_arrivals,
            trace=trace, metrics=metrics,
        )
    raise ValueError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")


class Readout:
    """One run of any rung, read back at full scale.

    The prototype simulates its workload divided by ``scale``; the other
    rungs run at full scale.  This is the one place that maps a
    full-scale horizon onto a rung's clock and the rung's measurements
    back.  Build it with the simulator; read :attr:`metrics` once the
    run is over.
    """

    def __init__(self, sim, horizon: int, trace: Optional[TraceRecorder] = None):
        self.sim = sim
        self.scale = sim.scale if isinstance(sim, PrototypeSimulator) else 1
        #: The horizon on the rung's clock.
        self.horizon = horizon // self.scale
        self._trace = trace

    @cached_property
    def metrics(self) -> ScheduleMetrics:
        """Schedule metrics of the finished run, on the rung's clock."""
        return compute_metrics(self.sim.finished_jobs, self.horizon, trace=self._trace)

    def full_scale(self, cycles):
        """A measurement on the rung's clock in full-scale cycles."""
        return cycles * self.scale

    def mean_response(self, task: str):
        """``task``'s mean response in full-scale cycles.  The prototype
        reports it in whole cycles of its own clock."""
        mean = self.metrics.response_of(task).mean
        if isinstance(self.sim, PrototypeSimulator):
            return self.full_scale(int(mean))
        return mean

    def wcrt(self) -> Dict[str, int]:
        """Worst observed response per task in full-scale cycles."""
        return {name: self.full_scale(value)
                for name, value in per_task_wcrt(self.sim.finished_jobs).items()}


def run_rung(
    fidelity: str, taskset: TaskSet, n_cpus: int, horizon: int, **options
) -> Readout:
    """Build the ``fidelity`` rung (``options`` as for
    :func:`make_simulator`), run it to the full-scale ``horizon`` and
    read it out."""
    sim = make_simulator(fidelity, taskset, n_cpus, **options)
    sim.run(horizon)
    return Readout(sim, horizon)
