"""End-to-end simulators -- the multi-fidelity simulation ladder.

Three rungs run the same MPDP workload at different cost/accuracy
points (:data:`FIDELITIES`, fastest first):

- :mod:`repro.simulators.theoretical` -- the paper's comparison
  baseline: MPDP with idealised hardware and a small uniform overhead
  (2 %) for context switching and contention;
- :mod:`repro.simulators.tlm` -- transaction-level middle rung:
  task segments as timed blocks with calibrated analytic bus
  contention, events still at exact instants (25x+ faster than the
  prototype at bounded accuracy loss);
- :mod:`repro.simulators.prototype` -- the full-system run: the
  microkernel of :mod:`repro.kernel` on the SoC of :mod:`repro.hw`;
- :mod:`repro.simulators.baselines` -- classical alternatives
  (partitioned fixed-priority with background aperiodics, global
  fixed-priority, global EDF) for the ablation benchmarks.

The theoretical rung and the baselines (policies on
:class:`MultiprocessorSimulator`) share one stepping loop in
:mod:`repro.simulators.abstract`, whose ``merge_arrivals`` every rung
uses.

:func:`make_simulator` dispatches a :class:`PrototypeConfig` on its
``fidelity`` field so sweeps pick a rung per query.
"""

from typing import Any, Dict, Optional, Sequence

from repro.core.task import TaskSet
from repro.simulators.batch import ReplicationSummary, compare, replicate
from repro.simulators.theoretical import TheoreticalSimulator
from repro.simulators.validation import TaskComparison, ValidationResult, validate
from repro.simulators.prototype import (
    FIDELITIES,
    PrototypeConfig,
    PrototypeSimulator,
)
from repro.simulators.tlm import (
    ANCHOR_CELLS,
    DEFAULT_COST_TABLE,
    TLMCostTable,
    TLMSimulator,
    calibrate,
)
from repro.simulators.baselines import (
    BaselinePolicy,
    GlobalEDFPolicy,
    GlobalFixedPriorityPolicy,
    MultiprocessorSimulator,
    PartitionedFixedPriorityPolicy,
)

__all__ = [
    "FIDELITIES",
    "make_simulator",
    "TheoreticalSimulator",
    "TLMSimulator",
    "TLMCostTable",
    "DEFAULT_COST_TABLE",
    "ANCHOR_CELLS",
    "calibrate",
    "PrototypeSimulator",
    "PrototypeConfig",
    "MultiprocessorSimulator",
    "BaselinePolicy",
    "PartitionedFixedPriorityPolicy",
    "GlobalFixedPriorityPolicy",
    "GlobalEDFPolicy",
    "replicate",
    "compare",
    "ReplicationSummary",
    "validate",
    "ValidationResult",
    "TaskComparison",
]


def make_simulator(
    taskset: TaskSet,
    config: PrototypeConfig,
    bindings: Optional[Dict[str, Any]] = None,
    aperiodic_arrivals: Optional[Dict[str, Sequence[int]]] = None,
    trace=None,
    metrics=None,
    overhead: float = 0.02,
    table: TLMCostTable = DEFAULT_COST_TABLE,
):
    """Instantiate the simulator for ``config.fidelity``.

    One construction point for the whole ladder: ``theoretical`` and
    ``tlm`` ignore ``config.scale`` (they run full-size workloads --
    there is no per-cycle work to amortise) and the theoretical rung
    additionally ignores ``bindings``/``metrics`` (idealised hardware
    has no contention profile to bind).  ``overhead`` is the
    theoretical rung's uniform inflation; ``table`` the TLM rung's
    calibrated contention parameters.

    Note the returned simulators differ in time base: the prototype
    runs the workload scaled by ``config.scale`` (use its
    ``to_full_scale``), the other rungs always at full scale.
    """
    if config.fidelity == "theoretical":
        return TheoreticalSimulator(
            taskset,
            config.n_cpus,
            tick=config.tick,
            overhead=overhead,
            aperiodic_arrivals=aperiodic_arrivals,
            trace=trace,
        )
    if config.fidelity == "tlm":
        return TLMSimulator(
            taskset,
            config.n_cpus,
            tick=config.tick,
            bindings=bindings,
            aperiodic_arrivals=aperiodic_arrivals,
            trace=trace,
            metrics=metrics,
            costs=config.costs,
            table=table,
        )
    if config.fidelity == "prototype":
        return PrototypeSimulator(
            taskset,
            config,
            bindings=bindings,
            aperiodic_arrivals=aperiodic_arrivals,
            trace=trace,
            metrics=metrics,
        )
    raise ValueError(f"unknown fidelity {config.fidelity!r}")  # pragma: no cover
