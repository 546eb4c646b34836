"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the
set-up that ``setup_s`` times) and then runs fixed *passes* of work.
A pass returns one :class:`Run` per run the workload defines, plus the
modelled outputs it produced in :attr:`Workload.model`.  Every output
check raises one of the two exception classes below inside the run, so
a failed check counts as a failed run under its own name instead of
stopping the benchmark.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import CLOCK_HZ, TICK, cycles_to_seconds
from repro.experiments import figure4
from repro.experiments.figure4 import ARRIVAL_PHASES_S, Figure4Cell, figure4_sweep
from repro.faults.plan import FAULT_KINDS, random_plan
from repro.faults.scenarios import campaign_cell, demo_taskset
from repro.perf.cache import RunCache
from repro.simulators.baselines import (
    GlobalEDFPolicy,
    GlobalFixedPriorityPolicy,
    MultiprocessorSimulator,
    PartitionedFixedPriorityPolicy,
)
from repro.simulators.prototype import PrototypeConfig, PrototypeSimulator
from repro.simulators.theoretical import TheoreticalSimulator
from repro.simulators.tlm import ANCHOR_CELLS
from repro.trace.metrics import compute_metrics
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)

#: The Figure-4 grid: (processors, periodic utilization).
CELLS: Tuple[Tuple[int, float], ...] = tuple(
    (n, u) for n in (2, 3, 4) for u in (0.40, 0.50, 0.60)
)
#: Prototype workload scale, as in ``figure4.run_cell``.
SCALE = 1_000
#: Simulated time after the aperiodic arrival, as in ``figure4.run_cell``.
HORIZON_MARGIN_S = 25.0
#: Pinned theoretical responses (cycles) per cell and arrival phase.
THEORETICAL_REF = Path(__file__).with_name("theoretical_ref.json")

#: Fault campaign: horizon, faults per plan and plans per pass.
CAMPAIGN_HORIZON = 2_000_000
CAMPAIGN_FAULTS = 12
CAMPAIGN_SEEDS = 50


class AperiodicUnfinished(Exception):
    """The aperiodic job did not finish within the run's horizon."""


class CheckMismatch(Exception):
    """Two computations of the same modelled value disagree."""


@dataclass
class Run:
    """One timed run: its host time, modelled cycles and failure (if any).

    ``host_s`` is the run itself; ``total_s`` adds the work the run
    carries along (a cell's warm-cache read and baselines), which only
    ``sim_cycles_per_s`` sees.
    """

    label: str
    host_s: float
    total_s: float
    cycles: int
    error: Optional[str] = None


def cell_name(n_cpus: int, utilization: float) -> str:
    return f"{n_cpus}P-{round(utilization * 100)}"


def horizon_of(phase: int) -> Tuple[int, int]:
    """(arrival, horizon) in full-scale cycles for an arrival phase index."""
    arrival = int(ARRIVAL_PHASES_S[phase] * CLOCK_HZ)
    return arrival, arrival + int(HORIZON_MARGIN_S * CLOCK_HZ)


def aperiodic_response(jobs, horizon: int, name: str = AUTOMOTIVE_APERIODIC) -> float:
    """Mean response of ``name`` as ``run_cell`` computes it, or raise."""
    if not any(job.task.name == name for job in jobs):
        raise AperiodicUnfinished(f"{name} unfinished at {horizon}")
    return compute_metrics(jobs, horizon).response_of(name).mean


def theoretical_responses(tasksets, cells=CELLS) -> Dict[str, List[float]]:
    """Theoretical aperiodic response per cell and phase (the pinned values)."""
    out = {}
    for n, u in cells:
        row = []
        for phase in range(len(ARRIVAL_PHASES_S)):
            arrival, horizon = horizon_of(phase)
            sim = TheoreticalSimulator(
                tasksets[(n, u)], n, tick=TICK, overhead=0.02,
                aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
            )
            sim.run(horizon)
            row.append(aperiodic_response(sim.finished_jobs, horizon))
        out[cell_name(n, u)] = row
    return out


def mean_cell(n: int, u: float, theo: List[float], real: List[float]) -> Figure4Cell:
    """A :class:`Figure4Cell` from per-phase cycles, as ``run_cell`` folds it."""
    return Figure4Cell(n, u, cycles_to_seconds(sum(theo) / len(theo)),
                       cycles_to_seconds(sum(real) / len(real)))


def paper_error_pp(slowdowns: Dict[Tuple[int, float], float]) -> float:
    """Mean absolute error (percentage points) against the paper's matrix."""
    errors = [abs(slowdowns[cell] - paper)
              for cell, paper in figure4.PAPER_SLOWDOWNS.items() if cell in slowdowns]
    return sum(errors) / len(errors) if errors else 0.0


class Workload:
    """Base: seeded set-up, fixed passes, modelled outputs."""

    name = ""
    #: Seconds of ``--seconds`` one pass is charged: ``--seconds`` divided
    #: by it gives the number of passes, so every run of a commit does the
    #: same work.  It is the pass's host time on a 2-CPU host unless noted.
    pass_cost_s = 1.0

    def __init__(self, seed: int, size: str, workdir: Path, passes: int):
        self.workdir = workdir
        self.rng = random.Random(seed)
        #: Host seconds spent building task sets during set-up.
        self.prepare_s = 0.0
        #: Modelled outputs of the latest pass; they must repeat exactly.
        self.model: Dict[str, object] = {}

    def run_pass(self, probe, index: int) -> List[Run]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove anything the workload wrote."""

    def tlm_heldout_err_pp(self) -> float:
        """``tlm`` vs prototype slowdown error on the held-out cells."""
        return 0.0


def _timed_run(probe, label: str, stages, scale: int = 1) -> Run:
    """Run ``stages`` in order, time them and account modelled cycles.

    The first stage is the run itself (``host_s``); the rest are work it
    carries along (``total_s``).  A stage that raises fails the run and
    skips the stages after it.  Times are normalised by the probe's
    :class:`~probe.HostClock`.
    """
    probe.sims.clear()
    # Collect earlier runs' cyclic garbage now, so no run pays for it.
    gc.collect()
    span = probe.begin_span("run", label=label)
    times, error = [], None
    for stage in stages:
        started = time.perf_counter()
        try:
            stage()
        except Exception as exc:  # a failed run is data, not a benchmark crash
            error = type(exc).__name__
        times.append(time.perf_counter() - started)
        if error is not None:
            break
    speed = probe.clock.factor()
    probe.end_span(span, error=error)
    cycles = sum(rec.clock() * (scale if rec.rung == "prototype" else 1)
                 for rec in probe.sims)
    return Run(label, times[0] * speed, sum(times) * speed, cycles, error)


def _prepared_grid(workload: Workload, cells):
    started = time.perf_counter()
    grid = {(n, u): prepare_taskset(build_automotive_taskset(u, n), n, tick=TICK)
            for n, u in cells}
    workload.prepare_s = time.perf_counter() - started
    return grid


class Fig4Prototype(Workload):
    """Figure-4 cells x arrival phases on the prototype rung, no cache."""

    name = "fig4-prototype"
    #: A pass takes about 17 s.  It is charged 10 s so that a 20 s run
    #: makes two passes: 27 runs alone leave the median resting on one
    #: cell's noise and the tail at p60.
    pass_cost_s = 10.0

    def __init__(self, seed: int, size: str, workdir: Path, passes: int):
        super().__init__(seed, size, workdir, passes)
        phases = range(len(ARRIVAL_PHASES_S))
        self.order = ([(cell, k) for cell in CELLS for k in phases] if size == "full"
                      else [((2, 0.40), 0), ((4, 0.60), 1)])
        self.cells = sorted({cell for cell, _ in self.order})
        self.rng.shuffle(self.order)
        self.tasksets = _prepared_grid(self, self.cells)
        self.reference = json.loads(THEORETICAL_REF.read_text())

    def run_pass(self, probe, index: int) -> List[Run]:
        runs = []
        theo: Dict[Tuple, float] = {}
        real: Dict[Tuple, float] = {}
        for (n, u), k in self.order:
            arrival, horizon = horizon_of(k)
            arrivals = {AUTOMOTIVE_APERIODIC: [arrival]}
            taskset = self.tasksets[(n, u)]

            def body():
                sim = TheoreticalSimulator(taskset, n, tick=TICK, overhead=0.02,
                                           aperiodic_arrivals=arrivals)
                sim.run(horizon)
                theo[(n, u, k)] = aperiodic_response(sim.finished_jobs, horizon)
                proto = PrototypeSimulator(
                    taskset, PrototypeConfig(n_cpus=n, tick=TICK, scale=SCALE),
                    bindings=automotive_bindings(), aperiodic_arrivals=arrivals,
                )
                proto.run(horizon)
                real[(n, u, k)] = proto.to_full_scale(
                    int(aperiodic_response(proto.finished_jobs, horizon // SCALE)))

            run = _timed_run(probe, f"{cell_name(n, u)}/{k}", (body,), scale=SCALE)
            pinned = self.reference[cell_name(n, u)][k]
            if run.error is None and theo[(n, u, k)] != pinned:
                run.error = CheckMismatch.__name__
            runs.append(run)
        self.model = _grid_model({"theoretical": theo, "prototype": real})
        return runs

    def tlm_heldout_err_pp(self) -> float:
        """Mean |tlm - prototype| slowdown over the cells the ``tlm`` cost
        table was not calibrated on (an untimed ``run_cell`` per cell)."""
        prototype = self.model["slowdown_pct"]
        errors = [
            abs(figure4.run_cell(n, u, fidelity="tlm").slowdown_pct
                - prototype[cell_name(n, u)])
            for n, u in self.cells
            if (n, u) not in ANCHOR_CELLS and cell_name(n, u) in prototype
        ]
        return sum(errors) / len(errors) if errors else 0.0


def _grid_model(rungs: Dict[str, Dict[Tuple, float]]) -> Dict[str, object]:
    """Per-cell means and slowdowns from per-(cell, phase) responses.

    ``rungs`` maps rung -> {(n, u, phase): cycles}; the last rung is the
    "real" column.  Cells missing a phase (a failed run) get no mean.
    """
    phases = range(len(ARRIVAL_PHASES_S))
    model: Dict[str, object] = {
        "response_cycles": {
            rung: {f"{cell_name(n, u)}.{k}": v for (n, u, k), v in sorted(values.items())}
            for rung, values in rungs.items()
        },
    }
    theo_rung, real_rung = list(rungs)[0], list(rungs)[-1]
    means: Dict[str, Dict[str, float]] = {rung: {} for rung in rungs}
    slowdowns: Dict[Tuple[int, float], float] = {}
    for n, u in CELLS:
        per = {rung: [values.get((n, u, k)) for k in phases]
               for rung, values in rungs.items()}
        if any(v is None for row in per.values() for v in row):
            continue
        for rung, row in per.items():
            means[rung][cell_name(n, u)] = sum(row) / len(row)
        slowdowns[(n, u)] = mean_cell(n, u, per[theo_rung], per[real_rung]).slowdown_pct
    model["cell_means"] = means
    model["slowdown_pct"] = {cell_name(*cell): v for cell, v in slowdowns.items()}
    model["paper_err_pp"] = paper_error_pp(slowdowns)
    return model


class Fig4FastRungs(Workload):
    """The grid on theoretical + tlm through ``figure4_sweep``.  Per cell:
    cold, then warm against the pass's fresh run cache, then the
    P-FP/G-FP/G-EDF baselines on the cell's three phases."""

    name = "fig4-fastrungs"
    pass_cost_s = 2.2
    POLICIES = (PartitionedFixedPriorityPolicy, GlobalFixedPriorityPolicy,
                GlobalEDFPolicy)

    def __init__(self, seed: int, size: str, workdir: Path, passes: int):
        super().__init__(seed, size, workdir, passes)
        self.cells = list(CELLS if size == "full" else ((2, 0.40), (4, 0.60)))
        self.rng.shuffle(self.cells)
        self.tasksets = _prepared_grid(self, self.cells)
        self.reference = json.loads(THEORETICAL_REF.read_text())
        self._caches = 0

    def _fresh_cache(self) -> RunCache:
        self._caches += 1
        return RunCache(self.workdir / f"cache-{self._caches}")

    def _sweep(self, cache: RunCache, n: int, u: float) -> Figure4Cell:
        [cell] = figure4_sweep(cpus=(n,), utilizations=(u,), fidelity="tlm",
                               max_workers=1, cache=cache)
        return cell

    def run_pass(self, probe, index: int) -> List[Run]:
        cache = self._fresh_cache()
        runs = []
        rungs: Dict[str, Dict[Tuple, float]] = {"theoretical": {}, "tlm": {}}
        baselines: Dict[str, float] = {}
        for n, u in self.cells:
            cold: List[Figure4Cell] = []

            def sweep_cold():
                cold.append(self._sweep(cache, n, u))

            def sweep_warm():
                if asdict(self._sweep(cache, n, u)) != asdict(cold[0]):
                    raise CheckMismatch(f"{cell_name(n, u)}: warm != cold")

            def run_baselines():
                for k in range(len(ARRIVAL_PHASES_S)):
                    arrival, horizon = horizon_of(k)
                    for policy in self.POLICIES:
                        sim = MultiprocessorSimulator(
                            self.tasksets[(n, u)], n, policy(),
                            aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]})
                        baselines[f"{policy.name}.{cell_name(n, u)}.{k}"] = (
                            aperiodic_response(sim.run(horizon), horizon))

            run = _timed_run(probe, cell_name(n, u),
                             (sweep_cold, sweep_warm, run_baselines))
            runs.append(run)
            phase: Counter = Counter()
            for rec in probe.sims:  # theoretical, tlm per phase, in phase order
                if rec.rung not in rungs:
                    continue
                k = phase[rec.rung]
                phase[rec.rung] += 1
                try:
                    rungs[rec.rung][(n, u, k)] = aperiodic_response(
                        rec.instance.finished_jobs, horizon_of(k)[1])
                except AperiodicUnfinished:
                    run.error = run.error or AperiodicUnfinished.__name__
            pinned = self.reference[cell_name(n, u)]
            if run.error is None and (
                [rungs["theoretical"][(n, u, k)] for k in range(len(pinned))] != pinned
                or cold[0].theoretical_s != cycles_to_seconds(sum(pinned) / len(pinned))
            ):
                run.error = CheckMismatch.__name__
        self.model = _grid_model(rungs)
        self.model["baseline_response_cycles"] = baselines
        self.model["cache_bytes"] = cache.disk_usage()
        self.model["cache"] = {k: v for k, v in cache.stats().items() if k != "root"}
        shutil.rmtree(cache.root, ignore_errors=True)
        return runs

    def close(self) -> None:
        for k in range(1, self._caches + 1):
            shutil.rmtree(self.workdir / f"cache-{k}", ignore_errors=True)


class FaultCampaign(Workload):
    """Seeded random fault plans (all nine kinds) on the demo workload
    through ``campaign_cell``, recovery on; one run is one plan seed."""

    name = "fault-campaign"
    pass_cost_s = 2.8

    def __init__(self, seed: int, size: str, workdir: Path, passes: int):
        super().__init__(seed, size, workdir, passes)
        started = time.perf_counter()
        taskset = demo_taskset()
        self.prepare_s = time.perf_counter() - started
        self.aperiodic = taskset.aperiodic[0].name
        wcets = {task.name: task.wcet for task in taskset.periodic}
        per_pass = CAMPAIGN_SEEDS if size == "full" else 6
        #: Plans per pass; plan seeds are drawn from the workload seed.
        self.plans = [
            [random_plan(seed=self.rng.randrange(2 ** 31), horizon=CAMPAIGN_HORIZON,
                         tasks=wcets, n_cpus=2, n_faults=CAMPAIGN_FAULTS,
                         kinds=FAULT_KINDS).to_dict()
             for _ in range(per_pass)]
            for _ in range(passes)
        ]

    def _check(self, kernel) -> None:
        frames = sum(1 for can in kernel.soc.peripherals.values()
                     if can.task_name == self.aperiodic
                     for t in can.frames if t < CAMPAIGN_HORIZON)
        done = sum(1 for job in kernel.finished_jobs if job.task.name == self.aperiodic)
        if done < frames:
            raise AperiodicUnfinished(f"{self.aperiodic}: {done}/{frames} finished")

    def run_pass(self, probe, index: int) -> List[Run]:
        runs, results = [], []
        for plan in self.plans[index]:
            out = {}

            def body():
                out.update(campaign_cell({"plan": plan, "recovery": {"enabled": True},
                                          "until": CAMPAIGN_HORIZON}))

            run = _timed_run(probe, f"seed-{plan['seed']}", (body,))
            if run.error is None:
                try:
                    self._check(probe.sims[0].instance)
                except AperiodicUnfinished as exc:
                    run.error = type(exc).__name__
            results.append({"seed": plan["seed"], "error": run.error, **out})
            runs.append(run)
        self.model = {"campaign": results}
        return runs


WORKLOADS = {cls.name: cls for cls in (Fig4Prototype, Fig4FastRungs, FaultCampaign)}
