"""Timing harness: serial vs parallel, cold vs warm cache.

Times representative slices of the evaluation pipeline and emits
``BENCH_perf.json``, the file that seeds the repo's performance
trajectory -- every future optimisation PR should move these numbers
and say so.  Three sections:

- ``engine``: a pure discrete-event micro-benchmark (timeout- and
  interrupt-heavy processes, no hardware model) reporting sustained
  queue throughput;
- ``figure4``: the same Figure 4 cells run serially and with a worker
  pool, with the speedup and a bit-for-bit equality check;
- ``cache``: a cold sweep populating a fresh run cache, then the warm
  re-run, with hit statistics and the warm speedup;
- ``isa``: the predecoded basic-block ISA interpreter vs the
  per-instruction reference on the asmlib kernels, with the
  events-per-retired-instruction counts the coalescing is supposed to
  collapse (see :mod:`repro.perf.isabench`).

All sections use deterministic workloads, so two runs on the same
host differ only by timing noise.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from typing import Any, Dict, Optional, Sequence

from repro import __version__
from repro.perf.cache import RunCache
from repro.perf.executor import default_workers
from repro.sim.engine import Simulator
from repro.sim.events import Interrupt

#: Default output file name.
BENCH_FILE = "BENCH_perf.json"


# ------------------------------------------------------------------ engine
def bench_engine(n_processes: int = 300, horizon: int = 3_000) -> Dict[str, Any]:
    """Sustained event throughput of the discrete-event core.

    Spawns ``n_processes`` workers ticking every few cycles plus one
    interrupter per eight workers, the mix the kernel model produces
    (wake-ups dominated by short timeouts with a steady interrupt
    stream).
    """

    def ticker(sim: Simulator, period: int):
        while True:
            try:
                yield sim.timeout(period)
            except Interrupt:
                pass

    def interrupter(sim: Simulator, victims, period: int):
        while True:
            yield sim.timeout(period)
            for victim in victims:
                if victim.is_alive:
                    victim.interrupt("bench")

    sim = Simulator()
    workers = [sim.process(ticker(sim, 2 + (i % 7))) for i in range(n_processes)]
    for i in range(0, n_processes, 8):
        sim.process(interrupter(sim, workers[i:i + 8], 13))
    started = time.perf_counter()
    sim.run(until=horizon)
    elapsed = time.perf_counter() - started
    events = sim._eid  # total queue entries pushed
    return {
        "processes": n_processes,
        "horizon_cycles": horizon,
        "events": events,
        "elapsed_s": round(elapsed, 4),
        "events_per_s": round(events / elapsed) if elapsed > 0 else None,
    }


# ----------------------------------------------------------------- figure 4
def bench_figure4(
    workers: Optional[int] = None,
    cpus: Sequence[int] = (2,),
    utilizations: Sequence[float] = (0.40, 0.50, 0.60),
    scale: int = 1_000,
) -> Dict[str, Any]:
    """Serial vs parallel wall clock over the same Figure 4 cells."""
    from repro.experiments.figure4 import figure4_sweep

    workers = workers or default_workers()
    started = time.perf_counter()
    serial_cells = figure4_sweep(cpus, utilizations, scale=scale, max_workers=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel_cells = figure4_sweep(cpus, utilizations, scale=scale,
                                   max_workers=workers)
    parallel_s = time.perf_counter() - started
    return {
        "cells": len(serial_cells),
        "workers": workers,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s > 0 else None,
        "identical": serial_cells == parallel_cells,
    }


# -------------------------------------------------------------------- cache
def bench_cache(
    cpus: Sequence[int] = (2,),
    utilizations: Sequence[float] = (0.40, 0.50),
    scale: int = 1_000,
) -> Dict[str, Any]:
    """Cold vs warm run-cache wall clock over the same cells."""
    from repro.experiments.figure4 import figure4_sweep

    with tempfile.TemporaryDirectory(prefix="repro-perf-cache-") as root:
        cache = RunCache(root)
        started = time.perf_counter()
        cold_cells = figure4_sweep(cpus, utilizations, scale=scale, cache=cache)
        cold_s = time.perf_counter() - started

        started = time.perf_counter()
        warm_cells = figure4_sweep(cpus, utilizations, scale=scale, cache=cache)
        warm_s = time.perf_counter() - started
        stats = cache.stats()
    return {
        "cells": len(cold_cells),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 4),
        "hits": stats["hits"],
        "misses": stats["misses"],
        "hit_rate": stats["hit_rate"],
        "warm_speedup": round(cold_s / warm_s, 1) if warm_s > 0 else None,
        "identical": cold_cells == warm_cells,
    }


# ---------------------------------------------------------------------- tlm
def bench_tlm(
    cells: Optional[Sequence] = None,
    repeats: int = 3,
    scale: int = 1_000,
) -> Dict[str, Any]:
    """TLM rung vs prototype wall clock on the Figure 4 anchor cells.

    Times both rungs of the fidelity ladder on the same anchor cells
    the cost table was calibrated against, best-of-``repeats`` (the
    gate protects against code regressions, not scheduler jitter), and
    re-checks the accuracy contract the speedup is only meaningful
    under: identical schedulability verdicts and per-task WCRTs within
    the calibrated residual.

    The rung-independent workload preparation (task-set analysis,
    partitioning, promotions) is built outside the timed region --
    both rungs consume the identical artefact, so the ratio compares
    what actually differs: the simulation backends.  The rungs are
    timed back to back within each repeat and the speedup taken as the
    best per-repeat ratio: on hosts with drifting clock speed (laptop
    governors, shared VMs) paired samples see the same speed epoch,
    where independent minima would compare different ones.
    """
    from repro.simulators.tlm import (
        ANCHOR_CELLS,
        DEFAULT_COST_TABLE,
        _anchor_setup,
        _wcrt_deviation,
        anchor_prototype_reference,
        anchor_tlm_run,
    )

    cells = tuple(cells) if cells is not None else ANCHOR_CELLS
    rows = []
    verdicts_match = True
    max_deviation = 0.0
    for n_cpus, utilization in cells:
        best = None  # (speedup, proto_s, tlm_s)
        for _ in range(repeats):
            prepared = _anchor_setup(n_cpus, utilization)
            started = time.perf_counter()
            reference = anchor_prototype_reference(n_cpus, utilization,
                                                   scale=scale,
                                                   prepared=prepared)
            proto_s = time.perf_counter() - started

            prepared = _anchor_setup(n_cpus, utilization)
            started = time.perf_counter()
            result = anchor_tlm_run(n_cpus, utilization, prepared=prepared)
            tlm_s = time.perf_counter() - started
            if tlm_s > 0 and (best is None or proto_s / tlm_s > best[0]):
                best = (proto_s / tlm_s, proto_s, tlm_s)
        if (result["misses"] == 0) != (reference["misses"] == 0):
            verdicts_match = False
        deviations = _wcrt_deviation(reference["wcrt"], result["wcrt"])
        if deviations:
            max_deviation = max(max_deviation, max(deviations))
        rows.append({
            "n_cpus": n_cpus,
            "utilization": utilization,
            "prototype_s": round(best[1], 4),
            "tlm_s": round(best[2], 4),
            "speedup": round(best[0], 1),
        })
    speedups = [row["speedup"] for row in rows if row["speedup"] is not None]
    residual = DEFAULT_COST_TABLE.residual
    return {
        "cells": rows,
        "repeats": repeats,
        "min_speedup": min(speedups) if speedups else None,
        "verdicts_match": verdicts_match,
        "max_wcrt_deviation": round(max_deviation, 4),
        "residual_bound": residual,
        "accurate": verdicts_match and max_deviation <= residual,
    }


# ------------------------------------------------------------------ baseline
def host() -> Dict[str, Any]:
    """This host as the results file records it (``platform`` is the key
    :func:`same_host` compares)."""
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def load_bench_baseline(path: str = BENCH_FILE) -> Optional[Dict[str, Any]]:
    """The committed results file, or None when absent or malformed."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def same_host(baseline: Dict[str, Any]) -> bool:
    """True when ``baseline`` was recorded on this host (platform string
    match); wall-clock comparisons across hosts are noise."""
    return baseline.get("host", {}).get("platform") == host()["platform"]


# --------------------------------------------------------------------- main
def run_benchmarks(
    out: Optional[str] = BENCH_FILE,
    workers: Optional[int] = None,
    quick: bool = False,
    engine_only: bool = False,
    tlm_only: bool = False,
    isa_only: bool = False,
) -> Dict[str, Any]:
    """Run every section and (optionally) write ``BENCH_perf.json``.

    ``engine_only`` runs just the pure discrete-event micro-benchmark
    (seconds instead of minutes) -- the mode the engine regression
    gate in ``benchmarks/test_bench_engine.py`` and quick development
    loops use.  ``tlm_only`` runs just the fidelity-ladder section
    (TLM vs prototype on the anchor cells); ``isa_only`` just the
    block-vs-reference interpreter section.  Partial results should
    not be written over a full ``BENCH_perf.json`` (the CLI defaults
    to not writing in those modes).
    """
    from repro.perf.isabench import bench_isa

    utilizations = (0.40, 0.50) if quick else (0.40, 0.50, 0.60)
    results: Dict[str, Any] = {
        "version": __version__,
        "host": host(),
    }
    if tlm_only:
        results["tlm"] = bench_tlm(repeats=1 if quick else 3)
    elif isa_only:
        results["isa"] = bench_isa(repeats=1 if quick else 3, quick=quick)
    else:
        results["engine"] = bench_engine(n_processes=100 if quick else 300)
        if not engine_only:
            results["figure4"] = bench_figure4(workers=workers,
                                               utilizations=utilizations)
            results["cache"] = bench_cache(utilizations=utilizations[:2])
            results["tlm"] = bench_tlm(repeats=1 if quick else 3)
            results["isa"] = bench_isa(repeats=1 if quick else 3, quick=quick)
    if out:
        payload = results
        if isa_only or tlm_only or engine_only:
            # Section-only regeneration: merge into an existing full
            # file instead of clobbering the other committed sections.
            payload = load_bench_baseline(out) or results
            for section in ("engine", "figure4", "cache", "tlm", "isa"):
                if section in results:
                    payload[section] = results[section]
        with open(out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return results


def format_results(results: Dict[str, Any]) -> str:
    """Human-readable one-screen rendering of a results dict."""
    lines = [
        f"repro-perf {results['version']} on {results['host']['cpus']} cpu(s)",
    ]
    if "engine" in results:
        engine = results["engine"]
        lines.append(
            f"engine : {engine['events']} events in {engine['elapsed_s']} s "
            f"({engine['events_per_s']} events/s)"
        )
    if "figure4" in results:
        fig4 = results["figure4"]
        lines.append(
            f"figure4: {fig4['cells']} cells  serial {fig4['serial_s']} s  "
            f"parallel[{fig4['workers']}] {fig4['parallel_s']} s  "
            f"speedup {fig4['speedup']}x  identical={fig4['identical']}"
        )
    if "cache" in results:
        cache = results["cache"]
        lines.append(
            f"cache  : {cache['cells']} cells  cold {cache['cold_s']} s  "
            f"warm {cache['warm_s']} s  {cache['hits']} hit(s) / "
            f"{cache['misses']} miss(es) ({cache['hit_rate']:.0%} hit rate)  "
            f"warm speedup {cache['warm_speedup']}x"
        )
    if "tlm" in results:
        tlm = results["tlm"]
        per_cell = "  ".join(
            f"{row['n_cpus']}P/{row['utilization']:.0%} {row['speedup']}x"
            for row in tlm["cells"]
        )
        lines.append(
            f"tlm    : {per_cell}  (min {tlm['min_speedup']}x, "
            f"wcrt dev {tlm['max_wcrt_deviation']:.1%} <= "
            f"{tlm['residual_bound']:.1%}, "
            f"verdicts_match={tlm['verdicts_match']})"
        )
    if "isa" in results:
        isa = results["isa"]
        per_kernel = "  ".join(
            f"{row['kernel']} {row['speedup']}x" for row in isa["kernels"]
        )
        lines.append(
            f"isa    : {per_kernel}  (aggregate {isa['speedup']}x, "
            f"events/instr {isa['events_per_instr_reference']} -> "
            f"{isa['events_per_instr_block']}, "
            f"identical={isa['identical']})"
        )
    return "\n".join(lines)
