#!/usr/bin/env python3
"""Repository benchmark: the Figure-4 grid end to end, per layer.

    python3 perfbench/run.py --workload fig4-prototype --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs one untraced and one
traced pass and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One thread per numeric library: the benchmark is single-process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: run caches (removed) and spans.
WORKDIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("fig4-prototype", "fig4-fastrungs", "fault-campaign")
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 7
#: Failure classes reported as ``failures.<name>``; any other is ``other``.
FAILURE_TYPES = ("ValueError", "MemoryError_", "RuntimeError", "KeyError",
                 "AperiodicUnfinished", "CheckMismatch")
#: Layers whose cProfile self-time share is reported.
HOST_SHARE_LAYERS = ("sim.engine", "sim.events", "sim.resources", "hw.bus",
                     "hw.microblaze", "kernel.microkernel", "core.mpdp",
                     "core.queues", "simulators.theoretical", "simulators.tlm",
                     "simulators.baselines", "perfbench")
RUNGS = ("theoretical", "tlm", "prototype")

Metrics = Dict[str, Tuple[float, str]]


def host() -> str:
    """The host key: Python implementation, version and CPU count only."""
    return (f"{platform.python_implementation()} {platform.python_version()} "
            f"nproc={os.cpu_count()}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="work per run: seconds / the workload's pass "
                             "cost gives the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "min"), default="full",
                        help="min: a few runs per workload (self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pass_count(args) -> int:
    """Passes per untraced run: fixed by ``--seconds``, never by the clock."""
    from workloads import WORKLOADS

    if args.size == "min":
        return 1
    return max(1, round(args.seconds / WORKLOADS[args.workload].pass_cost_s))


def setup_seconds(args) -> float:
    """Interpreter start to end of set-up, in fresh child interpreters.

    The median child time is normalised by the median reference sample
    taken between the children.  Per child the two do not track each
    other (imports read files), but over the batch the reference
    removes the host's speed drift.
    """
    from probe import REF_NOMINAL_S, reference_s

    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--size", args.size]
    times, references = [], [reference_s()]
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
        references.append(reference_s())
    return statistics.median(times) * REF_NOMINAL_S / statistics.median(references)


def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 values
    beyond it; with 10 or fewer values, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, n - 10)
    if n <= 10:
        rank = n
    return ordered[rank - 1], 100.0 * rank / n, n


def end_to_end(runs, setup_s: float) -> Tuple[Metrics, Dict[str, str]]:
    completed = [run.host_s for run in runs if run.error is None] or [0.0]
    failed = sum(1 for run in runs if run.error is not None)
    tail_s, pct, n = tail(completed)
    metrics: Metrics = {
        "setup_s": (setup_s, "s"),
        "sim_cycles_per_s": (sum(r.cycles for r in runs)
                             / sum(r.total_s for r in runs), "cycles/s"),
        "run_s_p50": (statistics.median(completed), "s"),
        "run_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        # Rule-of-succession estimate: never 0, monotone in failed runs.
        "failed_share": ((failed + 1) / (len(runs) + 2), "ratio"),
    }
    return metrics, {"run_s_tail": f"p{pct:.0f} of n={n} completed runs"}


def failure_counts(runs) -> Dict[str, int]:
    counts = {name: 0 for name in FAILURE_TYPES + ("other",)}
    for run in runs:
        if run.error is not None:
            counts[run.error if run.error in counts else "other"] += 1
    return counts


def model_digest(model) -> int:
    """The modelled outputs of a pass as a 52-bit integer."""
    blob = json.dumps(model, sort_keys=True, separators=(",", ":")).encode()
    return int(hashlib.sha256(blob).hexdigest()[:13], 16)


def per_layer(workload, probe, runs, untraced_s: float, traced_s: float,
              heldout_pp: float) -> Metrics:
    from workloads import CELLS, Fig4FastRungs, cell_name

    count, secs, model = probe.count, probe.seconds, workload.model
    cycles = sum(run.cycles for run in runs)
    events = count["sim.engine.events"]
    txns = count["hw.bus.transactions"]
    requests = count["sim.resources.requests"]
    cache = model.get("cache", {})
    metrics: Metrics = {
        "sim.engine.events": (events, "count"),
        "sim.engine.events_per_kcycle": (1000 * events / cycles if cycles else 0, "1/kcycle"),
        "sim.resources.requests": (requests, "count"),
        "sim.resources.immediate_grant_share": (
            count["sim.resources.immediate_grants"] / requests if requests else 0, "ratio"),
        "hw.bus.transactions": (txns, "count"),
        "hw.bus.wait_cycles": (count["hw.bus.wait_cycles"], "cycles"),
        "hw.bus.busy_cycles": (count["hw.bus.busy_cycles"], "cycles"),
        "hw.bus.stall_cycles": (count["hw.bus.stall_cycles"], "cycles"),
        "hw.bus.events_per_txn": (events / txns if txns else 0, "1/txn"),
        "hw.microblaze.busy_cycles": (count["hw.microblaze.busy_cycles"], "cycles"),
        "hw.microblaze.stall_cycles": (count["hw.microblaze.stall_cycles"], "cycles"),
        "hw.microblaze.nominal_cycles": (count["hw.microblaze.nominal_cycles"], "cycles"),
        "hw.cache.icache_misses": (count["hw.cache.icache_misses"], "count"),
        "hw.intc.delivered": (count["hw.intc.delivered"], "count"),
        "hw.intc.timeouts": (count["hw.intc.timeouts"], "count"),
        "hw.intc.ipis": (count["hw.intc.ipis"], "count"),
    }
    for key in ("scheduling_cycles", "context_switches", "irqs_serviced",
                "deadline_misses", "task_retries", "jobs_shed"):
        metrics[f"kernel.microkernel.{key}"] = (count[f"kernel.microkernel.{key}"], "count")
    metrics.update({
        "core.mpdp.allocate_calls": (count["core.mpdp.allocate"], "count"),
        "core.mpdp.allocate_s": (secs["core.mpdp.allocate"], "s"),
        "core.mpdp.promotions": (count["core.mpdp.promotions"], "count"),
        "core.queues.ops": (count["core.queues.ops"], "count"),
    })
    for rung in RUNGS:
        metrics[f"simulators.{rung}.run_s"] = (secs[f"simulators.{rung}.run"], "s")
    for policy in (policy.name for policy in Fig4FastRungs.POLICIES):
        metrics[f"simulators.baselines.{policy}.run_s"] = (
            secs[f"simulators.baseline.{policy}.run"], "s")
    metrics.update({
        "simulators.tlm.transactions": (count["simulators.tlm.transactions"], "count"),
        "workloads.automotive.prepare_s": (workload.prepare_s, "s"),
        "perf.cache.lookup_s": (secs["perf.cache.lookup"], "s"),
        "perf.cache.put_s": (secs["perf.cache.put"], "s"),
        "perf.cache.hit_rate": (cache.get("hit_rate", 0.0), "ratio"),
        "perf.cache.bytes_written": (model.get("cache_bytes", 0), "B"),
        "perf.executor.pmap_overhead_s": (
            secs["perf.executor.pmap"] - secs["experiments.figure4.run_cell"], "s"),
        "faults.injector.fired": (
            sum(injector.stats()["fired"] for injector in probe.injectors), "count"),
    })
    for name, value in failure_counts(runs).items():
        metrics[f"failures.{name}"] = (value, "count")
    for layer in HOST_SHARE_LAYERS:
        metrics[f"{layer}.host_share"] = (probe.host_share.get(layer, 0.0), "ratio")
    means = model.get("cell_means", {})
    slowdowns = model.get("slowdown_pct", {})
    for rung in RUNGS:
        for cell in CELLS:
            metrics[f"response_cycles.{rung}.{cell_name(*cell)}"] = (
                means.get(rung, {}).get(cell_name(*cell), 0.0), "cycles")
    for cell in CELLS:
        metrics[f"slowdown_pct.{cell_name(*cell)}"] = (
            slowdowns.get(cell_name(*cell), 0.0), "%")
    metrics.update({
        "paper_err_pp": (model.get("paper_err_pp", 0.0), "pp"),
        "tlm_heldout_err_pp": (heldout_pp, "pp"),
        "model_digest": (model_digest(model), "id"),
        "tracing_overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
    })
    return metrics


def measure(args):
    """Run the workload; returns (runs, metrics, notes)."""
    from probe import Probe
    from workloads import WORKLOADS

    from repro.obs.spans import SpanRecorder

    passes = 1 if args.trace else pass_count(args)
    setup_s = 0.0 if args.trace else setup_seconds(args)
    workload = WORKLOADS[args.workload](args.seed, args.size, WORKDIR, passes)
    # Set-up objects live for the whole run: keep them out of the
    # per-run collections (see workloads._timed_run).
    gc.freeze()
    try:
        runs = []
        with Probe() as probe:
            for index in range(passes):
                runs += workload.run_pass(probe, index)
        if not args.trace:
            return runs, *end_to_end(runs, setup_s)

        untraced_s = sum(run.total_s for run in runs)
        spans = SpanRecorder()
        with Probe(traced=True, spans=spans) as probe:
            with spans.span("workload", workload=args.workload, seed=args.seed):
                runs = workload.run_pass(probe, 0)
        traced_s = sum(run.total_s for run in runs)
        heldout = workload.tlm_heldout_err_pp()
        WORKDIR.mkdir(exist_ok=True)
        spans.write_jsonl(WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl")
        return runs, per_layer(workload, probe, runs, untraced_s, traced_s, heldout), {}
    finally:
        workload.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, args.size, WORKDIR, pass_count(args)).close()
        return 0

    runs, metrics, notes = measure(args)
    failed = [run for run in runs if run.error is not None]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"host {host()}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {value:>16.6g} {unit}{note}")
    print(f"  runs: {len(runs)} attempted, {len(failed)} failed "
          + " ".join(f"{k}={v}" for k, v in failure_counts(runs).items() if v))
    print(json.dumps({
        "correct": not any(run.error == "CheckMismatch" for run in runs),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
