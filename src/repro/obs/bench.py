"""Instrumentation overhead microbenchmark.

The observability hooks are designed to be zero-cost when disabled:
every instrumented component defaults to ``metrics=None`` and the hot
paths pay exactly one attribute-``is not None`` check.  This module
puts a number on that claim by timing the Figure 4 hot path (one
prototype cell, the same workload ``bench_figure4`` times) three ways:

- ``disabled``: the default, uninstrumented run -- the configuration
  every existing experiment and ``BENCH_perf.json`` baseline uses;
- ``enabled``: the fully instrumented run behind
  :func:`repro.experiments.runner.prototype_run_report` (metrics
  registry + ring-buffer trace + bus monitor);
- ``baseline``: the recorded per-cell wall clock from
  ``BENCH_perf.json``, when that file exists and was produced on a
  matching host (cross-host wall-clock comparisons are meaningless,
  so the ratio is only reported when the platform strings agree).

``benchmarks/test_bench_obs.py`` asserts ``overhead_vs_baseline``
stays under 2% on a matching host.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.perf.bench import host, load_bench_baseline, same_host

#: Maximum tolerated disabled-instrumentation slowdown vs the recorded
#: baseline (fraction; 0.02 == 2%).
OVERHEAD_BUDGET = 0.02


def _best_of(fn, repeats: int) -> float:
    """Best (minimum) wall clock over ``repeats`` calls.

    Minimum, not mean: scheduling noise only ever adds time, so the
    fastest observation is the closest to the true cost.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def load_baseline_cell_s(bench_file: str = "BENCH_perf.json") -> Optional[Dict[str, Any]]:
    """Per-cell serial wall clock recorded by ``repro-perf bench``.

    Returns ``None`` when the file is absent or malformed; sets
    ``host_matches`` so callers can refuse cross-host comparisons.
    """
    recorded = load_bench_baseline(bench_file)
    try:
        figure4 = recorded["figure4"]
        cell_s = figure4["serial_s"] / figure4["cells"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return None
    return {
        "cell_s": cell_s,
        "host_matches": same_host(recorded),
        "recorded_platform": recorded.get("host", {}).get("platform"),
    }


def bench_obs_overhead(
    repeats: int = 3,
    utilization: float = 0.5,
    scale: int = 1_000,
    bench_file: str = "BENCH_perf.json",
) -> Dict[str, Any]:
    """Time the Figure 4 cell disabled vs enabled vs recorded baseline."""
    from repro.experiments.runner import prototype_response_s, prototype_run_report

    def disabled_run():
        prototype_response_s(n_cpus=2, utilization=utilization, scale=scale)

    def enabled_run():
        prototype_run_report(n_cpus=2, utilization=utilization, scale=scale)

    disabled_s = _best_of(disabled_run, repeats)
    enabled_s = _best_of(enabled_run, repeats)

    result: Dict[str, Any] = {
        "host": host(),
        "repeats": repeats,
        "utilization": utilization,
        "scale": scale,
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "enabled_overhead": round(enabled_s / disabled_s - 1.0, 4)
        if disabled_s > 0 else None,
        "overhead_budget": OVERHEAD_BUDGET,
    }
    baseline = load_baseline_cell_s(bench_file)
    if baseline is not None:
        result["baseline_cell_s"] = round(baseline["cell_s"], 4)
        result["baseline_host_matches"] = baseline["host_matches"]
        if baseline["cell_s"] > 0:
            result["overhead_vs_baseline"] = round(
                disabled_s / baseline["cell_s"] - 1.0, 4
            )
    return result


def format_overhead(result: Dict[str, Any]) -> str:
    """Human-readable one-screen summary."""
    lines = [
        f"figure4 cell, scale={result['scale']}, util={result['utilization']:.0%}, "
        f"best of {result['repeats']}:",
        f"  disabled instrumentation : {result['disabled_s']:.3f}s",
        f"  enabled  instrumentation : {result['enabled_s']:.3f}s "
        f"({result['enabled_overhead']:+.1%} vs disabled)",
    ]
    if "baseline_cell_s" in result:
        suffix = "" if result.get("baseline_host_matches") else "  [different host]"
        lines.append(
            f"  recorded baseline        : {result['baseline_cell_s']:.3f}s "
            f"({result.get('overhead_vs_baseline', 0):+.1%} vs baseline, "
            f"budget {result['overhead_budget']:.0%}){suffix}"
        )
    else:
        lines.append("  recorded baseline        : (no BENCH_perf.json)")
    return "\n".join(lines)
