#!/usr/bin/env python3
"""Quick self-test of the benchmark: every workload at ``--size min``.

    python3 perfbench/selftest.py

Run from the repository root.  For each workload in ``BENCHMARK.json``
it runs the command once untraced and twice traced, and asserts that:

- the printed metric names and units equal those in ``BENCHMARK.json``;
- the two traced runs give identical per-layer counts, modelled values
  and ``model_digest`` (only host times may differ);
- ``failed_share`` is computed over the attempted runs, the traced
  ``failures.*`` add up to ``failed``, and the known failures of the
  grid and campaign workloads are counted.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def is_host_time(name: str) -> bool:
    """Per-layer metrics measured in host time, which may vary."""
    return name.endswith(("_s", "host_share")) or name == "tracing_overhead_pct"


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--size", "min", "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=600,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_names(result: dict, spec: list, what: str) -> None:
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    declared = {metric["name"]: metric["unit"] for metric in spec}
    assert printed == declared, (
        f"{what}: printed metrics differ from BENCHMARK.json: "
        f"{sorted(set(printed.items()) ^ set(declared.items()))}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, 0)
        check_names(plain, spec["end_to_end"], f"{workload} --trace 0")
        attempted, failed = plain["attempted"], plain["failed"]
        assert attempted >= 1 and 0 <= failed <= attempted, plain
        share = plain["metrics"]["failed_share"]["value"]
        assert share == (failed + 1) / (attempted + 2), (share, attempted, failed)

        first, second = run(workload, 1), run(workload, 1)
        check_names(first, spec["per_layer"], f"{workload} --trace 1")
        moved = [name for name, metric in first["metrics"].items()
                 if not is_host_time(name) and metric != second["metrics"][name]]
        assert not moved, f"{workload}: traced counts differ between runs: {moved}"
        assert (first["attempted"], first["failed"]) == (attempted, failed)
        failures = {name: metric["value"] for name, metric in first["metrics"].items()
                    if name.startswith("failures.")}
        assert sum(failures.values()) == failed, (failures, failed)
        if workload == "fig4-prototype":  # 4P/60 % at 3.55 s
            assert failures["failures.ValueError"] >= 1, failures
        if workload == "fault-campaign":  # bitflip_memory outside DDR
            assert failures["failures.MemoryError_"] >= 1, failures
        print(f"ok {workload}: {attempted} attempted, {failed} failed, "
              f"{len(first['metrics'])} per-layer metrics repeat exactly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
