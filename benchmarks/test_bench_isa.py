"""Benchmark: ISA block-interpreter speedup regression gate.

``repro-perf bench`` records the block-vs-reference interpreter
speedup over the asmlib kernels in the ``isa`` section of
``BENCH_perf.json``; this gate re-measures it and fails if the
aggregate speedup fell below ``FLOOR_RATIO`` of the committed value --
the tripwire for regressions in the predecode/coalescing hot path of
``repro.hw.isa``.

As with the other wall-clock gates, the ratio comparison only applies
when ``BENCH_perf.json`` was recorded on this host (platform string
match).  The structural assertions -- observable equivalence and the
collapsed events-per-instruction count -- run everywhere.
"""

import os

import pytest

from repro.perf.bench import load_bench_baseline, same_host
from repro.perf.isabench import bench_isa

pytestmark = pytest.mark.perf

BENCH_FILE = os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")

#: Aggregate speedup must stay above this fraction of the committed value.
FLOOR_RATIO = 0.9


@pytest.fixture(scope="module")
def measured():
    # bench_isa already pairs repeats and keeps the best ratio per
    # kernel; one harness call is the whole measurement.
    return bench_isa(repeats=3)


def test_block_mode_is_observably_identical(measured, report):
    report.append(
        f"[ISA] block vs reference speedup {measured['speedup']}x "
        f"(events/instr {measured['events_per_instr_reference']} -> "
        f"{measured['events_per_instr_block']})"
    )
    assert measured["identical"], (
        "block-mode run diverged from the reference interpreter: "
        + ", ".join(r["kernel"] for r in measured["kernels"]
                    if not r["identical"])
    )


def test_block_mode_collapses_event_count(measured):
    """The coalescing win must be structural, not just wall-clock: far
    fewer engine events per retired instruction in block mode."""
    assert (measured["events_per_instr_block"]
            < measured["events_per_instr_reference"] / 2)


def test_isa_speedup_no_regression(measured):
    baseline = load_bench_baseline(BENCH_FILE)
    if baseline is None:
        pytest.skip("no BENCH_perf.json baseline to compare against")
    if "isa" not in baseline:
        pytest.skip("BENCH_perf.json has no isa section yet")
    if not same_host(baseline):
        pytest.skip("BENCH_perf.json was recorded on a different host")
    committed = baseline["isa"]["speedup"]
    floor = FLOOR_RATIO * committed
    assert measured["speedup"] >= floor, (
        f"ISA block-mode speedup {measured['speedup']}x fell below "
        f"{FLOOR_RATIO:.0%} of the committed {committed}x -- regenerate "
        f"BENCH_perf.json via `repro-perf bench --isa-only --out "
        f"BENCH_perf.json` if this is an intentional trade-off, otherwise "
        f"find the hot-path regression in repro.hw.isa"
    )
