"""Benchmark: event-engine throughput regression gate.

``repro-perf bench`` records sustained engine throughput in
``BENCH_perf.json``; this gate re-measures the same micro-benchmark
(``bench_engine``, the timeout/interrupt mix full-system runs produce)
and fails if throughput fell below ``FLOOR_RATIO`` of the committed
number -- the tripwire for accidental hot-path regressions in
``repro.sim``.

As with the obs overhead gate, the wall-clock comparison only applies
when ``BENCH_perf.json`` was recorded on this host (platform string
match); cross-host ratios are noise, not regressions.  The
determinism assertions run everywhere.
"""

import os

import pytest

from repro.perf.bench import bench_engine, load_bench_baseline, same_host

pytestmark = pytest.mark.perf

BENCH_FILE = os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")

#: Throughput must stay above this fraction of the committed value.
FLOOR_RATIO = 0.9


@pytest.fixture(scope="module")
def measured():
    # Best of three: the gate protects against code regressions, not
    # scheduler jitter on a loaded CI box.
    return max((bench_engine() for _ in range(3)),
               key=lambda r: r["events_per_s"])


def test_engine_throughput_no_regression(measured, report):
    report.append(
        f"[Engine] {measured['events']} events in {measured['elapsed_s']} s "
        f"({measured['events_per_s']} events/s)"
    )
    baseline = load_bench_baseline(BENCH_FILE)
    if baseline is None:
        pytest.skip("no BENCH_perf.json baseline to compare against")
    if not same_host(baseline):
        pytest.skip("BENCH_perf.json was recorded on a different host")
    committed = baseline["engine"]["events_per_s"]
    floor = FLOOR_RATIO * committed
    assert measured["events_per_s"] >= floor, (
        f"engine throughput {measured['events_per_s']} events/s fell below "
        f"{FLOOR_RATIO:.0%} of the committed {committed} events/s -- "
        f"regenerate BENCH_perf.json via `repro-perf bench` if this is an "
        f"intentional trade-off, otherwise find the hot-path regression"
    )


def test_engine_event_count_matches_baseline(measured):
    """The workload itself is deterministic: same event count as the
    committed run, or the benchmark is no longer comparing like with
    like."""
    baseline = load_bench_baseline(BENCH_FILE)
    if baseline is None:
        pytest.skip("no BENCH_perf.json baseline to compare against")
    assert measured["events"] == baseline["engine"]["events"]
