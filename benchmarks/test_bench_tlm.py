"""Benchmark: fidelity-ladder (TLM vs prototype) regression gate.

``repro-perf bench`` records the TLM rung's speedup over the
cycle-approximate prototype on the Figure 4 anchor cells in
``BENCH_perf.json``; this gate re-measures the same section and fails
if the speedup fell below ``FLOOR_RATIO`` of the committed number --
the tripwire for accidental slow-downs in ``repro.simulators.tlm``.

The *accuracy* half of the contract is gated unconditionally (no host
match needed): a fast rung that disagrees with the prototype is not an
optimisation, so the anchor verdicts must match and every per-task
WCRT must sit within the calibrated residual of the shipped cost
table.  As with the engine gate, the wall-clock comparison only
applies when ``BENCH_perf.json`` was recorded on this host.
"""

import os

import pytest

from repro.perf.bench import bench_tlm, load_bench_baseline, same_host
from repro.simulators.tlm import DEFAULT_COST_TABLE

pytestmark = pytest.mark.perf

BENCH_FILE = os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")

#: The re-measured speedup must stay above this fraction of the
#: committed value.
FLOOR_RATIO = 0.9

#: The paper-reproduction bar the committed entry itself must clear:
#: the TLM rung earns its place on the ladder by being >= 25x faster
#: than the prototype on every anchor cell.
COMMITTED_SPEEDUP_BAR = 25.0


@pytest.fixture(scope="module")
def measured():
    # bench_tlm is already best-of-N per rung: the gate protects
    # against code regressions, not scheduler jitter on a loaded box.
    return bench_tlm(repeats=3)


def test_tlm_accuracy_contract(measured, report):
    """Verdict + WCRT agreement with the prototype, host-independent."""
    report.append(
        "[TLM] anchors: "
        + "  ".join(
            f"{row['n_cpus']}P/{row['utilization']:.0%} "
            f"tlm {row['tlm_s']} s vs proto {row['prototype_s']} s "
            f"({row['speedup']}x)"
            for row in measured["cells"]
        )
    )
    assert measured["verdicts_match"], (
        "TLM schedulability verdict differs from the prototype on an "
        "anchor cell -- re-run repro-perf calibrate-tlm"
    )
    assert measured["max_wcrt_deviation"] <= measured["residual_bound"], (
        f"per-task WCRT deviation {measured['max_wcrt_deviation']:.1%} "
        f"exceeds the calibrated residual "
        f"{measured['residual_bound']:.1%}"
    )
    assert measured["residual_bound"] == DEFAULT_COST_TABLE.residual


def test_tlm_speedup_no_regression(measured, report):
    baseline = load_bench_baseline(BENCH_FILE)
    if baseline is None or "tlm" not in baseline:
        pytest.skip("no BENCH_perf.json tlm baseline to compare against")
    if not same_host(baseline):
        pytest.skip("BENCH_perf.json was recorded on a different host")
    committed = baseline["tlm"]["min_speedup"]
    floor = FLOOR_RATIO * committed
    report.append(
        f"[TLM] min speedup {measured['min_speedup']}x "
        f"(committed {committed}x, floor {floor:.1f}x)"
    )
    assert measured["min_speedup"] >= floor, (
        f"TLM speedup {measured['min_speedup']}x fell below "
        f"{FLOOR_RATIO:.0%} of the committed {committed}x -- regenerate "
        f"BENCH_perf.json via `repro-perf bench` if this is an "
        f"intentional trade-off, otherwise find the hot-path regression "
        f"in repro.simulators.tlm"
    )


def test_committed_entry_clears_paper_bar():
    """The committed tlm entry itself must document a >= 25x rung with
    the accuracy cross-check green (this is a static check of the
    repository artefact, not a timing)."""
    baseline = load_bench_baseline(BENCH_FILE)
    if baseline is None or "tlm" not in baseline:
        pytest.skip("no BENCH_perf.json tlm baseline to compare against")
    entry = baseline["tlm"]
    assert entry["min_speedup"] >= COMMITTED_SPEEDUP_BAR
    assert entry["accurate"] and entry["verdicts_match"]
    assert entry["max_wcrt_deviation"] <= entry["residual_bound"]
