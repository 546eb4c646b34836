"""The invariant registry: each registered invariant as one tier-1 test
(carrying its tier's marker), plus the runner's wiring against a fake
registry."""

import io

import pytest

from repro import invariants

REGISTERED = invariants.registry()


@pytest.mark.parametrize("invariant", [
    pytest.param(fn, id=fn.__name__, marks=getattr(pytest.mark, tier))
    for tier, fn in REGISTERED
])
def test_invariant(invariant):
    invariant()


def test_registered_names_are_unique():
    names = [fn.__name__ for _, fn in REGISTERED]
    assert len(names) == len(set(names))


def run(tiers=None):
    out = io.StringIO()
    code = invariants.run(tiers, out=out)
    return code, out.getvalue().splitlines()


def test_run_filters_by_tier(fake_registry):
    calls, _ = fake_registry
    assert run(["perf", "faults"])[0] == 0
    assert calls == ["perf_ok", "faults_ok"]
    calls.clear()
    assert run()[0] == 0
    assert calls == ["lint_ok", "perf_ok", "obs_ok", "faults_ok"]


def test_unknown_tier_rejected():
    with pytest.raises(ValueError):
        invariants.registry(["nope"])


def test_failing_and_raising_invariants_do_not_stop_the_rest(fake_registry):
    calls, install = fake_registry
    install("perf", perf_fails=AssertionError("jobs differ"),
            perf_raises=KeyError("cpu"), perf_after=None)
    code, lines = run(["perf", "obs"])
    assert code == 1
    assert calls == ["perf_fails", "perf_raises", "perf_after", "obs_ok"]
    assert lines[0] == "FAIL perf_fails: jobs differ"
    assert lines[1].startswith("FAIL perf_raises: KeyError: 'cpu' (")
    assert lines[2:] == ["ok   perf_after", "ok   obs_ok",
                         "self-check: FAIL (2 failure(s))"]


def test_summary_line(fake_registry):
    _, install = fake_registry
    assert run(["lint"]) == (0, ["ok   lint_ok",
                                 "self-check: PASS (0 failure(s))"])
    install("lint")
    assert run(["lint"]) == (0, ["self-check: PASS (0 failure(s))"])
