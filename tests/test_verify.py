"""repro-verify: gate selection and exit-code semantics, against a fake
invariant registry."""

import pytest

from repro import verify


def no_tier1(**kwargs):
    pytest.fail("tier1 must not run")


def test_all_gates_pass(fake_registry, monkeypatch, capsys):
    calls, _ = fake_registry
    monkeypatch.setattr(verify, "run_tier1", lambda **kw: 0)
    assert verify.main([]) == 0
    # Tier-1 already runs every invariant once; nothing runs after it.
    assert calls == []
    out = capsys.readouterr().out
    assert "verify: PASS" in out and "tier1" in out


def test_tier1_failure_fails_the_run(fake_registry, monkeypatch, capsys):
    monkeypatch.setattr(verify, "run_tier1", lambda **kw: 2)
    assert verify.main([]) == 1
    assert "verify: FAIL" in capsys.readouterr().out


def test_any_self_check_failure_fails_the_run(fake_registry, monkeypatch,
                                              capsys):
    calls, install = fake_registry
    install("obs", obs_broken=AssertionError("boom"))
    monkeypatch.setattr(verify, "run_tier1", no_tier1)
    assert verify.main(["--skip-tier1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL obs_broken: boom" in out and "verify: FAIL" in out
    # A failing invariant must not stop the later tiers from running.
    assert calls == ["lint_ok", "perf_ok", "obs_broken", "faults_ok"]


def test_skip_tier1_runs_only_self_checks(fake_registry, monkeypatch):
    calls, _ = fake_registry
    monkeypatch.setattr(verify, "run_tier1", no_tier1)
    assert verify.main(["--skip-tier1"]) == 0
    assert calls == ["lint_ok", "perf_ok", "obs_ok", "faults_ok"]


def test_only_selects_a_subset_and_skips_tier1(fake_registry, monkeypatch):
    calls, _ = fake_registry
    monkeypatch.setattr(verify, "run_tier1", no_tier1)
    assert verify.main(["--only", "perf", "obs"]) == 0
    assert calls == ["perf_ok", "obs_ok"]


def test_list_mode_runs_nothing(fake_registry, monkeypatch, capsys):
    calls, install = fake_registry
    install("faults")
    monkeypatch.setattr(verify, "run_tier1", no_tier1)
    assert verify.main(["--list"]) == 0
    assert calls == []
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("tier1   : ")
    assert lines[1:] == ["lint    : lint_ok", "perf    : perf_ok",
                         "obs     : obs_ok", "faults  : (no invariants)"]
    assert verify.main(["--only", "obs", "--list"]) == 0
    assert capsys.readouterr().out.splitlines() == ["obs     : obs_ok"]


def test_unknown_check_rejected(fake_registry):
    with pytest.raises(SystemExit):
        verify.main(["--only", "nope"])


def test_run_tier1_builds_pythonpath(monkeypatch, tmp_path):
    recorded = {}

    class Completed:
        returncode = 0

    def fake_run(command, cwd=None, env=None):
        recorded.update(command=command, cwd=cwd, env=env)
        return Completed()

    monkeypatch.setattr(verify.subprocess, "run", fake_run)
    monkeypatch.delenv("PYTHONPATH", raising=False)
    assert verify.run_tier1(pytest_args=["-x"], repo_root=str(tmp_path)) == 0
    assert recorded["command"][-1] == "-x"
    assert recorded["cwd"] == str(tmp_path)
    assert recorded["env"]["PYTHONPATH"] == str(tmp_path / "src")
