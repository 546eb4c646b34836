"""Fidelity-ladder threading: selector, cache keys, sweep columns.

Guards the invariant that runs of *different* simulation rungs can
never alias each other in the run cache, and that mixed-fidelity
sweeps stay legible (fidelity and wall-time columns survive the CSV
round trip).
"""

import csv
import io

import pytest

from repro import TICK
from repro.experiments.figure4 import _cell_key
from repro.experiments.runner import (
    SweepResult,
    fault_campaign,
    prototype_response_s,
    sweep,
)
from repro.perf.cache import cache_key
from repro.simulators import (
    FIDELITIES,
    PrototypeConfig,
    PrototypeSimulator,
    Readout,
    TheoreticalSimulator,
    TLMSimulator,
    make_simulator,
)
from repro.workloads.automotive import build_automotive_taskset, prepare_taskset


def _taskset(n_cpus=2, utilization=0.40):
    return prepare_taskset(
        build_automotive_taskset(utilization, n_cpus), n_cpus, tick=TICK
    )


class TestCacheKeys:
    def test_figure4_cells_distinct_per_fidelity(self):
        """Regression: a TLM figure-4 cell must never alias the
        prototype result for the same (n_cpus, utilization, scale)."""
        keys = {_cell_key(2, 0.40, 1_000, fidelity) for fidelity in FIDELITIES}
        assert len(keys) == len(FIDELITIES)

    def test_sweep_keys_distinct_per_fidelity(self):
        point = {"n_cpus": 2, "utilization": 0.40}
        keys = {
            cache_key(kind="sweep", tag="t", point=dict(point, fidelity=f))
            for f in FIDELITIES
        }
        assert len(keys) == len(FIDELITIES)

    def test_version_partitions_keys(self, monkeypatch):
        """Pre-ladder cache entries are invalidated by the version
        bump: the package version is part of every key."""
        key_now = cache_key(kind="sweep", tag="t", point={"x": 1})
        monkeypatch.setattr("repro.perf.cache.__version__", "1.1.0")
        key_old = cache_key(kind="sweep", tag="t", point={"x": 1})
        assert key_now != key_old


class TestSweepFidelityColumns:
    @staticmethod
    def _measure(x, fidelity):
        return {"y": x * 10}

    def test_fidelity_is_a_parameter_column(self):
        result = sweep(self._measure, {"x": [1, 2]}, fidelity="tlm")
        assert result.parameters == ["x", "fidelity"]
        assert result.column("fidelity") == ["tlm", "tlm"]
        assert "fidelity" in result.format().splitlines()[0]

    def test_wall_time_column(self):
        result = sweep(self._measure, {"x": [1]}, fidelity="tlm",
                       record_timing=True)
        assert result.rows[0]["wall_time_s"] >= 0.0

    def test_csv_round_trip(self):
        result = sweep(self._measure, {"x": [1, 2]}, fidelity="theoretical",
                       record_timing=True)
        parsed = list(csv.DictReader(io.StringIO(result.to_csv())))
        assert len(parsed) == len(result.rows)
        for row, original in zip(parsed, result.rows):
            assert row["fidelity"] == original["fidelity"]
            assert int(row["x"]) == original["x"]
            assert int(row["y"]) == original["y"]
            assert float(row["wall_time_s"]) == original["wall_time_s"]

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            sweep(self._measure, {"x": [1]}, fidelity="rtl")

    def test_fidelity_grid_conflict_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            sweep(self._measure, {"fidelity": ["tlm"]}, fidelity="tlm")

    def test_no_fidelity_keeps_legacy_shape(self):
        result = sweep(lambda x: {"y": x}, {"x": [3]})
        assert result.parameters == ["x"]
        assert "fidelity" not in result.rows[0]
        assert "wall_time_s" not in result.rows[0]


class TestMeasureDispatch:
    def test_tlm_and_theoretical_rungs(self):
        rows = {
            f: prototype_response_s(n_cpus=2, utilization=0.40,
                                    horizon_margin_s=14.0, fidelity=f)
            for f in ("theoretical", "tlm")
        }
        for row in rows.values():
            assert row["response_s"] > 0
            assert row["misses"] == 0
        # The TLM rung models contention the theoretical rung ignores.
        assert rows["tlm"]["tlm_transactions"] > 0
        assert rows["tlm"]["response_s"] > rows["theoretical"]["response_s"]

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            prototype_response_s(fidelity="gate-level")

    def test_fault_campaign_requires_prototype(self):
        """Campaigns drive the prototype only: there is no rung to pick."""
        with pytest.raises(TypeError, match="fidelity"):
            fault_campaign(n_runs=1, until=100_000, fidelity="tlm")


class TestMakeSimulator:
    def test_dispatch(self):
        taskset = _taskset()
        expected = {
            "theoretical": TheoreticalSimulator,
            "tlm": TLMSimulator,
            "prototype": PrototypeSimulator,
        }
        for fidelity, cls in expected.items():
            sim = make_simulator(fidelity, taskset, 2, tick=TICK, scale=1_000)
            assert isinstance(sim, cls)

    def test_config_validates_fidelity(self):
        """The rung is an argument of make_simulator, validated there."""
        with pytest.raises(ValueError, match="fidelity"):
            make_simulator("spice", _taskset(), 2)

    def test_prototype_rejects_other_rungs(self):
        """The prototype's config names no rung, and its workload scale
        reaches the prototype only: the other rungs run at full scale."""
        with pytest.raises(TypeError, match="fidelity"):
            PrototypeConfig(n_cpus=2, tick=TICK, fidelity="tlm")
        taskset = _taskset()
        for fidelity in FIDELITIES:
            sim = make_simulator(fidelity, taskset, 2, tick=TICK, scale=1_000)
            expected = 1_000 if fidelity == "prototype" else 1
            assert Readout(sim, 10 * TICK).scale == expected
