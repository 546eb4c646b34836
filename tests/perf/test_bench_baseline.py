"""Loading the committed bench results and matching their host
(repro.perf.bench.load_bench_baseline / same_host)."""

import json
import platform

import pytest

from repro.obs.bench import load_baseline_cell_s
from repro.perf.bench import load_bench_baseline, same_host

pytestmark = pytest.mark.perf


def write(path, payload):
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return str(path)


def test_missing_or_malformed_file_is_no_baseline(tmp_path):
    assert load_bench_baseline(str(tmp_path / "absent.json")) is None
    assert load_bench_baseline(write(tmp_path / "bad.json", "{not json")) is None


def test_same_host_matches_the_platform_string(tmp_path):
    here = load_bench_baseline(write(tmp_path / "here.json",
                                     {"host": {"platform": platform.platform()}}))
    assert same_host(here)
    assert not same_host({"host": {"platform": "elsewhere"}})
    assert not same_host({})


def test_cell_baseline_uses_the_shared_loader(tmp_path):
    figure4 = {"serial_s": 6.0, "cells": 3}
    here = write(tmp_path / "here.json",
                 {"host": {"platform": platform.platform()}, "figure4": figure4})
    cell = load_baseline_cell_s(here)
    assert cell["cell_s"] == 2.0 and cell["host_matches"]
    other = write(tmp_path / "other.json",
                  {"host": {"platform": "elsewhere"}, "figure4": figure4})
    assert not load_baseline_cell_s(other)["host_matches"]
    assert load_baseline_cell_s(write(tmp_path / "no_fig.json", {"host": {}})) is None
    assert load_baseline_cell_s(str(tmp_path / "absent.json")) is None
