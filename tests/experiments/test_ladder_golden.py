"""Golden outputs of every experiment entry point on the fidelity ladder.

Each digest covers the exact (``repr``) result of one entry point that
builds a rung and reads it back at full scale: a Figure-4 cell on all
three rungs, the ``prototype_response_s`` rows (including the knobs only
some rungs model: the MPIC acknowledge timeout and the kernel costs),
the TLM calibration anchors, the side-by-side validation and the
deterministic fields of an instrumented prototype run.  The values are
pinned, so a refactor of how rungs are built or read out must leave
every one of them unchanged.
"""

import hashlib

import pytest

from repro.analysis import assign_promotions, partition
from repro.core.task import AperiodicTask, PeriodicTask, TaskSet
from repro.experiments.figure4 import run_cell
from repro.experiments.runner import prototype_response_s, prototype_run_report
from repro.kernel.costs import KernelCosts
from repro.simulators.tlm import anchor_prototype_reference, anchor_tlm_run
from repro.simulators.validation import validate

#: ``tests/experiments/test_figure4.py``'s fast cell parameters.
FAST = dict(scale=1_000, arrival_phases_s=(1.0,), horizon_margin_s=16.0)
#: A kernel whose context switches cost a thousand times the default
#: (``context_cost_sweep``'s largest multiplier).
COSTLY = KernelCosts(context_primitive=KernelCosts().context_primitive * 1_000,
                     regfile_words=KernelCosts().regfile_words * 1_000)

GOLDEN = {
    "run_cell.theoretical": "fe87984b2386446c",
    "run_cell.tlm": "21cc9b88064be815",
    "run_cell.prototype": "b76823d1c6eb6978",
    "response.theoretical": "8a15af021a588fe9",
    "response.tlm": "b430b7c69e1acf04",
    "response.prototype": "96fc72402707b0fb",
    "response.tlm.costs": "36e37f73fd6fd3cf",
    "response.prototype.costs": "4a13cac7196dda44",
    "response.tlm.3P50": "58cbf315ecb64c4b",
    "response.prototype.3P50.mpic": "27e08ad8c15c2072",
    "anchor.prototype": "27d3426d91b4fea1",
    "anchor.tlm": "fba336f8d716e7fe",
    "validate": "db7392425c977ff6",
    # The kernel counters include "spurious_irqs" (0 on this run).
    "run_report": "b5f3c33901782fd3",
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.mark.parametrize("fidelity", ["theoretical", "tlm", "prototype"])
def test_run_cell(fidelity):
    cell = run_cell(2, 0.40, fidelity=fidelity, **FAST)
    assert digest(cell) == GOLDEN[f"run_cell.{fidelity}"]


#: (test id, golden key, arguments).  Rows that share a golden key must
#: be equal: the kernel costs reach only the tlm and prototype rungs, the
#: MPIC acknowledge timeout only the prototype (at 3P/50 % a 25-cycle
#: timeout fires once).
RESPONSE_CASES = [
    ("theoretical", "theoretical", dict(fidelity="theoretical")),
    ("tlm", "tlm", dict(fidelity="tlm")),
    ("prototype", "prototype", dict(fidelity="prototype")),
    ("theoretical-costs", "theoretical", dict(fidelity="theoretical", costs=COSTLY)),
    ("tlm-costs", "tlm.costs", dict(fidelity="tlm", costs=COSTLY)),
    ("prototype-costs", "prototype.costs", dict(fidelity="prototype", costs=COSTLY)),
    ("tlm-3P50", "tlm.3P50", dict(fidelity="tlm", n_cpus=3, utilization=0.50)),
    ("tlm-3P50-mpic", "tlm.3P50", dict(fidelity="tlm", n_cpus=3, utilization=0.50,
                                       mpic_ack_timeout=25)),
    ("prototype-3P50-mpic", "prototype.3P50.mpic",
     dict(fidelity="prototype", n_cpus=3, utilization=0.50, mpic_ack_timeout=25)),
]


@pytest.mark.parametrize("key, kwargs", [case[1:] for case in RESPONSE_CASES],
                         ids=[case[0] for case in RESPONSE_CASES])
def test_prototype_response_s(key, kwargs):
    row = prototype_response_s(**dict(dict(n_cpus=2, utilization=0.40,
                                           horizon_margin_s=14.0), **kwargs))
    assert digest(sorted(row.items())) == GOLDEN[f"response.{key}"]


def test_anchors():
    reference = anchor_prototype_reference(2, 0.40)
    tlm = anchor_tlm_run(2, 0.40)
    assert digest(reference) == GOLDEN["anchor.prototype"]
    assert digest(tlm) == GOLDEN["anchor.tlm"]


def test_validate():
    """``tests/simulators/test_validation.py``'s fixture."""
    tick = 100_000
    ts = TaskSet(
        [
            PeriodicTask(name="a", wcet=200_000, period=2_000_000),
            PeriodicTask(name="b", wcet=300_000, period=3_000_000),
        ],
        [AperiodicTask(name="evt", wcet=400_000)],
    ).with_deadline_monotonic_priorities()
    ts = assign_promotions(partition(ts, 2), 2, tick=tick)
    result = validate(ts, 2, tick=tick, horizon=12_000_000, scale=10,
                      aperiodic_arrivals={"evt": [1_000_000]})
    assert digest(result) == GOLDEN["validate"]


def test_prototype_run_report():
    report = prototype_run_report(n_cpus=2, utilization=0.40,
                                  horizon_margin_s=12.0)
    fields = (
        sorted(report.kernel.items()),
        report.metric("aperiodic_response_s"),
        report.metric("deadline_misses"),
        report.trace,
    )
    assert digest(fields) == GOLDEN["run_report"]
