"""One aperiodic-arrival merge for every rung (repro.simulators.abstract)."""

import pytest

from repro.analysis import assign_promotions, partition
from repro.core.task import AperiodicTask, PeriodicTask, TaskSet
from repro.simulators import FIDELITIES, PrototypeConfig, make_simulator
from repro.simulators.abstract import merge_arrivals


def tasks():
    ts = TaskSet(
        [PeriodicTask(name="p", wcet=10_000, period=100_000)],
        [AperiodicTask(name="a", wcet=5_000, arrivals=(20_000, 40_000)),
         AperiodicTask(name="b", wcet=5_000)],
    )
    return assign_promotions(partition(ts, 2), 2, tick=10_000)


def test_extra_times_follow_the_tasks_own():
    merged = merge_arrivals(tasks(), {"b": [5], "a": [7]})
    assert merged == {"a": [20_000, 40_000, 7], "b": [5]}
    assert merge_arrivals(tasks()) == {"a": [20_000, 40_000], "b": []}
    with pytest.raises(KeyError):
        merge_arrivals(tasks(), {"nowhere": [0]})


@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_every_rung_rejects_arrivals_for_a_periodic_task(fidelity):
    with pytest.raises(TypeError, match="not an aperiodic task"):
        make_simulator(tasks(), PrototypeConfig(n_cpus=2, fidelity=fidelity),
                       aperiodic_arrivals={"p": [0]})
