"""Tests for the paired-arm catalog sweep behind the ``qos`` and ``scenarios`` studies.

Both studies serve every catalog scenario twice, on one generated workload
per scenario.  The task list is the sweep's cache identity and seed tree, so
its keys, arm order and workload seeds are pinned literally here.
"""

import pytest

from repro.experiments import catalog_sweep
from repro.experiments.driver import run_driver
from repro.experiments.qos_study import QoSStudyConfig, QoSStudyDriver
from repro.experiments.scenario_study import ScenarioStudyConfig, ScenarioStudyDriver
from repro.serving.workload import generate_serving_jobs
from repro.wireless import traffic
from repro.wireless.mimo import simulate_transmission

_QUICK_TASKS = {
    "qos": (
        QoSStudyDriver,
        QoSStudyConfig,
        [
            (("qos-study", "steady", "classless"), 2839447784),
            (("qos-study", "steady", "aware"), 2839447784),
            (("qos-study", "busy-day", "classless"), 3515232088),
            (("qos-study", "busy-day", "aware"), 3515232088),
        ],
    ),
    "scenarios": (
        ScenarioStudyDriver,
        ScenarioStudyConfig,
        [
            (("scenario-study", "steady", "static"), 1309019995),
            (("scenario-study", "steady", "autoscaled"), 1309019995),
            (("scenario-study", "flash-crowd", "static"), 2692056563),
            (("scenario-study", "flash-crowd", "autoscaled"), 2692056563),
        ],
    ),
}


@pytest.mark.parametrize("study", sorted(_QUICK_TASKS))
def test_quick_tasks_are_pinned(study):
    driver_class, config_class, expected = _QUICK_TASKS[study]
    config = config_class.quick()
    tasks = driver_class().tasks(config)
    assert [(task.key, task.kwargs["workload_seed"]) for task in tasks] == expected
    for task in tasks:
        _, name, arm = task.key
        assert sorted(task.kwargs) == ["arm", "config", "workload_seed"]
        assert task.kwargs["arm"] == arm
        assert task.kwargs["config"].scenarios == (name,)


@pytest.mark.parametrize("study", sorted(_QUICK_TASKS))
def test_arms_share_one_generated_workload_per_scenario(monkeypatch, study):
    driver_class, config_class, _ = _QUICK_TASKS[study]
    memo = catalog_sweep.catalog_jobs
    calls = []

    def counted(*args, **kwargs):
        calls.append(memo.cache_info().currsize)
        return generate_serving_jobs(*args, **kwargs)

    monkeypatch.setattr(catalog_sweep, "generate_serving_jobs", counted)
    memo.cache_clear()
    config = config_class.quick()
    run_driver(driver_class(), config)
    assert len(calls) == len(config.scenarios)
    # The memo holds one scenario's list at most, before and after.
    assert memo.cache_info().maxsize == 1
    assert max(calls) <= 1 and memo.cache_info().currsize == 1


@pytest.mark.parametrize("study", sorted(_QUICK_TASKS))
def test_serving_only_run_never_simulates_a_channel(monkeypatch, study):
    driver_class, config_class, _ = _QUICK_TASKS[study]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate_transmission(*args, **kwargs)

    monkeypatch.setattr(traffic, "simulate_transmission", counted)
    catalog_sweep.catalog_jobs.cache_clear()
    run_driver(driver_class(), config_class.quick())
    assert calls == []
