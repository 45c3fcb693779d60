"""Tests for the scenario-catalog sweep (repro.experiments.scenario_study)."""

import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.scenario_study import (
    ScenarioStudyConfig,
    ScenarioStudyDriver,
    format_scenario_table,
)
from repro.experiments.driver import run_driver
from repro.serving import ServingReport, generate_serving_jobs
from repro.wireless.mimo import simulate_transmission


@pytest.fixture(scope="module")
def quick_result():
    return run_driver(ScenarioStudyDriver(), ScenarioStudyConfig.quick())


class TestScenarioStudy:
    def test_one_row_per_scenario(self, quick_result):
        config = ScenarioStudyConfig.quick()
        assert [row.scenario for row in quick_result.rows] == list(config.scenarios)
        for row in quick_result.rows:
            assert row.num_jobs > 0
            assert row.offered_load_jobs_per_ms > 0

    def test_detail_is_an_autoscaled_serving_report(self, quick_result):
        assert isinstance(quick_result.detail, ServingReport)
        assert "autoscale_average_active" in quick_result.detail.metadata
        assert quick_result.detail.num_jobs == quick_result.rows[-1].num_jobs

    def test_rates_and_worker_counts_are_sane(self, quick_result):
        config = ScenarioStudyConfig.quick()
        for row in quick_result.rows:
            assert 0.0 <= row.static_miss_rate <= 1.0
            assert 0.0 <= row.autoscaled_miss_rate <= 1.0
            assert 0.0 <= row.autoscaled_demotion_rate <= 1.0
            assert 1 <= row.mean_active_workers <= config.max_workers
            assert row.scale_events >= 0

    def test_format_table(self, quick_result):
        table = format_scenario_table(quick_result)
        assert "static vs autoscaled pools" in table
        assert "miss(auto)" in table
        assert "autoscaled serving report" in table
        for row in quick_result.rows:
            assert row.scenario in table

    def test_reproducible(self):
        config = dataclasses.replace(
            ScenarioStudyConfig.quick(), scenarios=("flash-crowd",)
        )
        first = run_driver(ScenarioStudyDriver(), config)
        second = run_driver(ScenarioStudyDriver(), config)
        assert first.rows == second.rows

    def test_arms_share_one_generated_workload_per_scenario(self, monkeypatch):
        from repro.experiments import scenario_study

        calls = []

        def counted(*args, **kwargs):
            calls.append(scenario_study._scenario_jobs.cache_info().currsize)
            return generate_serving_jobs(*args, **kwargs)

        monkeypatch.setattr(scenario_study, "generate_serving_jobs", counted)
        scenario_study._scenario_jobs.cache_clear()
        config = ScenarioStudyConfig.quick()
        run_driver(ScenarioStudyDriver(), config)
        assert len(calls) == len(config.scenarios)
        # The memo holds one scenario's list at most, before and after.
        assert scenario_study._scenario_jobs.cache_info().maxsize == 1
        assert max(calls) <= 1 and scenario_study._scenario_jobs.cache_info().currsize == 1

    def test_serving_only_run_never_simulates_a_channel(self, monkeypatch):
        from repro.experiments import scenario_study
        from repro.wireless import traffic

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return simulate_transmission(*args, **kwargs)

        monkeypatch.setattr(traffic, "simulate_transmission", counted)
        scenario_study._scenario_jobs.cache_clear()
        run_driver(ScenarioStudyDriver(), ScenarioStudyConfig.quick())
        assert calls == []

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(ScenarioStudyConfig.quick(), scenarios=())
        with pytest.raises(ConfigurationError):
            dataclasses.replace(ScenarioStudyConfig.quick(), static_workers=0)
        with pytest.raises(ConfigurationError):
            run_driver(
                ScenarioStudyDriver(),
                dataclasses.replace(ScenarioStudyConfig.quick(), scenarios=("rush-hour",)),
            )
