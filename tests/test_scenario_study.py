"""Tests for the scenario-catalog sweep (repro.experiments.scenario_study)."""

import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import (
    ScenarioStudyConfig,
    ScenarioStudyDriver,
    format_scenario_table,
    run_driver,
)
from repro.serving import ServingReport


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
            assert config.min_workers <= row.mean_active_workers <= config.max_workers
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
