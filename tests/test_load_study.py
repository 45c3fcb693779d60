"""Tests for the offered-load sweep experiment (repro.experiments.load_study)."""

import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.load_study import LoadStudyConfig, LoadStudyDriver, format_load_study_table
from repro.experiments.driver import run_driver
from repro.serving import ServingReport


@pytest.fixture(scope="module")
def quick_result():
    return run_driver(LoadStudyDriver(), LoadStudyConfig.quick())


class TestLoadStudy:
    def test_one_row_per_load_factor(self, quick_result):
        config = LoadStudyConfig.quick()
        assert [row.load_factor for row in quick_result.rows] == list(config.load_factors)
        for row in quick_result.rows:
            assert row.offered_load_jobs_per_ms > 0

    def test_detail_is_the_peak_load_serving_report(self, quick_result):
        assert isinstance(quick_result.detail, ServingReport)
        assert quick_result.detail.num_jobs == (
            quick_result.config.num_cells
            * quick_result.config.users_per_cell
            * quick_result.config.jobs_per_user
        )

    def test_pooled_never_misses_more_than_serialized_at_peak(self, quick_result):
        peak = quick_result.rows[-1]
        assert peak.pooled_miss_rate <= peak.serialized_miss_rate + 1e-9

    def test_miss_rates_are_rates(self, quick_result):
        for row in quick_result.rows:
            for value in (
                row.serialized_miss_rate,
                row.pipelined_miss_rate,
                row.pooled_miss_rate,
            ):
                assert 0.0 <= value <= 1.0

    def test_format_table(self, quick_result):
        table = format_load_study_table(quick_result)
        assert "deadline-miss rate vs offered load" in table
        assert "miss(pool)" in table
        assert "pooled serving report" in table

    def test_reproducible(self):
        config = dataclasses.replace(LoadStudyConfig.quick(), load_factors=(2.0,))
        first = run_driver(LoadStudyDriver(), config)
        second = run_driver(LoadStudyDriver(), config)
        assert first.rows == second.rows

    @pytest.mark.parametrize("load_factors", [(), (0.0,), (-1.0,)])
    def test_invalid_load_factors(self, load_factors):
        # The config rejects itself, so no entry point can run it.
        with pytest.raises(ConfigurationError):
            dataclasses.replace(LoadStudyConfig.quick(), load_factors=load_factors)
