"""Tests for the city-scale network capacity study and its serving rewiring.

The contracts under test: the study's reactive placement beats the static
equal split on a flash crowd while the oracle bounds both; the sweep is
bitwise-identical serial vs sharded and replays from the shard cache with
restart-stable fingerprints; the aggregate counter sampler scales without
materialising users.
"""

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.network_study import (
    NetworkStudyConfig,
    NetworkStudyDriver,
    format_network_table,
)
from repro.experiments.driver import run_driver
from repro.network.aggregate import AggregationConfig, cell_window_counts, materialize_cell_jobs
from repro.parallel import ResultCache
from repro.parallel.cache import task_fingerprint
from repro.serving import build_scenario
from repro.wireless.mimo import MIMOConfig


@pytest.fixture(scope="module")
def quick_result():
    return run_driver(NetworkStudyDriver(), NetworkStudyConfig.quick())


def _row(result, placement):
    return next(row for row in result.rows if row.placement == placement)


# ---------------------------------------------------------------------- #
# Study outcomes
# ---------------------------------------------------------------------- #


class TestNetworkStudy:
    def test_one_row_per_placement_in_order(self, quick_result):
        config = NetworkStudyConfig.quick()
        assert [row.placement for row in quick_result.rows] == list(config.placements)
        for row in quick_result.rows:
            assert row.num_cells == config.num_cells
            assert row.simulated_users == config.simulated_users
            assert row.jobs_offered > 0
            assert 0.0 <= row.miss_rate <= 1.0

    def test_reactive_beats_static_and_oracle_bounds_both(self, quick_result):
        static = _row(quick_result, "static")
        reactive = _row(quick_result, "reactive")
        oracle = _row(quick_result, "oracle")
        assert static.miss_rate > 0  # the flash crowd overwhelms equal split
        assert reactive.miss_rate <= 0.5 * static.miss_rate
        assert oracle.miss_rate <= reactive.miss_rate

    def test_reactive_detects_the_flash_crowd(self, quick_result):
        reactive = _row(quick_result, "reactive")
        assert reactive.hotspot_raises >= 1
        assert reactive.detection_latency_windows >= 1
        assert reactive.false_positive_raises == 0
        assert reactive.capacity_moved > 0
        assert reactive.detail_jobs > 0

    def test_static_and_oracle_never_move_capacity(self, quick_result):
        assert _row(quick_result, "static").capacity_moved == 0.0
        assert _row(quick_result, "oracle").capacity_moved == 0.0

    def test_format_table(self, quick_result):
        table = format_network_table(quick_result)
        assert "static vs reactive vs oracle" in table
        assert "grid topology" in table
        for row in quick_result.rows:
            assert row.placement in table

    def test_reproducible(self, quick_result):
        again = run_driver(NetworkStudyDriver(), NetworkStudyConfig.quick())
        assert again.rows == quick_result.rows

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkStudyConfig(placements=("static", "mystery"))


class TestNetworkStudyDeterminism:
    def test_sharded_run_is_bitwise_identical_to_serial(self, quick_result):
        config = NetworkStudyConfig.quick()
        parallel = run_driver(NetworkStudyDriver(), config, workers=2)
        assert parallel.rows == quick_result.rows
        assert format_network_table(parallel) == format_network_table(quick_result)

    def test_task_fingerprints_are_restart_stable(self):
        config = NetworkStudyConfig.quick()
        first = [
            task_fingerprint(task.fn, task.kwargs, key=task.key)
            for task in NetworkStudyDriver().tasks(config)
        ]
        second = [
            task_fingerprint(task.fn, task.kwargs, key=task.key)
            for task in NetworkStudyDriver().tasks(config)
        ]
        assert first == second
        assert len(set(first)) == len(first)

    def test_cached_rerun_is_all_hits_and_identical(self, tmp_path, quick_result):
        config = NetworkStudyConfig.quick()
        cache = ResultCache(tmp_path / "cache")
        num_shards = len(NetworkStudyDriver().tasks(config))

        cold = run_driver(NetworkStudyDriver(), config, cache=cache)
        assert cache.misses == num_shards and cache.hits == 0

        cache = ResultCache(tmp_path / "cache")  # a fresh handle counts from zero
        warm = run_driver(NetworkStudyDriver(), config, cache=cache)
        assert cache.hits == num_shards and cache.misses == 0
        assert warm.rows == cold.rows == quick_result.rows

    def test_placement_restriction_reuses_the_shared_arm(self, tmp_path):
        config = NetworkStudyConfig.quick()
        cache = ResultCache(tmp_path / "cache")
        run_driver(NetworkStudyDriver(), config, cache=cache)

        cache = ResultCache(tmp_path / "cache")  # a fresh handle counts from zero
        only_static = dataclasses.replace(config, placements=("static",))
        narrowed = run_driver(NetworkStudyDriver(), only_static, cache=cache)
        assert cache.hits == 1 and cache.misses == 0
        assert narrowed.rows[0].placement == "static"


# ---------------------------------------------------------------------- #
# Aggregate traffic sampling
# ---------------------------------------------------------------------- #


class TestAggregation:
    def test_counter_matrix_shape_and_determinism(self):
        aggregation = AggregationConfig(users_per_cell=1000, window_us=500.0)
        scenario = build_scenario("flash-crowd", num_cells=9, horizon_us=10_000.0)
        first = cell_window_counts(scenario, aggregation, rng=3)
        second = cell_window_counts(scenario, aggregation, rng=3)
        assert first.shape == (20, 9)
        assert first.dtype == np.int64
        assert np.array_equal(first, second)

    def test_city_scale_population_never_materialises_users(self):
        # A million-user city is sampled as counters: memory is the counter
        # matrix, not the population.
        aggregation = AggregationConfig(users_per_cell=10_000, window_us=500.0)
        scenario = build_scenario("steady", num_cells=100, horizon_us=10_000.0)
        counts = cell_window_counts(scenario, aggregation, rng=0)
        assert counts.shape == (20, 100)
        assert counts.nbytes == 20 * 100 * 8

    def test_materialised_cells_are_independent(self):
        aggregation = AggregationConfig(users_per_cell=200, symbol_period_us=150.0)
        scenario = build_scenario("flash-crowd", num_cells=9, horizon_us=10_000.0)
        configs = [MIMOConfig(2, "QPSK")]
        alone = materialize_cell_jobs(
            scenario, [4], aggregation, configs, max_jobs_per_cell=30
        )
        with_neighbour = materialize_cell_jobs(
            scenario, [3, 4], aggregation, configs, max_jobs_per_cell=30
        )
        arrivals_alone = [job.channel_use.arrival_time_us for job in alone]
        arrivals_paired = [
            job.channel_use.arrival_time_us
            for job in with_neighbour
            if job.cell_id == 4
        ]
        assert arrivals_alone == arrivals_paired
        assert all(job.user_id == job.cell_id for job in with_neighbour)

    def test_materialisation_validates_inputs(self):
        aggregation = AggregationConfig()
        scenario = build_scenario("steady", num_cells=4, horizon_us=5_000.0)
        configs = [MIMOConfig(2, "QPSK")]
        with pytest.raises(ConfigurationError):
            materialize_cell_jobs(scenario, [], aggregation, configs)
        with pytest.raises(ConfigurationError):
            materialize_cell_jobs(scenario, [9], aggregation, configs)
        with pytest.raises(ConfigurationError):
            materialize_cell_jobs(scenario, [1, 1], aggregation, configs)
