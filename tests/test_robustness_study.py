"""Tests for repro.experiments.robustness_study and its caching contract."""

import dataclasses
import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.driver import run_driver
from repro.experiments.robustness_study import (
    ROBUSTNESS_AXES,
    RobustnessRow,
    RobustnessStudyConfig,
    RobustnessStudyDriver,
    format_robustness_table,
    _impairments_for,
)
from repro.parallel import ParallelRunner, ResultCache


@pytest.fixture
def quick_config():
    return RobustnessStudyConfig.quick()


class TestConfigAndTasks:
    def test_tasks_cover_every_axis_point(self, quick_config):
        tasks = RobustnessStudyDriver().tasks(quick_config)
        expected = sum(
            len(grid)
            for grid in (
                quick_config.correlation_grid,
                quick_config.velocity_grid_mps,
                quick_config.csi_error_grid,
                quick_config.interference_grid,
            )
        )
        assert len(tasks) == expected
        assert {task.key[1] for task in tasks} == set(ROBUSTNESS_AXES)

    def test_shard_config_restricted_to_its_own_point(self, quick_config):
        for task in RobustnessStudyDriver().tasks(quick_config):
            axis, value = task.key[1], task.key[2]
            config = task.kwargs["config"]
            grids = {
                "correlation": config.correlation_grid,
                "doppler": config.velocity_grid_mps,
                "csi-error": config.csi_error_grid,
                "interference": config.interference_grid,
            }
            assert grids.pop(axis) == (value,)
            assert all(grid == () for grid in grids.values())

    def test_shard_rejects_multi_point_grids(self, quick_config):
        with pytest.raises(ConfigurationError):
            RobustnessStudyDriver().tasks(quick_config)[0].fn(
                config=quick_config, axis="correlation"
            )

    def test_impairments_for_each_axis(self, quick_config):
        assert _impairments_for(quick_config, "correlation", 0.5).rx_correlation == 0.5
        doppler = _impairments_for(quick_config, "doppler", 30.0)
        assert 0.0 < doppler.temporal_correlation < 1.0
        assert _impairments_for(quick_config, "csi-error", 0.1).csi_error_variance == 0.1
        assert (
            _impairments_for(quick_config, "interference", 2.0).interference_power == 2.0
        )
        with pytest.raises(ConfigurationError):
            _impairments_for(quick_config, "rainfall", 1.0)


class TestStudy:
    def test_quick_run_structure(self, quick_config):
        rows = run_driver(RobustnessStudyDriver(), quick_config)
        assert len(rows) == len(RobustnessStudyDriver().tasks(quick_config))
        for row in rows:
            assert isinstance(row, RobustnessRow)
            assert 0.0 <= row.hybrid_ber <= 1.0
            assert 0.0 <= row.hybrid_optimum_rate <= 1.0
            assert row.hybrid_time_us > 0
            assert row.channel_uses == quick_config.channel_uses_per_point

    def test_parallel_matches_serial_bitwise(self, quick_config):
        serial = run_driver(RobustnessStudyDriver(), quick_config)
        parallel = run_driver(RobustnessStudyDriver(), quick_config, workers=2)
        assert serial == parallel

    def test_batch_size_invariant(self, quick_config):
        whole = run_driver(RobustnessStudyDriver(), quick_config)
        chunked = run_driver(
            RobustnessStudyDriver(),
            dataclasses.replace(quick_config, batch_size=1)
        )
        assert whole == chunked

    def test_format_table_lists_every_axis(self, quick_config):
        rows = run_driver(RobustnessStudyDriver(), quick_config)
        table = format_robustness_table(rows)
        for label in ("spatial correlation", "velocity", "CSI error", "interference"):
            assert label in table


class TestSelectiveInvalidation:
    """The caching contract the robustness study relies on.

    Editing one grid point of one axis must re-key exactly that point:
    every untouched point's fingerprint — and therefore its cache entry —
    stays stable.
    """

    def test_fingerprints_stable_when_an_untouched_point_changes(self, quick_config):
        base = {
            task.key: task.fingerprint() for task in RobustnessStudyDriver().tasks(quick_config)
        }
        edited = dataclasses.replace(
            quick_config,
            csi_error_grid=quick_config.csi_error_grid[:-1] + (0.7,),
        )
        changed = {task.key: task.fingerprint() for task in RobustnessStudyDriver().tasks(edited)}

        stale = ("robustness", "csi-error", quick_config.csi_error_grid[-1])
        fresh = ("robustness", "csi-error", 0.7)
        assert stale in base and stale not in changed
        assert fresh in changed and fresh not in base
        for key, fingerprint in changed.items():
            if key != fresh:
                assert base[key] == fingerprint, f"untouched point {key} re-keyed"

    def test_batch_size_is_outside_the_fingerprint(self, quick_config):
        base = [task.fingerprint() for task in RobustnessStudyDriver().tasks(quick_config)]
        rechunked = [
            task.fingerprint()
            for task in RobustnessStudyDriver().tasks(
                dataclasses.replace(quick_config, batch_size=1)
            )
        ]
        assert base == rechunked

    def test_cached_rerun_recomputes_only_the_edited_point(
        self, quick_config, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(cache=cache)
        first = runner.run_sharded(RobustnessStudyDriver().tasks(quick_config))
        assert runner.last_run.cache_misses == len(first)

        edited = dataclasses.replace(
            quick_config,
            interference_grid=quick_config.interference_grid[:-1] + (5.0,),
        )
        cache.reset_counters()
        second = runner.run_sharded(RobustnessStudyDriver().tasks(edited))
        assert runner.last_run.cache_misses == 1
        assert runner.last_run.cache_hits == len(second) - 1
        # The edited point is the sweep's last task; every untouched row
        # replays bitwise from the cache.
        assert second[:-1] == first[:-1]
        assert second[-1].value == 5.0

    def test_corrupt_cache_entry_recomputes_that_point(self, quick_config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(cache=cache)
        tasks = RobustnessStudyDriver().tasks(quick_config)
        first = runner.run_sharded(tasks)

        # Truncate one entry mid-pickle and scribble over another: both
        # classes of damage must evict-and-recompute, not crash or replay.
        truncated = cache._path(tasks[0].fingerprint())
        truncated.write_bytes(truncated.read_bytes()[:10])
        scribbled = cache._path(tasks[1].fingerprint())
        scribbled.write_bytes(b"not a pickle at all")

        cache.reset_counters()
        second = runner.run_sharded(tasks)
        assert second == first
        assert runner.last_run.cache_misses == 2
        assert runner.last_run.cache_hits == len(tasks) - 2
        # The evicted entries were rewritten with good values.
        assert pickle.loads(truncated.read_bytes()) == first[0]
        assert pickle.loads(scribbled.read_bytes()) == first[1]


class TestDegradation:
    """Impairments must actually hurt: the physics smoke test."""

    def test_csi_error_degrades_or_preserves_ber(self):
        config = dataclasses.replace(
            RobustnessStudyConfig.quick(), csi_error_grid=(0.0, 0.5)
        )
        rows = {
            row.value: row
            for row in run_driver(RobustnessStudyDriver(), config)
            if row.axis == "csi-error"
        }
        assert rows[0.5].hybrid_ber >= rows[0.0].hybrid_ber

    def test_zero_points_are_clean_baselines(self, quick_config):
        for axis in ("correlation", "csi-error", "interference"):
            assert _impairments_for(quick_config, axis, 0.0).is_identity
        # Zero velocity is not the identity but the *static* channel: the
        # Jakes coefficient at v=0 is 1, so a stationary user's blocks cohere.
        static = _impairments_for(quick_config, "doppler", 0.0)
        assert static.temporal_correlation == pytest.approx(1.0)
