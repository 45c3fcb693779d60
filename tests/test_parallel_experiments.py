"""Sharded-driver contracts: parallel == serial, and cache correctness.

Every rewired experiment driver (fig6, fig8, snr, load, scenarios) must
return results bitwise-identical to its serial path at any worker count, and
a cached re-run of the scenario study must reproduce byte-identical reports
while recomputing nothing; changing one shard's seed recomputes exactly that
shard.
"""

import dataclasses


from repro.experiments import (
    Figure6Config,
    Figure6Driver,
    Figure8Config,
    Figure8Driver,
    LoadStudyConfig,
    LoadStudyDriver,
    ScenarioStudyConfig,
    ScenarioStudyDriver,
    SNRStudyConfig,
    SNRStudyDriver,
    format_load_study_table,
    format_scenario_table,
    run_driver,
)
from repro.parallel import ParallelRunner, ResultCache, ShardTask


class TestParallelEqualsSerial:
    def test_figure6(self):
        config = Figure6Config.quick()
        assert run_driver(Figure6Driver(), config, workers=2) == run_driver(Figure6Driver(), config)

    def test_figure8(self):
        config = Figure8Config.quick()
        assert run_driver(Figure8Driver(), config, workers=2) == run_driver(Figure8Driver(), config)

    def test_figure8_with_fr_oracle(self):
        config = dataclasses.replace(Figure8Config.quick(), include_fr_oracle=True)
        assert run_driver(Figure8Driver(), config, workers=2) == run_driver(Figure8Driver(), config)

    def test_snr_study(self):
        driver, config = SNRStudyDriver(), SNRStudyConfig.quick()
        assert run_driver(driver, config, workers=2) == run_driver(driver, config)

    def test_load_study(self):
        config = LoadStudyConfig.quick()
        serial = run_driver(LoadStudyDriver(), config)
        parallel = run_driver(LoadStudyDriver(), config, workers=2)
        assert parallel.rows == serial.rows
        assert format_load_study_table(parallel) == format_load_study_table(serial)

    def test_scenario_study(self):
        config = ScenarioStudyConfig.quick()
        serial = run_driver(ScenarioStudyDriver(), config)
        parallel = run_driver(ScenarioStudyDriver(), config, workers=2)
        assert parallel.rows == serial.rows
        assert format_scenario_table(parallel) == format_scenario_table(serial)


class TestScenarioCacheCorrectness:
    def test_cached_rerun_is_byte_identical_and_all_hits(self, tmp_path):
        config = ScenarioStudyConfig.quick()
        cache = ResultCache(tmp_path / "cache")
        num_shards = len(ScenarioStudyDriver().tasks(config))

        cold = run_driver(ScenarioStudyDriver(), config, cache=cache)
        assert cache.misses == num_shards and cache.hits == 0

        cache = ResultCache(tmp_path / "cache")  # a fresh handle counts from zero
        warm = run_driver(ScenarioStudyDriver(), config, cache=cache)
        assert cache.hits == num_shards and cache.misses == 0
        assert format_scenario_table(warm) == format_scenario_table(cold)
        assert warm.rows == cold.rows

    def test_changed_seed_invalidates_only_the_affected_shard(self, tmp_path):
        config = ScenarioStudyConfig.quick()
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(cache=cache)
        tasks = ScenarioStudyDriver().tasks(config)
        baseline = runner.run_sharded(tasks)

        # Re-seed one scenario arm's workload; every other shard must hit.
        edited = list(tasks)
        kwargs = dict(edited[0].kwargs)
        kwargs["workload_seed"] = kwargs["workload_seed"] + 1
        edited[0] = ShardTask(key=edited[0].key, fn=edited[0].fn, kwargs=kwargs)

        results = runner.run_sharded(edited)
        assert runner.last_run.cache_misses == 1
        assert runner.last_run.cache_hits == len(tasks) - 1
        assert runner.last_run.executed == 1
        # The re-seeded shard genuinely changed; the untouched ones did not.
        assert results[0].outcomes != baseline[0].outcomes
        assert results[1].outcomes == baseline[1].outcomes

    def test_cache_config_sensitivity(self, tmp_path):
        # A plant-parameter change re-keys every shard (the results depend
        # on it); a catalog extension only computes the new scenario.
        config = ScenarioStudyConfig.quick()
        cache = ResultCache(tmp_path / "cache")
        run_driver(ScenarioStudyDriver(), config, cache=cache)

        cache = ResultCache(tmp_path / "cache")  # a fresh handle counts from zero
        extended = dataclasses.replace(config, scenarios=config.scenarios + ("diurnal",))
        run_driver(ScenarioStudyDriver(), extended, cache=cache)
        assert cache.hits == 2 * len(config.scenarios)
        assert cache.misses == 2  # the two new diurnal arms

        cache = ResultCache(tmp_path / "cache")  # a fresh handle counts from zero
        retuned = dataclasses.replace(config, static_workers=config.static_workers + 1)
        run_driver(ScenarioStudyDriver(), retuned, cache=cache)
        assert cache.misses == 2 * len(config.scenarios)

    def test_fig8_method_knobs_invalidate_only_their_method(self, tmp_path):
        # intermediate_initial_quality is read only by the RA family shard;
        # toggling it must leave the FA and FR-oracle shards cached.
        config = dataclasses.replace(
            Figure8Config.quick(), include_fr_oracle=True,
            intermediate_initial_quality=None,
        )
        cache = ResultCache(tmp_path / "cache")
        run_driver(Figure8Driver(), config, cache=cache)
        num_shards = 2 + len(config.grid())

        cache = ResultCache(tmp_path / "cache")  # a fresh handle counts from zero
        toggled = dataclasses.replace(config, intermediate_initial_quality=6.0)
        run_driver(Figure8Driver(), toggled, cache=cache)
        assert cache.misses == 1  # the RA family shard only
        assert cache.hits == num_shards - 1
