"""Tests for the repro.parallel subsystem and the sharded experiment drivers.

The contract under test, mirroring the library-wide child-seed discipline one
level up: a sharded sweep's results are **bitwise-identical** to the serial
path at any worker count, cached re-runs return byte-identical reports, and
a change to one shard's seed or configuration invalidates only that shard.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.parallel import (
    ParallelRunner,
    ResultCache,
    ShardTask,
    canonical_token,
    task_fingerprint,
)


# ---------------------------------------------------------------------- #
# Shard functions (module-level so the process pool can pickle them)
# ---------------------------------------------------------------------- #


def _seeded_draw(seed, count):
    rng = np.random.default_rng(seed)
    return rng.random(count)


def _square(value):
    return value * value


def _fail(message):
    raise ValueError(message)


def _slow_fail(message, delay_s=0.3):
    import time

    time.sleep(delay_s)
    raise ValueError(message)


def _tasks(seeds, count=5):
    return [
        ShardTask(key=("draw", seed), fn=_seeded_draw, kwargs={"seed": seed, "count": count})
        for seed in seeds
    ]


@dataclasses.dataclass(frozen=True)
class _Config:
    name: str = "demo"
    scale: float = 1.5
    grid: tuple = (1, 2, 3)


# ---------------------------------------------------------------------- #
# Canonicalisation and fingerprints
# ---------------------------------------------------------------------- #


class TestCanonicalToken:
    def test_plain_scalars_pass_through(self):
        assert canonical_token(None) is None
        assert canonical_token(True) is True
        assert canonical_token(7) == 7
        assert canonical_token("x") == "x"

    def test_floats_canonicalise_via_repr(self):
        assert canonical_token(0.1) == ["float", repr(0.1)]
        assert canonical_token(np.float64(0.1)) == ["float", repr(0.1)]

    def test_numpy_integers_become_ints(self):
        assert canonical_token(np.int64(3)) == 3

    def test_sequences_and_mappings(self):
        assert canonical_token((1, 2)) == canonical_token([1, 2])
        # Mapping order does not matter.
        assert canonical_token({"b": 1, "a": 2}) == canonical_token({"a": 2, "b": 1})
        # Key types matter: {1: x} and {"1": x} are different configurations.
        assert canonical_token({1: "a"}) != canonical_token({"1": "a"})
        # Mixed key types still canonicalise deterministically.
        assert canonical_token({1: "a", "b": 2}) == canonical_token({"b": 2, 1: "a"})

    def test_dataclasses_tokenise_by_field(self):
        token_a = canonical_token(_Config())
        token_b = canonical_token(_Config())
        assert token_a == token_b
        assert canonical_token(_Config(scale=2.0)) != token_a

    def test_ndarray_tokenises_by_content(self):
        array = np.arange(6, dtype=np.float64)
        assert canonical_token(array) == canonical_token(array.copy())
        assert canonical_token(array) != canonical_token(array + 1.0)
        # dtype participates: same bytes, different meaning.
        assert canonical_token(array) != canonical_token(array.astype(np.int64))

    def test_stateful_objects_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_token(np.random.default_rng(0))


class TestTaskFingerprint:
    def test_stable_across_calls(self):
        task = _tasks([7])[0]
        assert task.fingerprint() == task.fingerprint()

    def test_sensitive_to_kwargs_and_key(self):
        base = task_fingerprint(_seeded_draw, {"seed": 1, "count": 5}, ("k",))
        assert task_fingerprint(_seeded_draw, {"seed": 2, "count": 5}, ("k",)) != base
        assert task_fingerprint(_seeded_draw, {"seed": 1, "count": 5}, ("other",)) != base

    def test_sensitive_to_function_identity(self):
        kwargs = {"value": 3}
        assert task_fingerprint(_square, kwargs) != task_fingerprint(_fail, {"message": "x"})

    def test_library_digest_is_stable_within_a_process(self):
        from repro.parallel.cache import _library_digest

        digest = _library_digest()
        assert digest == _library_digest()
        assert len(digest) == 64 and int(digest, 16) >= 0
        # The digest participates in every fingerprint (library edits must
        # invalidate cached results), via the "library" payload field.
        assert _library_digest.cache_info().hits >= 1


# ---------------------------------------------------------------------- #
# The result cache
# ---------------------------------------------------------------------- #


class TestResultCache:
    def test_round_trip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        hit, value = cache.get("ab" * 32)
        assert not hit and value is None
        cache.put("ab" * 32, {"rows": [1, 2, 3]})
        hit, value = cache.get("ab" * 32)
        assert hit and value == {"rows": [1, 2, 3]}
        assert (cache.hits, cache.misses) == (1, 1)
        assert "ab" * 32 in cache
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_evicted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = "cd" * 32
        cache.put(fingerprint, [1, 2])
        # Truncate the pickle on disk.
        path = cache._path(fingerprint)
        path.write_bytes(path.read_bytes()[:3])
        hit, _ = cache.get(fingerprint)
        assert not hit
        assert fingerprint not in cache

    def test_unwritable_cache_degrades_to_uncached_with_one_warning(self, tmp_path):
        # Point the cache root *through* a regular file: mkdir fails with
        # OSError (deterministically, even when running as root).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = ResultCache(blocker / "cache")
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.put("ab" * 32, [1])
        # Subsequent stores are skipped silently; reads behave as misses.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache.put("cd" * 32, [2])
        assert cache.get("ab" * 32) == (False, None)
        # A sweep with such a cache still completes and returns results.
        runner = ParallelRunner(cache=cache)
        results = runner.run_sharded(_tasks([5]))
        np.testing.assert_array_equal(results[0], _seeded_draw(5, 5))

    def test_clear_and_reset(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for index in range(3):
            cache.put(f"{index:02d}" + "0" * 62, index)
        assert cache.clear() == 3
        assert len(cache) == 0
        cache.misses = 5
        cache.reset_counters()
        assert (cache.hits, cache.misses) == (0, 0)


# ---------------------------------------------------------------------- #
# The runner
# ---------------------------------------------------------------------- #


class TestParallelRunner:
    def test_empty_task_list(self):
        assert ParallelRunner().run_sharded([]) == []

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelRunner(workers=-1)
        with pytest.raises(ConfigurationError):
            ParallelRunner().run_sharded([], workers=-2)

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_modes_run_in_process(self, workers):
        runner = ParallelRunner(workers=workers)
        results = runner.run_sharded(_tasks([3, 5, 8]))
        for seed, result in zip([3, 5, 8], results):
            np.testing.assert_array_equal(result, _seeded_draw(seed, 5))
        assert runner.last_run.executed == 3
        assert runner.last_run.workers == 1

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_results_bitwise_identical_to_serial(self, workers):
        tasks = _tasks([11, 22, 33, 44, 55])
        serial = ParallelRunner().run_sharded(tasks)
        parallel = ParallelRunner(workers=workers).run_sharded(tasks)
        # Results come back in task order with the exact same bits.
        for left, right in zip(serial, parallel):
            assert left.tobytes() == right.tobytes()

    def test_shard_errors_propagate_type_and_name_the_shard_serial(self):
        task = ShardTask(key=("boom", 1), fn=_fail, kwargs={"message": "kaput"})
        with pytest.raises(ValueError, match="kaput") as excinfo:
            ParallelRunner().run_sharded([task])
        assert any("('boom', 1)" in note for note in excinfo.value.__notes__)

    def test_shard_errors_propagate_type_and_name_the_shard_parallel(self):
        tasks = _tasks([1, 2]) + [
            ShardTask(key=("boom", 2), fn=_fail, kwargs={"message": "kaput"})
        ]
        with pytest.raises(ValueError, match="kaput") as excinfo:
            ParallelRunner(workers=2).run_sharded(tasks)
        assert any("('boom', 2)" in note for note in excinfo.value.__notes__)

    def test_cache_hits_skip_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks([1, 2, 3])
        runner = ParallelRunner(cache=cache)

        cold = runner.run_sharded(tasks)
        assert runner.last_run.cache_misses == 3
        assert runner.last_run.executed == 3

        warm = runner.run_sharded(tasks)
        assert runner.last_run.cache_hits == 3
        assert runner.last_run.executed == 0
        for left, right in zip(cold, warm):
            assert left.tobytes() == right.tobytes()

    def test_changed_seed_invalidates_only_the_affected_shard(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(cache=cache)
        tasks = _tasks([1, 2, 3])
        runner.run_sharded(tasks)

        # Re-seed the middle shard only.
        edited = list(tasks)
        edited[1] = ShardTask(key=tasks[1].key, fn=tasks[1].fn, kwargs={"seed": 99, "count": 5})
        results = runner.run_sharded(edited)
        assert runner.last_run.cache_hits == 2
        assert runner.last_run.cache_misses == 1
        assert runner.last_run.executed == 1
        np.testing.assert_array_equal(results[1], _seeded_draw(99, 5))

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks([4, 5, 6, 7])
        ParallelRunner(workers=2, cache=cache).run_sharded(tasks)
        runner = ParallelRunner(cache=cache)
        runner.run_sharded(tasks)
        assert runner.last_run.cache_hits == 4

    def test_completed_shards_are_cached_even_when_a_later_shard_fails(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(cache=cache)
        tasks = _tasks([1, 2]) + [
            ShardTask(key=("boom",), fn=_fail, kwargs={"message": "kaput"})
        ]
        with pytest.raises(ValueError):
            runner.run_sharded(tasks)
        # The two shards that finished before the failure are stored;
        # a retry of the fixed sweep reuses them.
        assert len(cache) == 2
        cache.reset_counters()
        results = runner.run_sharded(tasks[:2])
        assert cache.hits == 2
        np.testing.assert_array_equal(results[0], _seeded_draw(1, 5))

    def test_pool_failure_still_stores_inflight_completions(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        # Two fast shards occupy the two workers first; the slow failing
        # shard raises only after they completed, and their results must
        # survive the failure.
        tasks = _tasks([1, 2]) + [
            ShardTask(key=("boom",), fn=_slow_fail, kwargs={"message": "kaput"})
        ]
        with pytest.raises(ValueError, match="kaput"):
            ParallelRunner(workers=2, cache=cache).run_sharded(tasks)
        assert len(cache) == 2
