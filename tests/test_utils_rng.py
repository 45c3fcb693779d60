"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.rng import ensure_rng, spawn_rngs, stable_seed


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        first = ensure_rng(42).random(5)
        second = ensure_rng(42).random(5)
        assert np.allclose(first, second)

    def test_different_seeds_differ(self):
        assert not np.allclose(ensure_rng(1).random(5), ensure_rng(2).random(5))

    def test_generator_passthrough(self):
        generator = np.random.default_rng(7)
        assert ensure_rng(generator) is generator

    def test_numpy_integer_seed(self):
        assert isinstance(ensure_rng(np.int64(5)), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 4)) == 4

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ConfigurationError, match="count must be non-negative, got -1"):
            spawn_rngs(0, -1)

    def test_children_are_independent(self):
        children = spawn_rngs(3, 2)
        assert not np.allclose(children[0].random(10), children[1].random(10))

    def test_same_seed_same_family(self):
        first_family = [child.random(3) for child in spawn_rngs(11, 3)]
        second_family = [child.random(3) for child in spawn_rngs(11, 3)]
        for first, second in zip(first_family, second_family):
            assert np.allclose(first, second)

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(5), 3)
        assert len(children) == 3


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1, 2.5) == stable_seed("a", 1, 2.5)

    def test_order_sensitive(self):
        assert stable_seed(1, 2) != stable_seed(2, 1)

    def test_fits_in_32_bits(self):
        assert 0 <= stable_seed("instance", 99, "64-QAM") < 2 ** 32
