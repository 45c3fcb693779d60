"""Tests for repro.qubo.generators."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.qubo.energy import brute_force_minimum
from repro.qubo.generators import random_qubo
from tests.qubo_fixtures import planted_solution_qubo, random_ising


class TestRandomQubo:
    def test_size(self, rng):
        assert random_qubo(6, rng=rng).num_variables == 6

    def test_reproducible(self):
        first = random_qubo(5, rng=3)
        second = random_qubo(5, rng=3)
        assert np.allclose(first.coefficients, second.coefficients)

    def test_density_zero_gives_diagonal_model(self, rng):
        model = random_qubo(6, density=0.0, rng=rng)
        assert model.quadratic == {}

    def test_density_one_is_fully_coupled(self, rng):
        model = random_qubo(6, density=1.0, rng=rng)
        assert len(model.quadratic) <= 15
        assert len([v for v in model.quadratic.values() if v != 0.0]) == 15

    def test_invalid_density(self):
        with pytest.raises(ConfigurationError):
            random_qubo(4, density=1.2)


class TestRandomIsing:
    def test_size(self, rng):
        assert random_ising(7, rng=rng).num_spins == 7

    def test_field_scale_zero(self, rng):
        model = random_ising(5, field_scale=0.0, rng=rng)
        assert np.allclose(model.fields, 0.0)

    def test_invalid_density(self):
        with pytest.raises(ConfigurationError):
            random_ising(4, density=-0.5)


class TestPlantedSolution:
    def test_planted_is_ground_state(self, rng):
        planted = rng.integers(0, 2, size=10)
        qubo = planted_solution_qubo(planted, rng=rng)
        result = brute_force_minimum(qubo)
        assert np.array_equal(result.assignment, planted)
        assert result.ground_state_count == 1

    def test_sparse_planted_still_ground_state(self, rng):
        planted = rng.integers(0, 2, size=12)
        qubo = planted_solution_qubo(planted, density=0.4, field_strength=0.5, rng=rng)
        result = brute_force_minimum(qubo)
        assert qubo.energy(planted) == pytest.approx(result.energy)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            planted_solution_qubo([])

    def test_non_binary_rejected(self):
        with pytest.raises(ConfigurationError):
            planted_solution_qubo([0, 2, 1])

    def test_zero_strengths_rejected(self):
        with pytest.raises(ConfigurationError):
            planted_solution_qubo([0, 1], coupling_strength=0.0, field_strength=0.0)
