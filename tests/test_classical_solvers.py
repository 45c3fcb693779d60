"""Tests for the exhaustive and simulated annealing QUBO solvers."""

import numpy as np
import pytest

from repro.classical.exhaustive import ExhaustiveSolver
from repro.classical.simulated_annealing import SimulatedAnnealingSolver
from repro.exceptions import ConfigurationError
from repro.qubo.energy import brute_force_minimum
from repro.qubo.generators import random_qubo
from repro.qubo.model import QUBOModel


class TestExhaustiveSolver:
    def test_finds_exact_optimum(self, random_qubo_8):
        solution = ExhaustiveSolver().solve(random_qubo_8)
        assert solution.energy == pytest.approx(brute_force_minimum(random_qubo_8).energy)

    def test_guard(self):
        with pytest.raises(ConfigurationError):
            ExhaustiveSolver().solve(QUBOModel.empty(29))

    def test_metadata(self, small_qubo):
        solution = ExhaustiveSolver().solve(small_qubo)
        assert solution.metadata["evaluated"] == 4
        assert solution.iterations == 4


class TestSimulatedAnnealing:
    def test_finds_planted_optimum(self, planted_qubo_10):
        qubo, planted = planted_qubo_10
        solution = SimulatedAnnealingSolver(num_sweeps=150).solve(qubo, rng=4)
        assert np.array_equal(solution.assignment, planted)

    def test_close_to_optimum_on_random_model(self, rng):
        qubo = random_qubo(12, rng=rng)
        exact = brute_force_minimum(qubo)
        solution = SimulatedAnnealingSolver(num_sweeps=300).solve(qubo, rng=5)
        assert solution.energy <= exact.energy + 0.5 * abs(exact.energy)

    def test_reproducible_with_seed(self, random_qubo_8):
        solver = SimulatedAnnealingSolver(num_sweeps=50)
        first = solver.solve(random_qubo_8, rng=7)
        second = solver.solve(random_qubo_8, rng=7)
        assert np.array_equal(first.assignment, second.assignment)

    def test_empty_model(self):
        solution = SimulatedAnnealingSolver().solve(QUBOModel.empty(0))
        assert solution.num_variables == 0

    def test_compute_time_model(self):
        solver = SimulatedAnnealingSolver(num_sweeps=100)
        solution = solver.solve(QUBOModel.empty(3), rng=1)
        assert solution.compute_time_us == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_sweeps": 0},
            {"final_temperature": 0.0},
        ],
    )
    def test_invalid_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimulatedAnnealingSolver(**kwargs)
