"""Tests for repro.classical.greedy (the paper's GS module)."""

import numpy as np
import pytest

from repro.classical.greedy import GreedySearchSolver, greedy_search
from repro.metrics.quality import delta_e_percent
from repro.qubo.energy import brute_force_minimum
from repro.qubo.generators import random_qubo
from repro.qubo.model import QUBOModel
from tests.qubo_fixtures import planted_solution_qubo


class TestGreedySearch:
    def test_solves_trivial_diagonal_model(self):
        model = QUBOModel(coefficients=np.diag([-1.0, 2.0, -3.0, 0.5]))
        assert np.array_equal(greedy_search(model), [1, 0, 1, 0])

    def test_finds_planted_field_dominated_model(self, rng):
        planted = rng.integers(0, 2, size=12)
        qubo = planted_solution_qubo(planted, coupling_strength=0.2, field_strength=1.0, rng=rng)
        assert np.array_equal(greedy_search(qubo), planted)

    def test_deterministic(self, random_qubo_8):
        assert np.array_equal(greedy_search(random_qubo_8), greedy_search(random_qubo_8))

    def test_empty_model(self):
        assert greedy_search(QUBOModel.empty(0)).size == 0

    def test_quality_close_to_optimum_on_mimo_instances(self):
        # The paper observes GS candidates typically score dE_IS% <= ~10%; allow
        # slack but require the adaptive greedy to stay within 25% on average.
        from repro.experiments.instances import synthesize_instance

        qualities = []
        for seed in range(6):
            bundle = synthesize_instance(4, "16-QAM", seed=seed)
            assignment = greedy_search(bundle.encoding.qubo)
            qualities.append(
                delta_e_percent(bundle.encoding.qubo.energy(assignment), bundle.ground_energy)
            )
        assert np.mean(qualities) < 25.0

    def test_never_worse_than_all_zero_on_random_models(self, rng):
        for _ in range(5):
            qubo = random_qubo(10, rng=rng)
            assignment = greedy_search(qubo)
            assert qubo.energy(assignment) <= qubo.energy(np.zeros(10)) + 1e-9


class TestGreedySearchSolver:
    def test_solution_fields(self, random_qubo_8):
        solution = GreedySearchSolver().solve(random_qubo_8)
        assert solution.solver_name == "greedy-search"
        assert solution.energy == pytest.approx(random_qubo_8.energy(solution.assignment))
        assert solution.iterations == 8

    def test_modelled_time_linear_in_size(self):
        solution = GreedySearchSolver().solve(QUBOModel.empty(10))
        assert solution.compute_time_us == pytest.approx(0.1)

    def test_matches_optimum_on_small_planted(self, planted_qubo_10):
        qubo, planted = planted_qubo_10
        solution = GreedySearchSolver().solve(qubo)
        exact = brute_force_minimum(qubo)
        assert solution.energy == pytest.approx(exact.energy)
        assert np.array_equal(solution.assignment, planted)

    def test_solve_is_deterministic(self, random_qubo_8):
        solver = GreedySearchSolver()
        solutions = [solver.solve(random_qubo_8, rng=seed) for seed in (1, 2)]
        solutions += solver.solve_batch([random_qubo_8], rng=3)
        # GS draws nothing, so every seed and batch gives the same answer.
        assert all(np.array_equal(s.assignment, solutions[0].assignment) for s in solutions)
