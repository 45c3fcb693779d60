"""Tests for repro.qubo.energy."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.qubo.energy import brute_force_minimum, enumerate_assignments
from repro.qubo.generators import random_qubo
from repro.qubo.model import QUBOModel


class TestEnumerateAssignments:
    def test_counts(self):
        blocks = list(enumerate_assignments(5))
        total = sum(block.shape[0] for block in blocks)
        assert total == 32

    def test_all_unique(self):
        assignments = np.concatenate(list(enumerate_assignments(4)))
        assert len({tuple(row) for row in assignments}) == 16

    def test_blocking(self):
        blocks = list(enumerate_assignments(6, block_bits=2))
        assert all(block.shape[0] <= 4 for block in blocks)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            list(enumerate_assignments(-1))


class TestBruteForce:
    def test_small_known_minimum(self, small_qubo):
        result = brute_force_minimum(small_qubo)
        assert result.energy == pytest.approx(-2.0)
        assert np.array_equal(result.assignment, [1, 0])
        assert result.evaluated == 4

    def test_planted_ground_state_found(self, planted_qubo_10):
        qubo, planted = planted_qubo_10
        result = brute_force_minimum(qubo)
        assert np.array_equal(result.assignment, planted)

    def test_degeneracy_counted(self):
        # Two decoupled variables with zero coefficients: all 4 states tie.
        result = brute_force_minimum(QUBOModel.empty(2))
        assert result.ground_state_count == 4

    def test_guard(self):
        with pytest.raises(ConfigurationError):
            brute_force_minimum(QUBOModel.empty(30))

    def test_zero_variables(self):
        result = brute_force_minimum(QUBOModel.empty(0))
        assert result.energy == 0.0
        assert result.evaluated == 1

    def test_offset_included(self):
        model = QUBOModel(coefficients=np.array([[1.0]]), offset=-4.0)
        assert brute_force_minimum(model).energy == pytest.approx(-4.0)

    def test_matches_exhaustive_scan(self, rng):
        qubo = random_qubo(10, rng=rng)
        result = brute_force_minimum(qubo)
        every_assignment = (np.arange(1 << 10)[:, None] >> np.arange(10)) & 1
        assert result.energy == pytest.approx(qubo.energies(every_assignment).min())
