"""Tests for repro.qubo.model."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.qubo.model import QUBOModel


class TestConstruction:
    def test_upper_triangular_folding(self):
        matrix = np.array([[1.0, 0.0], [2.0, -1.0]])
        model = QUBOModel(coefficients=matrix)
        assert model.coefficients[0, 1] == pytest.approx(2.0)
        assert model.coefficients[1, 0] == 0.0

    def test_symmetric_input_folds(self):
        matrix = np.array([[0.0, 1.5], [1.5, 0.0]])
        model = QUBOModel(coefficients=matrix)
        assert model.coefficients[0, 1] == pytest.approx(3.0)

    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError, match="QUBO coefficients must form a square matrix"):
            QUBOModel(coefficients=np.zeros((2, 3)))

    def test_default_variable_names(self, small_qubo):
        assert small_qubo.variable_names == ("q0", "q1")

    def test_name_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="1 variable names supplied for 2 variables"):
            QUBOModel(coefficients=np.zeros((2, 2)), variable_names=("a",))

    def test_empty(self):
        model = QUBOModel.empty(4)
        assert model.num_variables == 4
        assert model.energy([1, 1, 1, 1]) == 0.0


class TestEnergy:
    def test_known_energies(self, small_qubo):
        # E = -2 q0 + q1 + 3 q0 q1
        assert small_qubo.energy([0, 0]) == 0.0
        assert small_qubo.energy([1, 0]) == -2.0
        assert small_qubo.energy([0, 1]) == 1.0
        assert small_qubo.energy([1, 1]) == 2.0

    def test_offset_added(self):
        model = QUBOModel(coefficients=np.array([[1.0]]), offset=5.0)
        assert model.energy([0]) == 5.0
        assert model.energy([1]) == 6.0

    def test_batch_energies_match(self, random_qubo_8, rng):
        batch = rng.integers(0, 2, size=(16, 8))
        energies = random_qubo_8.energies(batch)
        for row, energy in zip(batch, energies):
            assert energy == pytest.approx(random_qubo_8.energy(row))

    def test_wrong_length_rejected(self, small_qubo):
        with pytest.raises(ConfigurationError, match="assignment has 3 entries, expected 2"):
            small_qubo.energy([0, 1, 1])


class TestIntrospection:
    def test_linear_and_quadratic(self, small_qubo):
        assert np.allclose(small_qubo.linear, [-2.0, 1.0])
        assert small_qubo.quadratic == {(0, 1): 3.0}

    def test_density(self):
        dense = QUBOModel(coefficients=np.triu(np.ones((4, 4)), k=1))
        assert dense.density() == pytest.approx(1.0)
        assert QUBOModel.empty(4).density() == 0.0

    def test_max_abs_coefficient(self, small_qubo):
        assert small_qubo.max_abs_coefficient() == 3.0


class TestAlgebra:
    def test_add(self, small_qubo):
        doubled = small_qubo.add(small_qubo)
        assert doubled.energy([1, 1]) == pytest.approx(2 * small_qubo.energy([1, 1]))

    def test_add_size_mismatch(self, small_qubo):
        with pytest.raises(ConfigurationError, match="cannot add QUBOs with 2 and 3 variables"):
            small_qubo.add(QUBOModel.empty(3))

    def test_scale(self, small_qubo):
        scaled = small_qubo.scale(0.5)
        assert scaled.energy([1, 0]) == pytest.approx(-1.0)

    def test_fix_variables_energy_consistency(self, random_qubo_8, rng):
        assignments = {1: 1, 4: 0, 6: 1}
        reduced = random_qubo_8.fix_variables(assignments)
        assert reduced.num_variables == 5
        free_bits = rng.integers(0, 2, size=5)
        full = np.zeros(8, dtype=int)
        remaining = [index for index in range(8) if index not in assignments]
        for position, index in enumerate(remaining):
            full[index] = free_bits[position]
        for index, value in assignments.items():
            full[index] = value
        assert reduced.energy(free_bits) == pytest.approx(random_qubo_8.energy(full))

    def test_fix_variables_invalid_value(self, small_qubo):
        message = "fixed value for variable 0 must be 0 or 1, got 2"
        with pytest.raises(ConfigurationError, match=message):
            small_qubo.fix_variables({0: 2})

    def test_fix_variables_invalid_index(self, small_qubo):
        with pytest.raises(IndexError):
            small_qubo.fix_variables({9: 1})

    def test_fix_preserves_names(self):
        model = QUBOModel(coefficients=np.zeros((3, 3)), variable_names=("a", "b", "c"))
        reduced = model.fix_variables({1: 0})
        assert reduced.variable_names == ("a", "c")

    def test_equality(self, small_qubo):
        clone = QUBOModel(coefficients=small_qubo.coefficients.copy())
        assert clone == small_qubo
        assert clone != small_qubo.scale(2.0)
