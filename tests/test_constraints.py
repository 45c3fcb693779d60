"""Tests for repro.qubo.constraints (paper Figure 4 scheme)."""

import itertools

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.qubo.constraints import SoftConstraint, add_soft_constraints
from repro.qubo.generators import random_qubo


class TestSoftConstraintValidation:
    def test_too_many_variables(self):
        with pytest.raises(ConfigurationError):
            SoftConstraint(variables=(0, 1, 2), targets=(1, 1, 1), strength=1.0)

    def test_duplicate_variables(self):
        with pytest.raises(ConfigurationError):
            SoftConstraint(variables=(0, 0), targets=(1, 1), strength=1.0)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            SoftConstraint(variables=(0, 1), targets=(1,), strength=1.0)

    def test_bad_target(self):
        with pytest.raises(ConfigurationError):
            SoftConstraint(variables=(0,), targets=(2,), strength=1.0)

    def test_non_positive_strength(self):
        with pytest.raises(ConfigurationError):
            SoftConstraint(variables=(0,), targets=(1,), strength=0.0)

    def test_out_of_range_variable(self):
        constraint = SoftConstraint(variables=(5,), targets=(1,), strength=1.0)
        with pytest.raises(ConfigurationError):
            constraint.penalty_qubo(num_variables=3)


class TestPairPenaltyValues:
    @pytest.mark.parametrize("targets", list(itertools.product((0, 1), repeat=2)))
    def test_penalty_only_when_both_wrong(self, targets):
        constraint = SoftConstraint(variables=(0, 1), targets=targets, strength=2.5)
        penalty = constraint.penalty_qubo(num_variables=2)
        for bits in itertools.product((0, 1), repeat=2):
            both_wrong = bits[0] != targets[0] and bits[1] != targets[1]
            expected = 2.5 if both_wrong else 0.0
            assert penalty.energy(bits) == pytest.approx(expected)

    def test_paper_example_expansion(self):
        # Target (1, 1): the penalty is C (q0 - 1)(q1 - 1).
        constraint = SoftConstraint(variables=(0, 1), targets=(1, 1), strength=3.0)
        penalty = constraint.penalty_qubo(2)
        assert penalty.coefficients[0, 1] == pytest.approx(3.0)
        assert penalty.linear[0] == pytest.approx(-3.0)
        assert penalty.linear[1] == pytest.approx(-3.0)
        assert penalty.offset == pytest.approx(3.0)


class TestSingleBitPenalty:
    @pytest.mark.parametrize("target", (0, 1))
    def test_penalises_disagreement(self, target):
        constraint = SoftConstraint(variables=(0,), targets=(target,), strength=1.5)
        penalty = constraint.penalty_qubo(1)
        assert penalty.energy([target]) == pytest.approx(0.0)
        assert penalty.energy([1 - target]) == pytest.approx(1.5)


class TestAddSoftConstraints:
    def test_energy_shift_only_for_disagreement(self, rng):
        qubo = random_qubo(6, rng=rng)
        constraints = [
            SoftConstraint(variables=(0, 1), targets=(1, 1), strength=4.0),
            SoftConstraint(variables=(5,), targets=(0,), strength=2.0),
        ]
        augmented = add_soft_constraints(qubo, constraints)
        agreeing = np.array([1, 1, 0, 0, 0, 0])
        assert augmented.energy(agreeing) == pytest.approx(qubo.energy(agreeing))
        disagreeing = np.array([0, 0, 0, 0, 0, 1])
        assert augmented.energy(disagreeing) == pytest.approx(qubo.energy(disagreeing) + 6.0)

    def test_correct_knowledge_preserves_optimum(self, planted_qubo_10):
        qubo, planted = planted_qubo_10
        constraints = [
            SoftConstraint(
                variables=(i, i + 1), targets=(planted[i], planted[i + 1]), strength=5.0
            )
            for i in range(0, 10, 2)
        ]
        augmented = add_soft_constraints(qubo, constraints)
        from repro.qubo.energy import brute_force_minimum

        exact = brute_force_minimum(augmented)
        assert np.array_equal(exact.assignment, planted)

    def test_no_constraints_is_identity(self, small_qubo):
        assert add_soft_constraints(small_qubo, []) == small_qubo
