"""Tests for repro.qubo.preprocessing (paper Figure 3 scheme)."""

import numpy as np
import pytest

from repro.qubo.energy import brute_force_minimum
from repro.qubo.generators import random_qubo
from repro.qubo.model import QUBOModel
from repro.qubo.preprocessing import find_fixable_variables, simplify_qubo
from tests.qubo_fixtures import lift_assignment


class TestFindFixable:
    def test_positive_diagonal_no_negative_couplings_fixes_zero(self):
        # Only positive contributions: q0 = 1 can never help.
        model = QUBOModel(coefficients=np.array([[2.0, 1.0], [0.0, 0.5]]))
        fixable = find_fixable_variables(model)
        assert fixable[0] == 0
        assert fixable[1] == 0

    def test_negative_diagonal_no_positive_couplings_fixes_one(self):
        model = QUBOModel(coefficients=np.array([[-2.0, -1.0], [0.0, -0.5]]))
        fixable = find_fixable_variables(model)
        assert fixable[0] == 1
        assert fixable[1] == 1

    def test_balanced_variable_not_fixed(self):
        # Q_00 = 1 but a coupling of -3 means neither rule applies to q0.
        model = QUBOModel(coefficients=np.array([[1.0, -3.0], [0.0, 1.0]]))
        fixable = find_fixable_variables(model)
        assert 0 not in fixable


class TestSimplifyQubo:
    def test_preserves_optimum_small_random(self, rng):
        for _ in range(10):
            qubo = random_qubo(8, rng=rng)
            exact = brute_force_minimum(qubo)
            report = simplify_qubo(qubo)
            if report.num_fixed == 0:
                continue
            reduced_exact = brute_force_minimum(report.reduced_qubo)
            lifted = lift_assignment(report, reduced_exact.assignment)
            assert qubo.energy(lifted) == pytest.approx(exact.energy)

    def test_fixpoint_terminates(self, rng):
        qubo = random_qubo(12, rng=rng)
        report = simplify_qubo(qubo)
        assert report.iterations <= 12
        assert find_fixable_variables(report.reduced_qubo) == {}

    def test_report_counts(self):
        model = QUBOModel(coefficients=np.array([[2.0, 1.0], [0.0, 0.5]]))
        report = simplify_qubo(model)
        assert report.num_fixed == 2
        assert report.was_simplified
        assert report.reduced_qubo.num_variables == 0

    def test_no_simplification_case(self):
        # Strong frustration: no rule can fire.
        matrix = np.array([[1.0, -3.0, 2.0], [0.0, 1.0, -3.0], [0.0, 0.0, 1.0]])
        report = simplify_qubo(QUBOModel(coefficients=matrix))
        assert not report.was_simplified
        assert report.reduced_qubo.num_variables == 3

    def test_lift_assignment_roundtrip(self):
        model = QUBOModel(coefficients=np.diag([5.0, -5.0, 0.0]))
        report = simplify_qubo(model)
        # Variables 0 and 1 get fixed (0 and 1 respectively); variable 2 is free
        # only if its rule does not fire — with a zero diagonal it fixes to 0.
        lifted = lift_assignment(report, np.zeros(report.reduced_qubo.num_variables, dtype=int))
        assert lifted.size == 3
        assert lifted[0] == 0
        assert lifted[1] == 1

    def test_lift_wrong_length(self):
        model = QUBOModel(coefficients=np.diag([5.0, -5.0]))
        report = simplify_qubo(model)
        with pytest.raises(ValueError):
            lift_assignment(report, np.zeros(5, dtype=int))

    def test_mimo_qubos_over_40_variables_rarely_simplify(self):
        # The paper's empirical finding: large MIMO QUBOs admit no prefixing.
        from repro.experiments.instances import synthesize_instance

        bundle = synthesize_instance(12, "16-QAM", seed=0)  # 48 variables
        report = simplify_qubo(bundle.encoding.qubo)
        assert report.num_fixed == 0
