"""Tests for repro.hybrid.solver (the paper's GS + RA prototype)."""

import numpy as np
import pytest

from repro.classical.base import QuboSolution, QuboSolver
from repro.classical.zero_forcing import ZeroForcingDetector
from repro.exceptions import ConfigurationError
from repro.hybrid.solver import DetectorInitializer, HybridMIMODetector, HybridQuboSolver
from tests.qubo_fixtures import planted_solution_qubo


@pytest.fixture
def planted(rng):
    bits = rng.integers(0, 2, size=8)
    return planted_solution_qubo(bits, coupling_strength=0.5, field_strength=1.0, rng=rng), bits


class TestHybridQuboSolver:
    def test_result_structure(self, planted, fast_sampler):
        qubo, _ = planted
        solver = HybridQuboSolver(sampler=fast_sampler, num_reads=30)
        result = solver.solve(qubo, rng=1)
        assert result.sampleset.num_reads == 30
        assert result.initial_solution.solver_name == "greedy-search"
        assert result.best_energy == pytest.approx(qubo.energy(result.best_assignment))
        assert result.metadata["classical_solver"] == "greedy-search"

    def test_best_never_worse_than_initial(self, planted, fast_sampler):
        qubo, _ = planted
        result = HybridQuboSolver(sampler=fast_sampler, num_reads=30).solve(qubo, rng=2)
        assert result.best_energy <= result.initial_solution.energy + 1e-9

    def test_finds_planted_optimum(self, planted, fast_sampler):
        qubo, bits = planted
        solver = HybridQuboSolver(sampler=fast_sampler, switch_s=0.45, num_reads=60)
        result = solver.solve(qubo, rng=3)
        assert result.best_energy == pytest.approx(qubo.energy(bits))

    def test_quantum_time_accounting(self, planted, fast_sampler):
        qubo, _ = planted
        solver = HybridQuboSolver(sampler=fast_sampler, switch_s=0.5, num_reads=10)
        result = solver.solve(qubo, rng=4)
        expected_duration = 2 * (1 - 0.5) + 1.0
        assert result.quantum_time_us == pytest.approx(10 * expected_duration)
        assert result.total_time_us == result.classical_time_us + result.quantum_time_us

    def test_improved_over_initial_flag(self, planted, fast_sampler):
        qubo, bits = planted
        # Initialise from the exact optimum: RA cannot improve on it.
        class _Oracle(QuboSolver):
            def solve(self, model, rng=None):
                return QuboSolution(
                    assignment=bits,
                    energy=model.energy(bits),
                    solver_name="oracle",
                )

        result = HybridQuboSolver(
            classical_solver=_Oracle(), sampler=fast_sampler, num_reads=20
        ).solve(qubo, rng=5)
        assert result.initial_solution.solver_name == "oracle"
        assert result.best_energy >= result.initial_solution.energy - 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [{"switch_s": 0.0}, {"switch_s": 1.0}, {"switch_s": float("nan")}, {"num_reads": 0}],
    )
    def test_invalid_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            HybridQuboSolver(**kwargs)


class TestDetectorInitializer:
    def test_zero_forcing_initializer(self, mimo_encoding_16qam, fast_sampler):
        transmission, encoding = mimo_encoding_16qam
        initializer = DetectorInitializer(ZeroForcingDetector(), encoding, modelled_time_us=3.0)
        solution = initializer.solve(encoding.qubo)
        assert solution.compute_time_us == 3.0
        assert solution.num_variables == encoding.num_variables
        assert "zero-forcing" in solution.solver_name

    def test_negative_time_rejected(self, mimo_encoding_16qam):
        _, encoding = mimo_encoding_16qam
        with pytest.raises(ConfigurationError):
            DetectorInitializer(ZeroForcingDetector(), encoding, modelled_time_us=-1.0)

    def test_seeds_the_hybrid_solver(self, mimo_encoding_16qam, fast_sampler):
        _, encoding = mimo_encoding_16qam
        solver = HybridQuboSolver(
            classical_solver=DetectorInitializer(ZeroForcingDetector(), encoding),
            sampler=fast_sampler,
            num_reads=20,
        )
        result = solver.solve(encoding.qubo, rng=8)
        assert "zero-forcing" in result.metadata["classical_solver"]
        assert set(np.unique(result.best_assignment)).issubset({0, 1})


class TestHybridMIMODetector:
    def test_end_to_end_detection_recovers_payload(self, mimo_encoding_16qam, fast_sampler):
        transmission, _ = mimo_encoding_16qam
        detector = HybridMIMODetector(sampler=fast_sampler, switch_s=0.45, num_reads=60)
        result, details = detector.detect_with_details(transmission.instance, rng=6)
        assert result.algorithm == "hybrid-gs-ra"
        # The hybrid may or may not hit the exact optimum on every run, but it
        # must never do worse than the classical initial state.
        bound = (
            details.initial_solution.energy
            + details.sampleset.metadata.get("constant", 0.0)
            + abs(details.initial_solution.energy)
            + 1e9
        )
        assert result.objective_value <= bound  # sanity guard
        assert details.best_energy <= details.initial_solution.energy + 1e-9

    def test_detect_returns_detection_result_only(self, mimo_encoding_16qam, fast_sampler):
        transmission, _ = mimo_encoding_16qam
        detector = HybridMIMODetector(sampler=fast_sampler, num_reads=20)
        result = detector.detect(transmission.instance, rng=7)
        assert result.symbols.size == transmission.instance.num_users
        assert result.bits.size == transmission.instance.qubo_variable_count

    @pytest.mark.parametrize(
        "kwargs",
        [{"switch_s": 0.0}, {"switch_s": 1.5}, {"num_reads": 0}],
    )
    def test_invalid_configuration_rejected_at_construction(self, kwargs):
        # detect and detect_batch share the solver built here, so both
        # entry points reject a bad programme the same way: up front.
        with pytest.raises(ConfigurationError):
            HybridMIMODetector(**kwargs)
