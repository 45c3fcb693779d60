"""End-to-end integration tests across the full stack.

These tests tie the wireless substrate, the QuAMax transform, the classical
solvers, the annealer simulator, the hybrid solver and the metrics together,
mirroring how the benchmark harness uses the library.
"""

import numpy as np
import pytest

from repro.annealing import (
    QuantumAnnealerSimulator,
    SpinVectorMonteCarloBackend,
    forward_anneal_schedule,
    reverse_anneal_schedule,
)
from repro.classical.exhaustive import ExhaustiveSolver
from repro.classical.greedy import GreedySearchSolver
from repro.classical.simulated_annealing import SimulatedAnnealingSolver
from repro.experiments.instances import synthesize_instance
from repro.hybrid.solver import HybridMIMODetector, HybridQuboSolver
from repro.metrics.quality import delta_e_percent
from repro.metrics.tts import time_to_solution
from repro.qubo.preprocessing import simplify_qubo
from repro.transform import mimo_to_qubo
from repro.wireless import MIMOConfig, simulate_transmission
from repro.wireless.metrics import bit_error_rate, symbol_error_rate
from tests.qubo_fixtures import lift_assignment


@pytest.fixture(scope="module")
def sampler():
    return QuantumAnnealerSimulator(
        backend=SpinVectorMonteCarloBackend(sweeps_per_microsecond=24), seed=2024
    )


@pytest.fixture(scope="module")
def bundle():
    return synthesize_instance(3, "16-QAM", seed=12)


class TestDetectionChain:
    def test_transform_solvers_and_metrics_agree(self, bundle):
        qubo = bundle.encoding.qubo
        exhaustive = ExhaustiveSolver().solve(qubo)
        assert exhaustive.energy == pytest.approx(bundle.ground_energy)

        greedy = GreedySearchSolver().solve(qubo)
        quality = delta_e_percent(qubo.energy(greedy.assignment), bundle.ground_energy)
        assert quality >= -1e-9
        assert quality == pytest.approx(
            delta_e_percent(greedy.energy, bundle.ground_energy)
        )

        annealing = SimulatedAnnealingSolver(num_sweeps=200).solve(qubo, rng=1)
        assert annealing.energy <= greedy.energy + 1e-9 or annealing.energy == pytest.approx(
            greedy.energy
        )

    def test_hybrid_detector_end_to_end_payload(self, bundle, sampler):
        detector = HybridMIMODetector(sampler=sampler, switch_s=0.45, num_reads=80)
        result, details = detector.detect_with_details(bundle.transmission.instance, rng=4)
        transmitted_bits = bundle.transmission.transmitted_bits
        # The hybrid either recovers the payload exactly or at least produces a
        # candidate no worse than its classical initial state.
        if details.best_energy <= bundle.ground_energy + 1e-6:
            assert bit_error_rate(transmitted_bits, result.bits) == 0.0
            assert symbol_error_rate(
                bundle.transmission.transmitted_symbols, result.symbols
            ) == 0.0
        assert details.best_energy <= details.initial_solution.energy + 1e-9

    def test_reverse_annealing_refines_greedy_candidate(self, bundle, sampler):
        qubo = bundle.encoding.qubo
        greedy = GreedySearchSolver().solve(qubo)
        hybrid = HybridQuboSolver(sampler=sampler, switch_s=0.45, num_reads=120)
        result = hybrid.solve(qubo, rng=6)
        assert result.best_energy <= greedy.energy + 1e-9

    def test_tts_computable_from_hybrid_sampleset(self, bundle, sampler):
        hybrid = HybridQuboSolver(sampler=sampler, switch_s=0.45, num_reads=60)
        result = hybrid.solve(bundle.encoding.qubo, rng=8)
        sampleset = result.sampleset
        tts = time_to_solution(
            sampleset.success_probability(bundle.ground_energy),
            sampleset.metadata["schedule_duration_us"],
        )
        assert tts.duration_us == pytest.approx(2 * (1 - 0.45) + 1.0)
        if result.sampleset.success_probability(bundle.ground_energy) > 0:
            assert tts.is_finite

    def test_preprocessing_then_solving_reaches_same_optimum(self):
        # Small instance where preprocessing may fix variables; the combined
        # pipeline must still recover the exact ML solution.
        bundle = synthesize_instance(2, "QPSK", seed=3)
        report = simplify_qubo(bundle.encoding.qubo)
        if report.reduced_qubo.num_variables:
            reduced_best = ExhaustiveSolver().solve(report.reduced_qubo)
            lifted = lift_assignment(report, reduced_best.assignment)
        else:
            lifted = lift_assignment(report, np.zeros(0, dtype=int))
        assert bundle.encoding.qubo.energy(lifted) == pytest.approx(bundle.ground_energy)

    def test_noisy_link_detection_quality_improves_with_snr(self, sampler):
        errors = []
        for snr_db in (0.0, 25.0):
            config = MIMOConfig(
                num_users=2, modulation="QPSK", num_receive_antennas=6, snr_db=snr_db
            )
            rates = []
            for seed in range(4):
                transmission = simulate_transmission(config, rng=seed)
                encoding = mimo_to_qubo(transmission.instance)
                greedy = GreedySearchSolver().solve(encoding.qubo)
                detection = encoding.detection_result(greedy.assignment, algorithm="greedy")
                rates.append(
                    bit_error_rate(transmission.transmitted_bits, detection.bits)
                )
            errors.append(np.mean(rates))
        assert errors[1] <= errors[0] + 1e-9


class TestAnnealerOrderings:
    def test_reverse_annealing_from_optimum_beats_forward(self, bundle, sampler):
        # Starting from the exact optimum at a high switch point, RA must retain
        # it with higher probability than FA finds it from scratch.
        qubo = bundle.encoding.qubo
        ground = bundle.ground_energy
        fa = sampler.sample_qubo(qubo, forward_anneal_schedule(1.0, 0.45, 1.0), num_reads=120)
        ra = sampler.sample_qubo(
            qubo, reverse_anneal_schedule(0.7), num_reads=120, initial_state=bundle.ground_state
        )
        assert ra.success_probability(ground) >= fa.success_probability(ground)

    def test_low_switch_point_degrades_toward_forward_behaviour(self, bundle, sampler):
        qubo = bundle.encoding.qubo
        ground = bundle.ground_energy
        start = bundle.ground_state
        shallow = sampler.sample_qubo(qubo, reverse_anneal_schedule(0.9), 100, start)
        deep = sampler.sample_qubo(qubo, reverse_anneal_schedule(0.1), 100, start)
        assert shallow.success_probability(ground) >= deep.success_probability(ground)
