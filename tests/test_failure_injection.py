"""Failure-injection tests: degraded devices, broken chains, pathological inputs.

These tests exercise the library under adverse conditions a production user
would hit: heavy control noise, ill-conditioned channels, degenerate QUBOs,
extreme schedules, and samplers that never find the optimum.
"""

import numpy as np
import pytest

from repro.annealing import (
    DeviceModel,
    QuantumAnnealerSimulator,
    SpinVectorMonteCarloBackend,
    forward_anneal_schedule,
)
from repro.classical.greedy import GreedySearchSolver
from repro.classical.simulated_annealing import SimulatedAnnealingSolver
from repro.experiments.instances import synthesize_instance
from repro.hybrid.solver import HybridQuboSolver
from repro.metrics.tts import time_to_solution
from repro.qubo.model import QUBOModel
from repro.qubo.energy import brute_force_minimum
from repro.transform import mimo_to_qubo
from repro.wireless import MIMOConfig, MIMOInstance, simulate_transmission
from tests.wireless_fixtures import symbol_index


class TestDegradedDevice:
    def test_heavy_control_noise_still_returns_valid_samples(self, planted_qubo_10):
        qubo, _ = planted_qubo_10
        device = DeviceModel(field_noise_sigma=0.5, coupling_noise_sigma=0.5)
        sampler = QuantumAnnealerSimulator(
            device=device, backend=SpinVectorMonteCarloBackend(sweeps_per_microsecond=8), seed=1
        )
        sampleset = sampler.forward_anneal(qubo, num_reads=20)
        assert sampleset.num_reads == 20
        assert np.allclose(sampleset.energies(), qubo.energies(sampleset.assignments()))

    def test_heavy_noise_degrades_success(self, planted_qubo_10):
        qubo, planted = planted_qubo_10
        ground = qubo.energy(planted)
        clean = QuantumAnnealerSimulator(seed=2).forward_anneal(qubo, num_reads=80, pause_s=0.4)
        noisy_device = DeviceModel(field_noise_sigma=1.0, coupling_noise_sigma=1.0)
        noisy = QuantumAnnealerSimulator(device=noisy_device, seed=2).forward_anneal(
            qubo, num_reads=80, pause_s=0.4
        )
        assert noisy.success_probability(ground) <= clean.success_probability(ground) + 0.1

    def test_zero_temperature_device_is_valid(self, planted_qubo_10):
        qubo, _ = planted_qubo_10
        device = DeviceModel(temperature_ghz=0.0)
        sampler = QuantumAnnealerSimulator(device=device, seed=3)
        sampleset = sampler.forward_anneal(qubo, num_reads=10)
        assert sampleset.num_reads == 10


class TestPathologicalProblems:
    def test_all_zero_qubo(self, fast_sampler):
        qubo = QUBOModel.empty(5)
        sampleset = fast_sampler.forward_anneal(qubo, num_reads=10)
        assert np.allclose(sampleset.energies(), 0.0)

    def test_single_variable_qubo(self, fast_sampler):
        qubo = QUBOModel(coefficients=np.array([[-3.0]]))
        sampleset = fast_sampler.forward_anneal(qubo, num_reads=30, pause_s=0.4)
        assert sampleset.lowest_energy() == pytest.approx(-3.0)

    def test_strongly_scaled_qubo_is_normalised(self, fast_sampler, planted_qubo_10):
        qubo, planted = planted_qubo_10
        scaled = qubo.scale(1e6)
        sampleset = fast_sampler.forward_anneal(scaled, num_reads=40, pause_s=0.4)
        assert sampleset.lowest_energy() <= scaled.energy(planted) * 0.5  # clearly negative

    def test_rank_deficient_channel_detection(self):
        # Two users sharing an identical channel column: ML is ambiguous but the
        # pipeline must not crash and must return a valid constellation vector.
        column = np.array([1.0 + 0.5j, -0.3 + 1.0j, 0.8 - 0.2j])
        channel = np.stack([column, column], axis=1)
        instance = MIMOInstance(
            channel_matrix=channel, received=column * 1.2, modulation="QPSK"
        )
        encoding = mimo_to_qubo(instance)
        result = brute_force_minimum(encoding.qubo)
        assert result.ground_state_count >= 1
        symbols = encoding.bits_to_symbols(result.assignment)
        for symbol in symbols:
            symbol_index(instance.modulation_scheme, symbol)

    def test_greedy_on_constant_qubo(self):
        solution = GreedySearchSolver().solve(QUBOModel.empty(6))
        assert solution.energy == 0.0

    def test_local_searchers_on_single_deep_minimum(self):
        # A needle-in-a-haystack model: one strongly favoured assignment.
        qubo = QUBOModel(coefficients=np.diag([-100.0, 1e-3, 1e-3, 1e-3]))
        solution = SimulatedAnnealingSolver(num_sweeps=50).solve(qubo, rng=4)
        assert solution.assignment[0] == 1


class TestUnsuccessfulSolvers:
    def test_tts_is_infinite_when_never_successful(self, fast_sampler):
        bundle = synthesize_instance(3, "64-QAM", seed=1)
        sampleset = fast_sampler.forward_anneal(bundle.encoding.qubo, num_reads=5)
        # With 5 reads on an 18-variable problem success is unlikely; whatever
        # happens, TTS must be computable and positive or infinite.
        tts = time_to_solution(
            sampleset.success_probability(bundle.ground_energy),
            sampleset.metadata["schedule_duration_us"],
        )
        assert tts.tts_us > 0
        assert tts.repeats >= 1.0 or not tts.is_finite

    def test_hybrid_preserves_classical_candidate_when_ra_fails(self, fast_sampler):
        bundle = synthesize_instance(3, "64-QAM", seed=2)
        hybrid = HybridQuboSolver(sampler=fast_sampler, switch_s=0.97, num_reads=5)
        result = hybrid.solve(bundle.encoding.qubo, rng=5)
        # At s_p = 0.97 the anneal barely moves; the hybrid must still report a
        # best energy no worse than its classical candidate.
        assert result.best_energy <= result.initial_solution.energy + 1e-9


class TestNoisyTransmissionEdgeCases:
    def test_extremely_low_snr_still_produces_valid_instance(self):
        config = MIMOConfig(num_users=2, modulation="16-QAM", snr_db=-20.0)
        transmission = simulate_transmission(config, rng=3)
        encoding = mimo_to_qubo(transmission.instance)
        assert encoding.num_variables == 8
        assert np.isfinite(encoding.constant)

    def test_schedule_with_zero_length_pause(self, fast_sampler, planted_qubo_10):
        qubo, _ = planted_qubo_10
        schedule = forward_anneal_schedule(1.0, pause_s=0.5, pause_duration_us=0.0)
        sampleset = fast_sampler.sample_qubo(qubo, schedule, num_reads=10)
        assert sampleset.num_reads == 10
