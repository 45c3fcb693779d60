"""Tests for repro.wireless.mimo."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.wireless.mimo import MIMOConfig, MIMOInstance, residual_energy, simulate_transmission
from tests.wireless_fixtures import IdentityChannel, maximum_likelihood_detect


class TestMIMOConfig:
    def test_defaults(self):
        config = MIMOConfig(num_users=4, modulation="QPSK")
        assert config.receive_antennas == 4
        assert config.bits_per_channel_use == 8
        assert config.qubo_variable_count == 8
        assert config.noise_variance == 0.0

    def test_explicit_receive_antennas(self):
        config = MIMOConfig(num_users=2, modulation="BPSK", num_receive_antennas=6)
        assert config.receive_antennas == 6

    def test_snr_gives_noise(self):
        config = MIMOConfig(num_users=2, modulation="QPSK", snr_db=10.0)
        assert config.noise_variance > 0.0

    def test_invalid_users(self):
        with pytest.raises(ConfigurationError):
            MIMOConfig(num_users=0)

    def test_invalid_modulation(self):
        with pytest.raises(Exception):
            MIMOConfig(num_users=2, modulation="1024-QAM")

    @pytest.mark.parametrize(
        "modulation,expected", [("BPSK", 8), ("QPSK", 16), ("16-QAM", 32), ("64-QAM", 48)]
    )
    def test_variable_counts(self, modulation, expected):
        assert MIMOConfig(num_users=8, modulation=modulation).qubo_variable_count == expected


class TestMIMOInstance:
    def test_dimension_check(self, rng):
        with pytest.raises(ConfigurationError, match="received vector length 4 does not match"):
            MIMOInstance(
                channel_matrix=rng.standard_normal((3, 2)),
                received=rng.standard_normal(4),
                modulation="BPSK",
            )

    def test_objective_matches_residual(self, mimo_transmission_qpsk):
        instance = mimo_transmission_qpsk.instance
        candidate = mimo_transmission_qpsk.transmitted_symbols
        assert instance.objective(candidate) == pytest.approx(
            residual_energy(instance.channel_matrix, instance.received, candidate)
        )

    def test_noiseless_transmitted_has_zero_objective(self, mimo_transmission_qpsk):
        instance = mimo_transmission_qpsk.instance
        objective = instance.objective(mimo_transmission_qpsk.transmitted_symbols)
        assert objective == pytest.approx(0.0, abs=1e-18)


class TestSimulateTransmission:
    def test_reproducible(self):
        config = MIMOConfig(num_users=3, modulation="16-QAM")
        first = simulate_transmission(config, rng=5)
        second = simulate_transmission(config, rng=5)
        assert np.allclose(first.instance.channel_matrix, second.instance.channel_matrix)
        assert np.array_equal(first.transmitted_bits, second.transmitted_bits)

    def test_bits_match_symbols(self, mimo_transmission_qpsk):
        modulation = mimo_transmission_qpsk.instance.modulation_scheme
        expected = modulation.modulate_bits(mimo_transmission_qpsk.transmitted_bits)
        assert np.allclose(expected, mimo_transmission_qpsk.transmitted_symbols)

    def test_noisy_transmission(self):
        config = MIMOConfig(num_users=2, modulation="QPSK", snr_db=5.0)
        transmission = simulate_transmission(config, rng=3)
        assert transmission.noise_variance > 0
        assert transmission.instance.objective(transmission.transmitted_symbols) > 0

    def test_config_summary(self, mimo_transmission_qpsk):
        assert "QPSK" in mimo_transmission_qpsk.config_summary


class TestMaximumLikelihood:
    def test_recovers_transmission_over_identity_channel(self, rng):
        config = MIMOConfig(num_users=3, modulation="16-QAM")
        transmission = simulate_transmission(config, IdentityChannel(), rng)
        result = maximum_likelihood_detect(transmission.instance)
        assert np.allclose(result.symbols, transmission.transmitted_symbols)
        assert np.array_equal(result.bits, transmission.transmitted_bits)

    def test_recovers_noiseless_random_phase(self, mimo_transmission_qpsk):
        result = maximum_likelihood_detect(mimo_transmission_qpsk.instance)
        assert np.allclose(result.symbols, mimo_transmission_qpsk.transmitted_symbols)
        assert result.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_guard_on_size(self, rng):
        config = MIMOConfig(num_users=10, modulation="64-QAM")
        transmission = simulate_transmission(config, rng=rng)
        with pytest.raises(ConfigurationError):
            maximum_likelihood_detect(transmission.instance)

    def test_metadata_enumeration_count(self, mimo_transmission_qpsk):
        result = maximum_likelihood_detect(mimo_transmission_qpsk.instance)
        assert result.metadata["enumerated"] == 4 ** 3
