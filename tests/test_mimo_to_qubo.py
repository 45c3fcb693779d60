"""Tests for repro.transform.mimo_to_qubo (the QuAMax reduction)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.qubo.energy import brute_force_minimum
from repro.transform.mimo_to_qubo import mimo_to_qubo
from repro.wireless.mimo import MIMOConfig, simulate_transmission
from repro.wireless.metrics import bit_error_rate
from tests.wireless_fixtures import maximum_likelihood_detect


@pytest.mark.parametrize(
    "modulation,users", [("BPSK", 6), ("QPSK", 3), ("16-QAM", 2), ("64-QAM", 1)]
)
class TestExactEquivalence:
    def test_energy_plus_constant_equals_ml_objective(self, modulation, users):
        transmission = simulate_transmission(
            MIMOConfig(num_users=users, modulation=modulation), rng=17
        )
        encoding = mimo_to_qubo(transmission.instance)
        rng = np.random.default_rng(3)
        for _ in range(20):
            bits = rng.integers(0, 2, size=encoding.num_variables)
            symbols = encoding.bits_to_symbols(bits)
            assert encoding.qubo.energy(bits) + encoding.constant == pytest.approx(
                transmission.instance.objective(symbols)
            )

    def test_ground_state_matches_exhaustive_ml(self, modulation, users):
        transmission = simulate_transmission(
            MIMOConfig(num_users=users, modulation=modulation), rng=29
        )
        encoding = mimo_to_qubo(transmission.instance)
        qubo_ground = brute_force_minimum(encoding.qubo, max_variables=12)
        ml = maximum_likelihood_detect(transmission.instance, max_variables=12)
        assert qubo_ground.energy + encoding.constant == pytest.approx(ml.objective_value)

    def test_noiseless_transmitted_bits_are_ground_state(self, modulation, users):
        transmission = simulate_transmission(
            MIMOConfig(num_users=users, modulation=modulation), rng=41
        )
        encoding = mimo_to_qubo(transmission.instance)
        transmitted_bits = encoding.symbols_to_bits(transmission.transmitted_symbols)
        assert encoding.qubo.energy(transmitted_bits) + encoding.constant == pytest.approx(
            0.0, abs=1e-9
        )


class TestEncodingStructure:
    def test_variable_count(self, mimo_encoding_16qam):
        _, encoding = mimo_encoding_16qam
        assert encoding.num_variables == 12
        assert encoding.qubo.num_variables == 12

    def test_variable_names(self, mimo_encoding_16qam):
        _, encoding = mimo_encoding_16qam
        assert encoding.qubo.variable_names[0] == "u0b0"
        assert encoding.qubo.variable_names[-1] == "u2b3"

    def test_qubo_is_dense(self, mimo_encoding_16qam):
        # Couplings between one user's own I and Q bits vanish by construction,
        # so the density is below 1 but the model is still dense overall.
        _, encoding = mimo_encoding_16qam
        assert encoding.qubo.density() > 0.7

    def test_constant_is_non_negative(self, mimo_encoding_16qam):
        _, encoding = mimo_encoding_16qam
        assert encoding.constant >= 0.0


class TestDecoding:
    def test_symbols_to_bits_round_trip(self, mimo_encoding_16qam, rng):
        transmission, encoding = mimo_encoding_16qam
        modulation = transmission.instance.modulation_scheme
        symbols = modulation.points[rng.integers(0, modulation.order, size=3)]
        bits = encoding.symbols_to_bits(symbols)
        assert np.allclose(encoding.bits_to_symbols(bits), symbols)

    def test_payload_bits_match_transmitted(self, mimo_encoding_16qam):
        transmission, encoding = mimo_encoding_16qam
        transmitted_bits = encoding.symbols_to_bits(transmission.transmitted_symbols)
        payload = encoding.payload_bits(transmitted_bits)
        assert bit_error_rate(transmission.transmitted_bits, payload) == 0.0

    def test_detection_result_packaging(self, mimo_encoding_16qam):
        transmission, encoding = mimo_encoding_16qam
        transmitted_bits = encoding.symbols_to_bits(transmission.transmitted_symbols)
        result = encoding.detection_result(transmitted_bits, algorithm="test")
        assert result.algorithm == "test"
        assert result.objective_value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(result.symbols, transmission.transmitted_symbols)

    def test_wrong_length_rejected(self, mimo_encoding_16qam):
        _, encoding = mimo_encoding_16qam
        with pytest.raises(ConfigurationError, match="expected 12 QUBO bits, got 2"):
            encoding.bits_to_symbols([0, 1])

    def test_non_binary_rejected(self, mimo_encoding_16qam):
        _, encoding = mimo_encoding_16qam
        with pytest.raises(ConfigurationError, match="QUBO bits must be 0 or 1, got 2"):
            encoding.bits_to_symbols([2] * encoding.num_variables)

    def test_wrong_symbol_count_rejected(self, mimo_encoding_16qam):
        _, encoding = mimo_encoding_16qam
        with pytest.raises(ConfigurationError, match="expected 3 symbols, got 1"):
            encoding.symbols_to_bits([1 + 1j])


class TestNoisyInstances:
    def test_equivalence_holds_with_noise(self):
        transmission = simulate_transmission(
            MIMOConfig(num_users=2, modulation="QPSK", snr_db=6.0), rng=11
        )
        encoding = mimo_to_qubo(transmission.instance)
        rng = np.random.default_rng(5)
        for _ in range(10):
            bits = rng.integers(0, 2, size=encoding.num_variables)
            symbols = encoding.bits_to_symbols(bits)
            assert encoding.qubo.energy(bits) + encoding.constant == pytest.approx(
                transmission.instance.objective(symbols)
            )

    def test_rectangular_channel(self):
        transmission = simulate_transmission(
            MIMOConfig(num_users=2, modulation="16-QAM", num_receive_antennas=5), rng=13
        )
        encoding = mimo_to_qubo(transmission.instance)
        ml = maximum_likelihood_detect(transmission.instance, max_variables=12)
        ground = brute_force_minimum(encoding.qubo, max_variables=12)
        assert ground.energy + encoding.constant == pytest.approx(ml.objective_value)
