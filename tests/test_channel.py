"""Tests for repro.wireless.channel."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.wireless.channel import (
    RayleighFadingChannel,
    UnitGainRandomPhaseChannel,
    apply_channel,
    awgn,
    noise_variance_for_snr,
)
from tests.wireless_fixtures import IdentityChannel


class TestUnitGainRandomPhaseChannel:
    def test_shape(self, rng):
        matrix = UnitGainRandomPhaseChannel().sample(4, 6, rng)
        assert matrix.shape == (4, 6)

    def test_unit_magnitude(self, rng):
        matrix = UnitGainRandomPhaseChannel().sample(5, 5, rng)
        assert np.allclose(np.abs(matrix), 1.0)

    def test_reproducible_with_seed(self):
        first = UnitGainRandomPhaseChannel().sample(3, 3, 11)
        second = UnitGainRandomPhaseChannel().sample(3, 3, 11)
        assert np.allclose(first, second)

    def test_invalid_dimensions(self, rng):
        with pytest.raises(ConfigurationError):
            UnitGainRandomPhaseChannel().sample(0, 3, rng)


class TestRayleighChannel:
    def test_average_power(self, rng):
        matrix = RayleighFadingChannel().sample(200, 200, rng)
        assert np.mean(np.abs(matrix) ** 2) == pytest.approx(1.0, rel=0.05)


class TestIdentityChannel:
    def test_square(self, rng):
        assert np.allclose(IdentityChannel().sample(3, 3, rng), np.eye(3))

    def test_rectangular(self, rng):
        matrix = IdentityChannel().sample(4, 2, rng)
        assert np.allclose(matrix[:2, :], np.eye(2))
        assert np.allclose(matrix[2:, :], 0.0)


class TestNoise:
    def test_zero_variance_is_exact_zero(self):
        assert np.all(awgn(5, 0.0) == 0)

    def test_variance(self, rng):
        noise = awgn(20000, 2.0, rng)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(2.0, rel=0.05)

    def test_negative_variance_rejected(self):
        with pytest.raises(ConfigurationError, match="noise_variance must be non-negative"):
            awgn(3, -1.0)

    def test_noise_variance_for_snr(self):
        # SNR 0 dB with 4 users and unit symbol energy -> variance 4.
        assert noise_variance_for_snr(0.0, 1.0, 4) == pytest.approx(4.0)

    def test_noise_variance_decreases_with_snr(self):
        assert noise_variance_for_snr(20.0) < noise_variance_for_snr(0.0)


class TestApplyChannel:
    def test_noiseless_product(self, rng):
        channel = UnitGainRandomPhaseChannel().sample(3, 3, rng)
        symbols = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        received = apply_channel(channel, symbols, 0.0)
        assert np.allclose(received, channel @ symbols)

    def test_dimension_mismatch(self, rng):
        channel = UnitGainRandomPhaseChannel().sample(3, 3, rng)
        with pytest.raises(ConfigurationError, match="3 transmit antennas but 4 symbols"):
            apply_channel(channel, np.ones(4))

    def test_non_2d_channel_rejected(self):
        with pytest.raises(ConfigurationError, match="channel_matrix must be 2-D"):
            apply_channel(np.ones(3), np.ones(3))
