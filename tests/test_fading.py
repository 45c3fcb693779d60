"""Tests for repro.wireless.fading (the channel-impairment engine)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.wireless.channel import RayleighFadingChannel, effective_noise_variance
from repro.wireless.fading import (
    ChannelImpairments,
    FadingProcess,
    bessel_j0,
    correlation_root,
    estimate_channel,
    exponential_correlation,
    jakes_correlation,
)
from repro.wireless.mimo import MIMOConfig, simulate_transmission


class TestExponentialCorrelation:
    def test_structure(self):
        matrix = exponential_correlation(4, 0.5)
        assert matrix.shape == (4, 4)
        assert np.allclose(np.diag(matrix), 1.0)
        assert matrix[0, 1] == pytest.approx(0.5)
        assert matrix[0, 3] == pytest.approx(0.125)
        assert np.allclose(matrix, matrix.T)

    def test_zero_rho_is_identity(self):
        assert np.array_equal(exponential_correlation(3, 0.0), np.eye(3))

    def test_rho_out_of_range(self):
        with pytest.raises(ConfigurationError):
            exponential_correlation(3, 1.0)
        with pytest.raises(ConfigurationError):
            exponential_correlation(3, -0.1)

    def test_root_reconstructs_the_matrix(self):
        root = correlation_root(5, 0.8)
        assert np.allclose(root @ root.T, exponential_correlation(5, 0.8))

    def test_root_is_memoized_and_read_only(self):
        root = correlation_root(4, 0.6)
        assert correlation_root(4, 0.6) is root
        with pytest.raises(ValueError):
            root[0, 0] = 2.0


class TestBesselAndJakes:
    def test_bessel_reference_values(self):
        # Reference values from Abramowitz & Stegun tables.
        references = {
            0.0: 1.0,
            1.0: 0.7651976865579666,
            2.404825557695773: 0.0,  # first zero
            5.0: -0.17759677131433835,
            10.0: -0.2459357644513483,
        }
        for x, reference in references.items():
            assert bessel_j0(x) == pytest.approx(reference, abs=5e-8)

    def test_bessel_is_even(self):
        assert bessel_j0(-3.7) == pytest.approx(bessel_j0(3.7))

    def test_jakes_static_user(self):
        assert jakes_correlation(0.0) == pytest.approx(1.0)

    def test_jakes_decorrelates_with_speed(self):
        walking = jakes_correlation(1.5)
        highway = jakes_correlation(40.0)
        assert walking < 1.0
        assert highway < walking

    def test_jakes_rejects_negative_velocity(self):
        with pytest.raises(ConfigurationError):
            jakes_correlation(-1.0)


class TestChannelImpairments:
    def test_default_is_identity(self):
        assert ChannelImpairments().is_identity

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rx_correlation": 0.2},
            {"tx_correlation": 0.2},
            {"temporal_correlation": 0.5},
            {"csi_error_variance": 0.1},
            {"interference_power": 0.5},
            {"temporal_correlation": -0.5},
        ],
    )
    def test_any_active_knob_breaks_identity(self, kwargs):
        assert not ChannelImpairments(**kwargs).is_identity

    def test_zero_temporal_correlation_is_identity(self):
        assert ChannelImpairments(temporal_correlation=0.0).is_identity

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rx_correlation": 1.0},
            {"tx_correlation": -0.1},
            {"temporal_correlation": 1.5},
            {"csi_error_variance": -0.1},
            {"interference_power": -1.0},
            {"temporal_correlation": -1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ChannelImpairments(**kwargs)

    def test_from_mobility_uses_jakes(self):
        impairments = ChannelImpairments.from_mobility(30.0)
        assert impairments.temporal_correlation == jakes_correlation(30.0)


class TestFadingProcess:
    def test_identity_matches_fresh_rayleigh_draws(self):
        process = FadingProcess(4, 3)
        reference = RayleighFadingChannel()
        process_rng = np.random.default_rng(3)
        reference_rng = np.random.default_rng(3)
        for _ in range(4):
            assert np.array_equal(
                process.advance(process_rng), reference.sample(4, 3, reference_rng)
            )

    def test_static_channel_at_unit_correlation(self):
        process = FadingProcess(
            2, 2, ChannelImpairments(temporal_correlation=1.0)
        )
        generator = np.random.default_rng(5)
        first = process.advance(generator)
        second = process.advance(generator)
        assert np.allclose(first, second)

    def test_empirical_block_correlation(self):
        process = FadingProcess(
            1, 1, ChannelImpairments(temporal_correlation=0.95)
        )
        generator = np.random.default_rng(2)
        samples = np.array([process.advance(generator)[0, 0] for _ in range(12000)])
        measured = np.mean(samples[1:] * np.conj(samples[:-1])) / np.mean(
            np.abs(samples) ** 2
        )
        assert measured.real == pytest.approx(0.95, abs=0.03)

    def test_constant_rng_consumption_across_doppler(self):
        # A block consumes the same randomness whatever the correlation, so
        # sweeping Doppler never shifts draws made after each advance().
        followers = []
        for coefficient in (0.0, 0.5, 0.99):
            process = FadingProcess(
                3, 2, ChannelImpairments(temporal_correlation=coefficient)
            )
            generator = np.random.default_rng(11)
            for _ in range(3):
                process.advance(generator)
            followers.append(generator.standard_normal(4))
        assert np.array_equal(followers[0], followers[1])
        assert np.array_equal(followers[1], followers[2])

    def test_receive_correlation_statistics(self):
        process = FadingProcess(2, 1, ChannelImpairments(rx_correlation=0.9))
        generator = np.random.default_rng(0)
        accumulated = 0.0
        count = 3000
        for _ in range(count):
            sample = process.advance(generator)
            accumulated += (sample[0, 0] * np.conj(sample[1, 0])).real
        assert accumulated / count == pytest.approx(0.9, abs=0.07)

    def test_correlation_preserves_average_power(self):
        process = FadingProcess(4, 4, ChannelImpairments(rx_correlation=0.7, tx_correlation=0.5))
        generator = np.random.default_rng(1)
        power = np.mean([np.mean(np.abs(process.advance(generator)) ** 2) for _ in range(1500)])
        assert power == pytest.approx(1.0, abs=0.05)

    def test_correlation_colours_the_scattering_draw(self):
        process = FadingProcess(3, 2, ChannelImpairments(rx_correlation=0.8))
        scattering = RayleighFadingChannel().sample(3, 2, np.random.default_rng(4))
        assert np.array_equal(
            process.advance(np.random.default_rng(4)),
            correlation_root(3, 0.8) @ scattering,
        )

    def test_spatial_shaping_applies_per_block(self):
        process = FadingProcess(
            2, 1, ChannelImpairments(rx_correlation=0.9, temporal_correlation=0.5)
        )
        generator = np.random.default_rng(0)
        accumulated = 0.0
        count = 3000
        for _ in range(count):
            sample = process.advance(generator)
            accumulated += (sample[0, 0] * np.conj(sample[1, 0])).real
        assert accumulated / count == pytest.approx(0.9, abs=0.07)


class TestEstimateChannel:
    def test_zero_variance_returns_true_channel_without_draws(self):
        true_channel = RayleighFadingChannel().sample(3, 3, 1)
        generator = np.random.default_rng(9)
        before = generator.bit_generator.state
        estimate = estimate_channel(true_channel, 0.0, generator)
        assert estimate is true_channel or np.array_equal(estimate, true_channel)
        assert generator.bit_generator.state == before

    def test_error_statistics(self):
        true_channel = np.zeros((20, 20), dtype=complex)
        estimate = estimate_channel(true_channel, 0.25, 3)
        assert np.mean(np.abs(estimate - true_channel) ** 2) == pytest.approx(
            0.25, rel=0.15
        )

    def test_negative_variance_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_channel(np.eye(2), -0.1)


class TestEffectiveNoiseVariance:
    def test_adds_interference(self):
        assert effective_noise_variance(0.5, 1.5) == pytest.approx(2.0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError, match="noise_variance must be non-negative"):
            effective_noise_variance(-1.0)
        with pytest.raises(ConfigurationError, match="interference_power must be non-negative"):
            effective_noise_variance(1.0, -0.5)


def _faded(config, impairments, seed):
    """One impaired transmission whose channel a FadingProcess drew."""
    generator = np.random.default_rng(seed)
    process = FadingProcess(config.receive_antennas, config.num_users, impairments)
    channel = process.advance(generator)
    return simulate_transmission(
        config, rng=generator, impairments=impairments, channel_matrix=channel
    )


class TestSimulateTransmissionImpairments:
    def test_identity_impairments_are_bitwise_neutral(self):
        config = MIMOConfig(num_users=4, modulation="QPSK", snr_db=10.0)
        for seed in range(5):
            plain = simulate_transmission(config, rng=seed)
            impaired = simulate_transmission(
                config, rng=seed, impairments=ChannelImpairments()
            )
            assert np.array_equal(
                plain.instance.channel_matrix, impaired.instance.channel_matrix
            )
            assert np.array_equal(plain.instance.received, impaired.instance.received)
            assert np.array_equal(plain.transmitted_bits, impaired.transmitted_bits)
            assert impaired.has_perfect_csi

    def test_imperfect_csi_separates_estimate_from_truth(self):
        config = MIMOConfig(num_users=3, modulation="QPSK")
        transmission = _faded(config, ChannelImpairments(csi_error_variance=0.1), 11)
        assert not transmission.has_perfect_csi
        assert not np.array_equal(
            transmission.instance.channel_matrix, transmission.true_channel
        )
        # The received vector was produced by the *true* channel (noiseless).
        residual = transmission.instance.received - (
            transmission.true_channel @ transmission.transmitted_symbols
        )
        assert np.linalg.norm(residual) < 1e-12

    def test_interference_raises_noise_floor(self):
        config = MIMOConfig(num_users=2, modulation="BPSK")
        impairments = ChannelImpairments(interference_power=4.0)
        residuals = []
        for seed in range(200):
            transmission = _faded(config, impairments, seed)
            # Perfect CSI: the instance carries the channel the symbols traversed.
            assert transmission.has_perfect_csi
            residual = transmission.instance.received - (
                transmission.instance.channel_matrix @ transmission.transmitted_symbols
            )
            residuals.append(np.mean(np.abs(residual) ** 2))
        assert np.mean(residuals) == pytest.approx(4.0, rel=0.2)
        assert transmission.interference_power == 4.0

    def test_supplied_channel_matrix_is_used(self):
        config = MIMOConfig(num_users=2, modulation="BPSK")
        channel = np.eye(2, dtype=complex)
        transmission = simulate_transmission(config, rng=0, channel_matrix=channel)
        assert np.array_equal(transmission.instance.channel_matrix, channel)

    def test_supplied_channel_matrix_shape_checked(self):
        config = MIMOConfig(num_users=2, modulation="BPSK")
        with pytest.raises(ConfigurationError, match="channel_matrix has shape"):
            simulate_transmission(config, rng=0, channel_matrix=np.eye(3))

    def test_noiseless_ground_energy_unknown_under_impairments(self):
        from repro.transform.mimo_to_qubo import mimo_to_qubo

        config = MIMOConfig(num_users=2, modulation="QPSK")
        perfect = simulate_transmission(config, rng=5)
        assert mimo_to_qubo(perfect.instance).noiseless_ground_energy(perfect) is not None

        for impairments in (
            ChannelImpairments(csi_error_variance=0.2),
            ChannelImpairments(interference_power=1.0),
        ):
            impaired = _faded(config, impairments, 5)
            encoding = mimo_to_qubo(impaired.instance)
            assert encoding.noiseless_ground_energy(impaired) is None

    def test_correlated_draw_reaches_the_instance(self):
        config = MIMOConfig(num_users=3, modulation="QPSK")
        impairments = ChannelImpairments(rx_correlation=0.8)
        impaired = _faded(config, impairments, 4)
        expected = FadingProcess(3, 3, impairments).advance(np.random.default_rng(4))
        assert np.array_equal(impaired.instance.channel_matrix, expected)
        assert impaired.has_perfect_csi

    @pytest.mark.parametrize(
        "impairments",
        [
            ChannelImpairments(rx_correlation=0.5),
            ChannelImpairments(temporal_correlation=0.9),
            ChannelImpairments(csi_error_variance=0.1),
            ChannelImpairments(interference_power=1.0),
        ],
    )
    def test_active_impairments_need_a_channel_matrix(self, impairments):
        config = MIMOConfig(num_users=2, modulation="QPSK")
        with pytest.raises(ConfigurationError, match="channel_matrix"):
            simulate_transmission(config, rng=0, impairments=impairments)
