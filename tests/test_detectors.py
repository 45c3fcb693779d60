"""Tests for the signal-domain MIMO detectors (ZF, MMSE, sphere decoders)."""

import numpy as np
import pytest

from repro.classical.mmse import MMSEDetector
from repro.classical.sphere_decoder import FixedComplexitySphereDecoder, KBestSphereDecoder
from repro.classical.zero_forcing import ZeroForcingDetector
from repro.exceptions import ConfigurationError, SolverError
from repro.wireless.channel import RayleighFadingChannel
from repro.wireless.mimo import MIMOConfig, MIMOInstance, simulate_transmission
from tests.wireless_fixtures import IdentityChannel, maximum_likelihood_detect, symbol_index


def _noiseless_transmission(users=3, modulation="16-QAM", seed=5, receive=None):
    config = MIMOConfig(num_users=users, modulation=modulation, num_receive_antennas=receive)
    return simulate_transmission(config, rng=seed)


class TestZeroForcing:
    def test_exact_on_identity_channel(self):
        transmission = simulate_transmission(
            MIMOConfig(num_users=4, modulation="64-QAM"), IdentityChannel(), rng=1
        )
        detected = ZeroForcingDetector().detect(transmission.instance)
        assert np.allclose(detected, transmission.transmitted_symbols)

    def test_exact_on_noiseless_well_conditioned_channel(self):
        transmission = simulate_transmission(
            MIMOConfig(num_users=2, modulation="QPSK", num_receive_antennas=8),
            RayleighFadingChannel(),
            rng=2,
        )
        detected = ZeroForcingDetector().detect(transmission.instance)
        assert np.allclose(detected, transmission.transmitted_symbols)

    def test_outputs_constellation_points(self):
        transmission = _noiseless_transmission()
        detected = ZeroForcingDetector().detect(transmission.instance)
        modulation = transmission.instance.modulation_scheme
        for symbol in detected:
            symbol_index(modulation, symbol)

    def test_underdetermined_rejected(self, rng):
        instance = MIMOInstance(
            channel_matrix=rng.standard_normal((2, 4)) + 0j,
            received=rng.standard_normal(2) + 0j,
            modulation="QPSK",
        )
        with pytest.raises(SolverError):
            ZeroForcingDetector().detect(instance)


class TestMMSE:
    def test_matches_zero_forcing_without_noise(self):
        transmission = _noiseless_transmission(users=3, modulation="16-QAM", seed=8)
        zf = ZeroForcingDetector().detect(transmission.instance)
        mmse = MMSEDetector().detect(transmission.instance)
        assert np.allclose(zf, mmse)

    def test_negative_variance_rejected(self):
        with pytest.raises(ConfigurationError, match="noise_variance must be non-negative"):
            MMSEDetector(noise_variance=-0.1)

    def test_detects_reasonably_under_noise(self):
        config = MIMOConfig(num_users=2, modulation="QPSK", num_receive_antennas=8, snr_db=15.0)
        transmission = simulate_transmission(config, RayleighFadingChannel(), rng=4)
        detected = MMSEDetector(noise_variance=transmission.noise_variance).detect(
            transmission.instance
        )
        errors = np.mean(np.abs(detected - transmission.transmitted_symbols) > 1e-9)
        assert errors <= 0.5


class TestKBest:
    def test_full_width_matches_ml(self):
        transmission = _noiseless_transmission(users=2, modulation="16-QAM", seed=10)
        ml = maximum_likelihood_detect(transmission.instance)
        detected = KBestSphereDecoder(k_best=256).detect(transmission.instance)
        assert transmission.instance.objective(detected) == pytest.approx(
            ml.objective_value, abs=1e-9
        )

    def test_moderate_width_finds_noiseless_solution(self):
        transmission = _noiseless_transmission(users=3, modulation="QPSK", seed=11)
        detected = KBestSphereDecoder(k_best=8).detect(transmission.instance)
        assert transmission.instance.objective(detected) == pytest.approx(0.0, abs=1e-9)

    def test_objective_improves_with_k(self):
        transmission = _noiseless_transmission(users=3, modulation="16-QAM", seed=12)
        narrow = KBestSphereDecoder(k_best=1).detect(transmission.instance)
        wide = KBestSphereDecoder(k_best=32).detect(transmission.instance)
        assert (
            transmission.instance.objective(wide)
            <= transmission.instance.objective(narrow) + 1e-9
        )

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            KBestSphereDecoder(k_best=0)

    def test_underdetermined_rejected(self, rng):
        instance = MIMOInstance(
            channel_matrix=rng.standard_normal((1, 3)) + 0j,
            received=rng.standard_normal(1) + 0j,
            modulation="BPSK",
        )
        with pytest.raises(SolverError):
            KBestSphereDecoder().detect(instance)


class TestFCSD:
    def test_full_expansion_matches_ml(self):
        transmission = _noiseless_transmission(users=2, modulation="QPSK", seed=13)
        ml = maximum_likelihood_detect(transmission.instance)
        detected = FixedComplexitySphereDecoder(full_expansion_levels=2).detect(
            transmission.instance
        )
        assert transmission.instance.objective(detected) == pytest.approx(
            ml.objective_value, abs=1e-9
        )

    def test_sic_only_runs(self):
        transmission = _noiseless_transmission(users=3, modulation="16-QAM", seed=14)
        detected = FixedComplexitySphereDecoder(full_expansion_levels=0).detect(
            transmission.instance
        )
        assert detected.size == 3

    def test_negative_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedComplexitySphereDecoder(full_expansion_levels=-1)

    def test_more_expansion_never_hurts(self):
        transmission = _noiseless_transmission(users=3, modulation="16-QAM", seed=16)
        shallow = FixedComplexitySphereDecoder(full_expansion_levels=0).detect(
            transmission.instance
        )
        deep = FixedComplexitySphereDecoder(full_expansion_levels=2).detect(transmission.instance)
        assert (
            transmission.instance.objective(deep)
            <= transmission.instance.objective(shallow) + 1e-9
        )
