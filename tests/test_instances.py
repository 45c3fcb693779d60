"""Tests for repro.experiments.instances."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.instances import (
    paper_figure6_configurations,
    synthesize_instance,
    synthesize_instances,
    variables_for,
)
from repro.qubo.energy import brute_force_minimum


class TestSizingHelpers:
    @pytest.mark.parametrize(
        "users,modulation,expected",
        [(8, "BPSK", 8), (8, "QPSK", 16), (8, "16-QAM", 32), (8, "64-QAM", 48)],
    )
    def test_variables_for(self, users, modulation, expected):
        assert variables_for(users, modulation) == expected

    def test_figure6_configurations(self):
        configurations = dict(
            (modulation, users) for users, modulation in paper_figure6_configurations(36)
        )
        assert configurations == {"BPSK": 36, "QPSK": 18, "16-QAM": 9, "64-QAM": 6}

    def test_figure6_configurations_partial(self):
        # 20 variables cannot be built from 64-QAM (6 bits/symbol).
        modulations = [modulation for _, modulation in paper_figure6_configurations(20)]
        assert "64-QAM" not in modulations


class TestSynthesizeInstance:
    def test_ground_state_is_transmitted_payload(self):
        bundle = synthesize_instance(3, "QPSK", seed=5)
        assert bundle.ground_energy == pytest.approx(-bundle.encoding.constant)
        assert bundle.encoding.qubo.energy(bundle.ground_state) == pytest.approx(
            bundle.ground_energy
        )

    def test_exhaustive_verification_agrees(self):
        bundle = synthesize_instance(2, "16-QAM", seed=3)
        exact = brute_force_minimum(bundle.encoding.qubo)
        assert exact.energy == pytest.approx(bundle.ground_energy)

    def test_deterministic_by_seed(self):
        first = synthesize_instance(4, "16-QAM", seed=9)
        second = synthesize_instance(4, "16-QAM", seed=9)
        assert np.allclose(
            first.transmission.instance.channel_matrix,
            second.transmission.instance.channel_matrix,
        )
        assert np.array_equal(first.ground_state, second.ground_state)

    def test_different_seeds_differ(self):
        first = synthesize_instance(4, "16-QAM", seed=1)
        second = synthesize_instance(4, "16-QAM", seed=2)
        assert not np.allclose(
            first.transmission.instance.channel_matrix,
            second.transmission.instance.channel_matrix,
        )

    def test_describe(self):
        bundle = synthesize_instance(2, "64-QAM", seed=0)
        description = bundle.describe()
        assert "64-QAM" in description
        assert "12 variables" in description

    def test_properties(self):
        bundle = synthesize_instance(5, "QPSK", seed=0)
        assert bundle.num_users == 5
        assert bundle.num_variables == 10
        assert bundle.modulation == "QPSK"


class TestSynthesizeMany:
    def test_count_and_independence(self):
        bundles = synthesize_instances(3, 2, "QPSK", base_seed=4)
        assert len(bundles) == 3
        assert not np.allclose(
            bundles[0].transmission.instance.channel_matrix,
            bundles[1].transmission.instance.channel_matrix,
        )

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            synthesize_instances(0, 2, "QPSK")
