"""Tests for repro.metrics (quality, TTS, statistics)."""

import numpy as np
import pytest

from repro.annealing.sampleset import SampleSet
from repro.exceptions import ConfigurationError
from repro.metrics.quality import (
    delta_e_distribution,
    delta_e_percent,
    success_probability,
)
from repro.metrics.statistics import histogram_percentiles
from repro.metrics.tts import time_to_solution


def _sampleset(energies, counts=None):
    """Reads of one distinct assignment per energy, ``counts[i]`` times each."""
    counts = counts or [1] * len(energies)
    rows = np.repeat(np.arange(len(energies)), counts)
    return SampleSet.from_arrays(rows[:, None], np.asarray(energies)[rows])


class TestDeltaEPercent:
    def test_ground_state_is_zero(self):
        assert delta_e_percent(-10.0, -10.0) == 0.0

    def test_zero_energy_sample_is_100(self):
        assert delta_e_percent(0.0, -10.0) == pytest.approx(100.0)

    def test_halfway(self):
        assert delta_e_percent(-5.0, -10.0) == pytest.approx(50.0)

    def test_monotone_in_sample_energy(self):
        values = [delta_e_percent(energy, -10.0) for energy in (-10.0, -7.5, -2.0, 1.0)]
        assert values == sorted(values)

    def test_requires_negative_ground(self):
        with pytest.raises(ConfigurationError):
            delta_e_percent(1.0, 0.0)

    def test_distribution_expands_occurrences(self):
        sampleset = _sampleset([-10.0, -5.0], counts=[3, 1])
        distribution = delta_e_distribution(sampleset, -10.0)
        assert distribution.size == 4
        assert np.sum(distribution == 0.0) == 3

    def test_distribution_from_plain_energies(self):
        distribution = delta_e_distribution([-10.0, 0.0], -10.0)
        assert list(distribution) == [0.0, 100.0]


class TestSuccessAndExpectation:
    def test_success_probability(self):
        sampleset = _sampleset([-10.0, -9.0, -5.0], counts=[2, 2, 6])
        assert success_probability(sampleset, -10.0) == pytest.approx(0.2)


class TestTTS:
    def test_single_run_sufficient(self):
        result = time_to_solution(1.0, duration_us=2.0)
        assert result.tts_us == pytest.approx(2.0)
        assert result.repeats == 1.0

    def test_never_succeeds(self):
        result = time_to_solution(0.0, duration_us=2.0)
        assert not result.is_finite

    def test_known_value(self):
        # p*=0.5, Ct=99%: repeats = log(0.01)/log(0.5) ~ 6.64
        result = time_to_solution(0.5, duration_us=1.0)
        assert result.tts_us == pytest.approx(np.log(0.01) / np.log(0.5), rel=1e-6)

    def test_repeats_floored_at_one(self):
        result = time_to_solution(0.999999, duration_us=3.0)
        assert result.tts_us == pytest.approx(3.0)

    def test_monotone_in_probability(self):
        values = [time_to_solution(p, 1.0).tts_us for p in (0.05, 0.2, 0.5, 0.9)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"success_probability": -0.1, "duration_us": 1.0},
            {"success_probability": 0.5, "duration_us": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            time_to_solution(**kwargs)


class TestStatistics:
    def test_histogram_percentiles(self):
        fractions = histogram_percentiles([0.0, 1.0, 5.0, 50.0], [0.0, 2.0, 10.0, 100.0])
        assert fractions.sum() == pytest.approx(1.0)
        assert fractions[0] == pytest.approx(0.5)

    def test_histogram_invalid_edges(self):
        with pytest.raises(ConfigurationError):
            histogram_percentiles([1.0], [0.0])
        with pytest.raises(ConfigurationError):
            histogram_percentiles([1.0], [1.0, 0.5])

    def test_histogram_empty_values(self):
        assert np.all(histogram_percentiles([], [0.0, 1.0]) == 0)
