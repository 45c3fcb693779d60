"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.annealing.schedule import forward_anneal_schedule, reverse_anneal_schedule
from repro.metrics.quality import delta_e_percent
from repro.metrics.tts import time_to_solution
from repro.qubo.ising import bits_to_spins, ising_to_qubo, qubo_to_ising, spins_to_bits
from repro.qubo.model import QUBOModel
from repro.qubo.preprocessing import simplify_qubo
from repro.qubo.energy import brute_force_minimum
from repro.transform.symbol_mapping import (
    amplitude_to_transform_bits,
    transform_bits_to_amplitude,
    gray_bits_to_transform_bits,
    transform_bits_to_gray_bits,
)
from repro.wireless.modulation import get_modulation, gray_code, gray_decode

# Shared strategy: small square coefficient matrices with bounded entries.
_coefficients = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: hnp.arrays(
        dtype=np.float64,
        shape=(n, n),
        elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=32),
    )
)

_bits_strategy = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12)

_settings = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestQuboIsingProperties:
    @given(matrix=_coefficients, data=st.data())
    @_settings
    def test_qubo_to_ising_preserves_energy(self, matrix, data):
        qubo = QUBOModel(coefficients=matrix)
        ising = qubo_to_ising(qubo)
        bits = np.array(
            data.draw(
                st.lists(
                    st.integers(0, 1), min_size=qubo.num_variables, max_size=qubo.num_variables
                )
            )
        )
        assert ising.energy(bits_to_spins(bits)) == pytest.approx(qubo.energy(bits), abs=1e-7)

    @given(matrix=_coefficients, data=st.data())
    @_settings
    def test_ising_round_trip_preserves_energy(self, matrix, data):
        qubo = QUBOModel(coefficients=matrix)
        round_tripped = ising_to_qubo(qubo_to_ising(qubo))
        bits = np.array(
            data.draw(
                st.lists(
                    st.integers(0, 1), min_size=qubo.num_variables, max_size=qubo.num_variables
                )
            )
        )
        assert round_tripped.energy(bits) == pytest.approx(qubo.energy(bits), abs=1e-7)

    @given(matrix=_coefficients, data=st.data())
    @_settings
    def test_energy_delta_flip_consistency(self, matrix, data):
        qubo = QUBOModel(coefficients=matrix)
        n = qubo.num_variables
        bits = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8
        )
        index = data.draw(st.integers(min_value=0, max_value=n - 1))
        flipped = bits.copy()
        flipped[index] = 1 - flipped[index]
        assert qubo.energy_delta_flip(bits, index) == pytest.approx(
            qubo.energy(flipped) - qubo.energy(bits), abs=1e-7
        )

    @given(matrix=_coefficients)
    @_settings
    def test_preprocessing_never_raises_minimum(self, matrix):
        qubo = QUBOModel(coefficients=matrix)
        exact = brute_force_minimum(qubo)
        report = simplify_qubo(qubo)
        if report.reduced_qubo.num_variables > 0:
            reduced_exact = brute_force_minimum(report.reduced_qubo)
            lifted = report.lift_assignment(reduced_exact.assignment)
        else:
            lifted = report.lift_assignment(np.zeros(0, dtype=int))
        assert qubo.energy(lifted) == pytest.approx(exact.energy, abs=1e-7)


class TestSpinBitProperties:
    @given(bits=_bits_strategy)
    @_settings
    def test_spin_bit_round_trip(self, bits):
        bits = np.array(bits)
        assert np.array_equal(spins_to_bits(bits_to_spins(bits)), bits)

    @given(value=st.integers(min_value=0, max_value=10_000))
    @_settings
    def test_gray_code_bijective(self, value):
        assert gray_decode(gray_code(value)) == value

    @given(width=st.integers(1, 4), data=st.data())
    @_settings
    def test_transform_gray_round_trip(self, width, data):
        bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width)))
        assert gray_bits_to_transform_bits(transform_bits_to_gray_bits(bits)) == bits

    @given(width=st.integers(1, 4), scale=st.floats(0.1, 3.0), data=st.data())
    @_settings
    def test_amplitude_round_trip(self, width, scale, data):
        bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width)))
        amplitude = transform_bits_to_amplitude(bits, scale=scale)
        assert amplitude_to_transform_bits(amplitude, width, scale=scale) == bits


class TestModulationProperties:
    @given(
        name=st.sampled_from(["BPSK", "QPSK", "16-QAM", "64-QAM"]),
        seed=st.integers(0, 2 ** 16),
    )
    @_settings
    def test_modulate_demodulate_identity(self, name, seed):
        modulation = get_modulation(name)
        rng = np.random.default_rng(seed)
        bits = modulation.random_bits(8, rng)
        assert np.array_equal(modulation.demodulate_hard(modulation.modulate_bits(bits)), bits)


class TestMetricProperties:
    @given(
        ground=st.floats(min_value=-1000.0, max_value=-0.5, allow_nan=False),
        gap_fraction=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    @_settings
    def test_delta_e_non_negative_and_zero_at_ground(self, ground, gap_fraction):
        sample = ground + gap_fraction * abs(ground)
        value = delta_e_percent(sample, ground)
        assert value >= -1e-9
        assert delta_e_percent(ground, ground) == pytest.approx(0.0)

    @given(
        probability=st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
        duration=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    )
    @_settings
    def test_tts_at_least_one_run(self, probability, duration):
        result = time_to_solution(probability, duration)
        assert result.tts_us >= duration - 1e-9

    @given(
        low=st.floats(min_value=0.01, max_value=0.49, allow_nan=False),
        high=st.floats(min_value=0.5, max_value=0.99, allow_nan=False),
        duration=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    )
    @_settings
    def test_tts_monotone_in_probability(self, low, high, duration):
        assert (
            time_to_solution(high, duration).tts_us <= time_to_solution(low, duration).tts_us + 1e-9
        )


class TestScheduleProperties:
    @given(
        switch=st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
        pause=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @_settings
    def test_reverse_schedule_duration_formula(self, switch, pause):
        schedule = reverse_anneal_schedule(switch, pause)
        assert schedule.duration_us == pytest.approx(2 * (1 - switch) + pause)
        assert schedule.requires_initial_state
        assert schedule.minimum_s == pytest.approx(switch)

    @given(
        anneal_time=st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
        switch=st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
        pause=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @_settings
    def test_forward_schedule_duration_formula(self, anneal_time, switch, pause):
        schedule = forward_anneal_schedule(anneal_time, switch, pause)
        assert schedule.duration_us == pytest.approx(anneal_time + pause)
        assert not schedule.requires_initial_state

    @given(
        switch=st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
        time_fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @_settings
    def test_interpolated_s_stays_in_range(self, switch, time_fraction):
        schedule = reverse_anneal_schedule(switch, 1.0)
        time = time_fraction * schedule.duration_us
        assert 0.0 <= schedule.s_at(time) <= 1.0
