"""Tests for the SVMC annealing backend and its helpers."""

import numpy as np
import pytest

from repro.annealing.device import relative_problem, relative_transverse
from repro.annealing.schedule import (
    forward_anneal_schedule,
    forward_reverse_anneal_schedule,
    reverse_anneal_schedule,
)
from repro.annealing import svmc
from repro.annealing.svmc import (
    SCHEDULE_SCALES_CACHE_SIZE,
    SpinVectorMonteCarloBackend,
    broadcast_initial_spins,
    schedule_scales,
)
from repro.exceptions import ConfigurationError
from repro.qubo.ising import qubo_to_ising, bits_to_spins
from tests.qubo_fixtures import planted_solution_qubo, spins_to_bits


def _planted_problem(rng, size=8):
    planted = rng.integers(0, 2, size=size)
    qubo = planted_solution_qubo(planted, coupling_strength=0.6, field_strength=1.0, rng=rng)
    ising = qubo_to_ising(qubo)
    scale = max(ising.max_abs_coefficient(), 1e-12)
    return ising.fields / scale, ising.couplings / scale, planted, qubo


class TestBroadcastInitialSpins:
    def test_none(self):
        assert broadcast_initial_spins(None, 5, 3) is None

    def test_vector_broadcast(self):
        spins = broadcast_initial_spins(np.array([1, -1, 1]), 4, 3)
        assert spins.shape == (4, 3)
        assert np.all(spins[:, 1] == -1)

    def test_matrix_passthrough(self):
        matrix = np.ones((2, 3), dtype=np.int8)
        assert broadcast_initial_spins(matrix, 2, 3).shape == (2, 3)

    def test_wrong_length(self):
        with pytest.raises(ConfigurationError):
            broadcast_initial_spins(np.array([1, -1]), 2, 3)

    def test_wrong_values(self):
        with pytest.raises(ConfigurationError):
            broadcast_initial_spins(np.array([0, 1, 1]), 2, 3)

    def test_wrong_shape(self):
        with pytest.raises(ConfigurationError):
            broadcast_initial_spins(np.ones((3, 3, 3)), 3, 3)


class TestBackendBehaviour:
    def test_output_shape_and_values(self, rng):
        fields, couplings, _, _ = _planted_problem(rng)
        backend = SpinVectorMonteCarloBackend(sweeps_per_microsecond=16)
        spins = backend.run(
            fields,
            couplings,
            forward_anneal_schedule(1.0),
            num_reads=12,
            relative_temperature=0.01,
            rng=np.random.default_rng(1),
        )
        assert spins.shape == (12, 8)
        assert set(np.unique(spins)).issubset({-1, 1})

    def test_forward_anneal_finds_low_energy(self, rng):
        fields, couplings, planted, qubo = _planted_problem(rng)
        backend = SpinVectorMonteCarloBackend(sweeps_per_microsecond=32)
        spins = backend.run(
            fields,
            couplings,
            forward_anneal_schedule(2.0, pause_s=0.4, pause_duration_us=1.0),
            num_reads=30,
            relative_temperature=0.01,
            rng=np.random.default_rng(2),
        )
        best_bits = min((spins_to_bits(row) for row in spins), key=qubo.energy)
        planted_energy = qubo.energy(planted)
        assert qubo.energy(best_bits) <= planted_energy + 0.25 * abs(planted_energy)

    def test_reverse_anneal_requires_initial_state(self, rng):
        fields, couplings, _, _ = _planted_problem(rng)
        backend = SpinVectorMonteCarloBackend()
        with pytest.raises(ConfigurationError):
            backend.run(
                fields,
                couplings,
                reverse_anneal_schedule(0.5),
                num_reads=5,
                relative_temperature=0.01,
                rng=np.random.default_rng(3),
            )

    def test_reverse_anneal_at_high_switch_point_keeps_initial_state(self, rng):
        # With s_p close to 1 fluctuations are too weak to move the state.
        fields, couplings, planted, _ = _planted_problem(rng)
        initial = bits_to_spins(1 - planted)  # a deliberately wrong state
        backend = SpinVectorMonteCarloBackend(sweeps_per_microsecond=16)
        spins = backend.run(
            fields,
            couplings,
            reverse_anneal_schedule(0.97, pause_duration_us=0.5),
            num_reads=10,
            relative_temperature=0.005,
            initial_spins=initial,
            rng=np.random.default_rng(4),
        )
        agreement = np.mean(spins == initial[None, :])
        assert agreement > 0.8

    def test_reverse_anneal_at_low_switch_point_erases_initial_state(self, rng):
        fields, couplings, planted, qubo = _planted_problem(rng)
        initial = bits_to_spins(1 - planted)
        backend = SpinVectorMonteCarloBackend(sweeps_per_microsecond=32)
        spins = backend.run(
            fields,
            couplings,
            reverse_anneal_schedule(0.05, pause_duration_us=1.0),
            num_reads=20,
            relative_temperature=0.02,
            initial_spins=initial,
            rng=np.random.default_rng(5),
        )
        agreement = np.mean(spins == initial[None, :])
        assert agreement < 0.8

    def test_zero_spins(self):
        backend = SpinVectorMonteCarloBackend()
        spins = backend.run(
            np.zeros(0),
            np.zeros((0, 0)),
            forward_anneal_schedule(1.0),
            num_reads=3,
            relative_temperature=0.01,
            rng=np.random.default_rng(6),
        )
        assert spins.shape == (3, 0)

    def test_invalid_reads(self, rng):
        fields, couplings, _, _ = _planted_problem(rng)
        with pytest.raises(ConfigurationError):
            SpinVectorMonteCarloBackend().run(
                fields,
                couplings,
                forward_anneal_schedule(1.0),
                num_reads=0,
                relative_temperature=0.01,
                rng=np.random.default_rng(7),
            )

    def test_reproducible_with_generator_seed(self, rng):
        fields, couplings, _, _ = _planted_problem(rng)
        backend = SpinVectorMonteCarloBackend(sweeps_per_microsecond=8)
        kwargs = dict(
            fields=fields,
            couplings=couplings,
            schedule=forward_anneal_schedule(1.0),
            num_reads=6,
            relative_temperature=0.02,
        )
        first = backend.run(rng=np.random.default_rng(11), **kwargs)
        second = backend.run(rng=np.random.default_rng(11), **kwargs)
        assert np.array_equal(first, second)


class TestBackendConfiguration:
    @pytest.mark.parametrize("kwargs", [{"sweeps_per_microsecond": 0}])
    def test_svmc_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            SpinVectorMonteCarloBackend(**kwargs)


#: One schedule of each paper family, with a pause where the family has one.
MEMO_SCHEDULES = {
    "FA": forward_anneal_schedule(1.0, pause_s=0.4, pause_duration_us=0.5),
    "RA": reverse_anneal_schedule(0.45, pause_duration_us=1.0),
    "FR": forward_reverse_anneal_schedule(0.7, 0.4),
}


def _fresh_settings(backend, schedule, relative_temperature):
    """The per-sweep rows built from scratch, without the memo."""
    num_steps = max(2, int(round(schedule.duration_us * backend.sweeps_per_microsecond)))
    rows = []
    for _, s in schedule.discretise(num_steps):
        problem = relative_problem(float(s))
        transverse = relative_transverse(float(s))
        temperature = max(relative_temperature, 1e-6)
        activity = max(min(1.0, transverse / svmc._FREEZE_SCALE), svmc._RESIDUAL_ACTIVITY)
        rows.append((problem, transverse, temperature, activity))
    return rows


class TestScheduleScalesMemo:
    """The backend builds its sweep rows from the memoised schedule scales."""

    @pytest.mark.parametrize("schedule_key", sorted(MEMO_SCHEDULES))
    @pytest.mark.parametrize("relative_temperature", [0.01, 0.2])
    def test_settings_equal_a_fresh_computation(self, schedule_key, relative_temperature):
        schedule = MEMO_SCHEDULES[schedule_key]
        backend = SpinVectorMonteCarloBackend()
        expected = _fresh_settings(backend, schedule, relative_temperature)
        # The first call may fill the memo, the second reads it.
        for _ in range(2):
            settings = backend._sweep_settings(schedule, relative_temperature)
            assert settings == expected

    def test_keys_never_alias(self):
        schedule_scales.cache_clear()
        keys = [(schedule, steps) for schedule in MEMO_SCHEDULES.values() for steps in (24, 48)]
        # Warm the memo with every key, then read each back: every entry is
        # its own key's fresh value, and different keys give different rows.
        for key in keys:
            schedule_scales(*key)
        rows = {}
        for schedule, steps in keys:
            fresh = [
                [relative_problem(float(s)), relative_transverse(float(s))]
                for _, s in schedule.discretise(steps)
            ]
            assert schedule_scales(schedule, steps).tolist() == fresh
            rows[(schedule.name, steps)] = tuple(map(tuple, fresh))
        assert len(set(rows.values())) == len(keys)
        assert schedule_scales.cache_info().hits >= len(keys)

    def test_backend_attributes_are_never_cached(self, monkeypatch):
        schedule = MEMO_SCHEDULES["RA"]
        backend = SpinVectorMonteCarloBackend()
        backend._sweep_settings(schedule, 0.05)
        monkeypatch.setattr(svmc, "_FREEZE_SCALE", 0.4)
        backend.sweeps_per_microsecond = 20.0
        expected = _fresh_settings(backend, schedule, 0.05)
        assert backend._sweep_settings(schedule, 0.05) == expected

    def test_entries_are_read_only(self):
        scales = schedule_scales(MEMO_SCHEDULES["RA"], 30)
        with pytest.raises(ValueError):
            scales[0, 0] = 0.0

    def test_cache_is_bounded(self):
        schedule = MEMO_SCHEDULES["FA"]
        for steps in range(2, SCHEDULE_SCALES_CACHE_SIZE + 12):
            schedule_scales(schedule, steps)
            assert schedule_scales.cache_info().currsize <= SCHEDULE_SCALES_CACHE_SIZE
        info = schedule_scales.cache_info()
        assert info.maxsize == SCHEDULE_SCALES_CACHE_SIZE
        assert info.currsize == SCHEDULE_SCALES_CACHE_SIZE
