"""Tests for repro.hybrid.parameters (s_p / c_p sweeps)."""

import numpy as np
import pytest

from repro.classical.greedy import greedy_search
from repro.exceptions import ConfigurationError
from repro.hybrid.parameters import (
    best_switch_point,
    paper_switch_point_grid,
    sweep_forward_reverse_turning_point,
    sweep_switch_point,
)
from tests.qubo_fixtures import planted_solution_qubo


@pytest.fixture
def problem(rng):
    planted = rng.integers(0, 2, size=6)
    qubo = planted_solution_qubo(planted, coupling_strength=0.5, field_strength=1.0, rng=rng)
    return qubo, qubo.energy(planted)


class TestPaperGrid:
    def test_range_and_step(self):
        grid = paper_switch_point_grid()
        assert grid[0] == pytest.approx(0.25)
        assert grid[-1] == pytest.approx(0.97)
        assert np.allclose(np.diff(grid), 0.04)


class TestSweepSwitchPoint:
    def test_fa_sweep_records(self, problem, fast_sampler):
        qubo, ground = problem
        records = sweep_switch_point(
            qubo, ground, method="FA", switch_values=(0.3, 0.5), sampler=fast_sampler, num_reads=40
        )
        assert len(records) == 2
        assert all(record.method == "FA" for record in records)
        assert all(0.0 <= record.success_probability <= 1.0 for record in records)
        assert all(record.duration_us > 0 for record in records)

    def test_ra_requires_initial_state(self, problem, fast_sampler):
        qubo, ground = problem
        with pytest.raises(ConfigurationError):
            sweep_switch_point(qubo, ground, method="RA", sampler=fast_sampler)

    def test_ra_sweep_with_greedy_initial_state(self, problem, fast_sampler):
        qubo, ground = problem
        initial = greedy_search(qubo)
        records = sweep_switch_point(
            qubo,
            ground,
            method="RA",
            switch_values=(0.4, 0.6, 0.8),
            initial_state=initial,
            sampler=fast_sampler,
            num_reads=40,
        )
        assert len(records) == 3
        # RA duration shrinks as the switch point rises.
        durations = [record.duration_us for record in records]
        assert durations == sorted(durations, reverse=True)

    def test_fr_sweep(self, problem, fast_sampler):
        qubo, ground = problem
        records = sweep_switch_point(
            qubo, ground, method="FR", switch_values=(0.4,), sampler=fast_sampler, num_reads=30
        )
        assert records[0].turning_s is not None
        assert records[0].turning_s >= records[0].switch_s

    def test_unknown_method(self, problem, fast_sampler):
        qubo, ground = problem
        with pytest.raises(ConfigurationError):
            sweep_switch_point(qubo, ground, method="QAOA", sampler=fast_sampler)


class TestBestSwitchPoint:
    def test_prefers_lowest_finite_tts(self, problem, fast_sampler):
        qubo, ground = problem
        initial = greedy_search(qubo)
        records = sweep_switch_point(
            qubo,
            ground,
            method="RA",
            switch_values=(0.4, 0.6, 0.8),
            initial_state=initial,
            sampler=fast_sampler,
            num_reads=60,
        )
        best = best_switch_point(records)
        finite = [record for record in records if record.tts.is_finite]
        if finite:
            assert best.tts.tts_us == min(record.tts.tts_us for record in finite)

    def test_falls_back_to_probability(self, problem):
        from repro.metrics.tts import time_to_solution
        from repro.hybrid.parameters import SwitchPointRecord

        records = [
            SwitchPointRecord(
                method="FA",
                switch_s=0.4,
                success_probability=0.0,
                tts=time_to_solution(0.0, 1.0),
                expectation_energy=0.0,
                duration_us=1.0,
            )
        ]
        assert best_switch_point(records).switch_s == 0.4

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            best_switch_point([])


class TestFRTurningPointSweep:
    def test_oracle_sweep(self, problem, fast_sampler):
        qubo, ground = problem
        records = sweep_forward_reverse_turning_point(
            qubo,
            ground,
            switch_s=0.4,
            turning_values=(0.5, 0.7, 0.9),
            sampler=fast_sampler,
            num_reads=30,
        )
        assert len(records) == 3
        assert all(record.turning_s >= 0.4 for record in records)

    def test_turning_below_switch_skipped(self, problem, fast_sampler):
        qubo, ground = problem
        records = sweep_forward_reverse_turning_point(
            qubo,
            ground,
            switch_s=0.6,
            turning_values=(0.3, 0.7),
            sampler=fast_sampler,
            num_reads=20,
        )
        assert len(records) == 1

    def test_invalid_switch(self, problem, fast_sampler):
        qubo, ground = problem
        with pytest.raises(ConfigurationError):
            sweep_forward_reverse_turning_point(qubo, ground, switch_s=1.5, sampler=fast_sampler)
