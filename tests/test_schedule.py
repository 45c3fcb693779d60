"""Tests for repro.annealing.schedule (paper Sec. 4.1 schedules)."""

import numpy as np
import pytest

from repro.annealing.schedule import (
    AnnealSchedule,
    SchedulePoint,
    forward_anneal_schedule,
    forward_reverse_anneal_schedule,
    reverse_anneal_schedule,
)
from repro.exceptions import ConfigurationError


class TestSchedulePoint:
    def test_valid(self):
        point = SchedulePoint(time_us=1.0, s=0.5)
        assert point.s == 0.5

    def test_invalid_s(self):
        with pytest.raises(ConfigurationError, match=r"anneal fraction s must lie in \[0, 1\]"):
            SchedulePoint(time_us=0.0, s=1.5)

    def test_negative_time(self):
        with pytest.raises(ConfigurationError, match="schedule time must be non-negative"):
            SchedulePoint(time_us=-1.0, s=0.5)


class TestAnnealSchedule:
    def test_from_pairs(self):
        schedule = AnnealSchedule.from_pairs([[0.0, 0.0], [2.0, 1.0]], name="FA")
        assert schedule.duration_us == 2.0
        assert schedule.name == "FA"

    def test_must_end_at_one(self):
        with pytest.raises(ConfigurationError, match="schedules must terminate at s = 1"):
            AnnealSchedule.from_pairs([[0.0, 0.0], [1.0, 0.5]])

    def test_needs_two_points(self):
        with pytest.raises(ConfigurationError, match="a schedule needs at least two waypoints"):
            AnnealSchedule(points=(SchedulePoint(0.0, 1.0),))

    def test_times_non_decreasing(self):
        with pytest.raises(ConfigurationError, match="schedule times must be non-decreasing"):
            AnnealSchedule.from_pairs([[0.0, 0.0], [2.0, 0.5], [1.0, 1.0]])

    def test_interpolation(self):
        schedule = AnnealSchedule.from_pairs([[0.0, 0.0], [4.0, 1.0]])
        assert schedule.s_at(2.0) == pytest.approx(0.5)
        assert schedule.s_at(-1.0) == 0.0
        assert schedule.s_at(10.0) == 1.0

    def test_pause_duration(self):
        schedule = AnnealSchedule.from_pairs([[0.0, 0.0], [1.0, 0.4], [2.5, 0.4], [3.0, 1.0]])
        assert schedule.pause_duration_us == pytest.approx(1.5)

    def test_discretise_shape_and_range(self):
        schedule = forward_anneal_schedule(1.0, 0.4, 1.0)
        samples = schedule.discretise(20)
        assert samples.shape == (20, 2)
        assert samples[0, 1] == pytest.approx(0.0)
        assert samples[-1, 1] == pytest.approx(1.0)

    def test_discretise_needs_two_steps(self):
        with pytest.raises(ConfigurationError, match="num_steps must be at least 2, got 1"):
            forward_anneal_schedule(1.0).discretise(1)

    def test_as_pairs_round_trip(self):
        schedule = reverse_anneal_schedule(0.4, 1.0)
        rebuilt = AnnealSchedule.from_pairs(schedule.as_pairs(), name="RA")
        assert rebuilt.duration_us == pytest.approx(schedule.duration_us)


class TestForwardSchedule:
    def test_plain_ramp(self):
        schedule = forward_anneal_schedule(anneal_time_us=2.0)
        assert schedule.duration_us == 2.0
        assert not schedule.requires_initial_state
        assert min(point.s for point in schedule.points) == 0.0

    def test_paper_shape_with_pause(self):
        # [0,0] -> [s_p, s_p] -> [s_p + t_p, s_p] -> [t_a + t_p, 1]
        schedule = forward_anneal_schedule(1.0, pause_s=0.41, pause_duration_us=1.0)
        pairs = schedule.as_pairs()
        assert pairs == [[0.0, 0.0], [0.41, 0.41], [1.41, 0.41], [2.0, 1.0]]

    def test_invalid_pause_location(self):
        with pytest.raises(ConfigurationError, match="pause_s must lie strictly inside"):
            forward_anneal_schedule(1.0, pause_s=1.2, pause_duration_us=1.0)

    def test_invalid_anneal_time(self):
        with pytest.raises(ConfigurationError, match=r"anneal_time_us must be positive, got 0\.0"):
            forward_anneal_schedule(0.0)


class TestReverseSchedule:
    def test_paper_shape(self):
        # [0,1] -> [1-s_p, s_p] -> [1-s_p+t_p, s_p] -> [2(1-s_p)+t_p, 1]
        schedule = reverse_anneal_schedule(switch_s=0.41, pause_duration_us=1.0)
        pairs = np.array(schedule.as_pairs())
        assert pairs[0, 1] == 1.0
        assert pairs[1, 0] == pytest.approx(0.59)
        assert pairs[-1, 0] == pytest.approx(2 * 0.59 + 1.0)
        assert schedule.requires_initial_state

    def test_duration_depends_on_switch_point(self):
        low = reverse_anneal_schedule(0.3, 1.0)
        high = reverse_anneal_schedule(0.8, 1.0)
        assert low.duration_us > high.duration_us

    def test_invalid_switch(self):
        with pytest.raises(ConfigurationError, match="switch_s must lie strictly inside"):
            reverse_anneal_schedule(1.0)

    def test_negative_pause(self):
        with pytest.raises(ConfigurationError, match="pause_duration_us must be non-negative"):
            reverse_anneal_schedule(0.5, pause_duration_us=-1.0)


class TestForwardReverseSchedule:
    def test_paper_shape(self):
        # [0,0] -> [c_p,c_p] -> [2c_p-s_p, s_p] -> [.. + t_p, s_p] -> [.. + t_a, 1]
        schedule = forward_reverse_anneal_schedule(turning_s=0.7, switch_s=0.4)
        pairs = np.array(schedule.as_pairs())
        assert pairs[1].tolist() == pytest.approx([0.7, 0.7])
        assert pairs[2].tolist() == pytest.approx([1.0, 0.4])
        assert pairs[3].tolist() == pytest.approx([2.0, 0.4])
        assert pairs[4].tolist() == pytest.approx([3.0, 1.0])
        assert not schedule.requires_initial_state

    def test_turning_must_exceed_switch(self):
        with pytest.raises(ConfigurationError, match="turning point c_p"):
            forward_reverse_anneal_schedule(turning_s=0.3, switch_s=0.5)

    def test_invalid_turning(self):
        with pytest.raises(ConfigurationError, match="turning_s must lie strictly inside"):
            forward_reverse_anneal_schedule(turning_s=0.0, switch_s=0.0)
