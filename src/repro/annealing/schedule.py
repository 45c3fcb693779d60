"""Anneal schedules: forward, reverse, and forward-reverse (paper Sec. 4.1, Fig. 5).

An anneal schedule is a piecewise-linear trajectory of the annealing fraction
``s`` (0 = fully quantum / transverse field dominates, 1 = classical /
problem Hamiltonian dominates) against physical time in microseconds.  The
paper compares three schedule shapes, parameterised by the anneal time
``t_a``, the pause duration ``t_p``, the switch/pause location ``s_p``, and
(for FR only) the turning point ``c_p``:

* Forward Annealing (FA)::

    [0, 0] -F-> [s_p, s_p] -P-> [s_p + t_p, s_p] -F-> [t_a + t_p, 1]

* Reverse Annealing (RA)::

    [0, 1] -R-> [1 - s_p, s_p] -P-> [1 - s_p + t_p, s_p]
          -F-> [2(1 - s_p) + t_p, 1]

* Forward-Reverse Annealing (FR)::

    [0, 0] -F-> [c_p, c_p] -R-> [2 c_p - s_p, s_p] -P-> [2 c_p - s_p + t_p, s_p]
          -F-> [2 c_p - 2 s_p + t_p + t_a, 1]

(The FA shape uses the unit-slope ramp convention of the paper, i.e. reaching
``s_p`` takes ``s_p`` microseconds when ``t_a = 1``; the final ramp completes
the remaining ``1 - s_p`` within the remaining ``t_a - s_p`` so the total
sweep time excluding the pause equals ``t_a``.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import require_non_negative, require_open_unit, require_positive

__all__ = [
    "SchedulePoint",
    "AnnealSchedule",
    "forward_anneal_schedule",
    "reverse_anneal_schedule",
    "forward_reverse_anneal_schedule",
]


@dataclass(frozen=True)
class SchedulePoint:
    """One waypoint of a schedule: time in microseconds and anneal fraction s."""

    time_us: float
    s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.s <= 1.0:
            raise ConfigurationError(f"anneal fraction s must lie in [0, 1], got {self.s}")
        require_non_negative(self.time_us, "schedule time")


@dataclass(frozen=True)
class AnnealSchedule:
    """A piecewise-linear anneal schedule.

    Attributes
    ----------
    points:
        Waypoints in non-decreasing time order.  The first point defines the
        initial s (1.0 for reverse annealing, 0.0 for forward annealing).
    name:
        Schedule family label ("FA", "RA", "FR", or custom).
    requires_initial_state:
        Whether this schedule needs a classical initial state (true whenever
        the schedule starts at s = 1).
    """

    points: Tuple[SchedulePoint, ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        points = tuple(self.points)
        if len(points) < 2:
            raise ConfigurationError("a schedule needs at least two waypoints")
        times = [point.time_us for point in points]
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            raise ConfigurationError(f"schedule times must be non-decreasing, got {times}")
        if points[-1].s != 1.0:
            raise ConfigurationError(
                f"schedules must terminate at s = 1 (classical readout), got {points[-1].s}"
            )
        object.__setattr__(self, "points", points)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]], name: str = "custom") -> "AnnealSchedule":
        """Build a schedule from ``[[time_us, s], ...]`` pairs (D-Wave style)."""
        points = tuple(SchedulePoint(float(time), float(s)) for time, s in pairs)
        return cls(points=points, name=name)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def duration_us(self) -> float:
        """Total schedule duration in microseconds."""
        return self.points[-1].time_us - self.points[0].time_us

    @property
    def initial_s(self) -> float:
        """The anneal fraction at the start of the schedule."""
        return self.points[0].s

    @property
    def requires_initial_state(self) -> bool:
        """True when the schedule starts from a classical state (s = 1)."""
        return self.initial_s == 1.0

    @property
    def pause_duration_us(self) -> float:
        """Total time spent in segments where s stays constant."""
        total = 0.0
        for earlier, later in zip(self.points, self.points[1:]):
            if np.isclose(earlier.s, later.s):
                total += later.time_us - earlier.time_us
        return total

    def s_at(self, time_us: float) -> float:
        """Linearly interpolate the anneal fraction at an absolute time."""
        times = np.array([point.time_us for point in self.points])
        fractions = np.array([point.s for point in self.points])
        if time_us <= times[0]:
            return float(fractions[0])
        if time_us >= times[-1]:
            return float(fractions[-1])
        return float(np.interp(time_us, times, fractions))

    def discretise(self, num_steps: int) -> np.ndarray:
        """Sample the schedule at ``num_steps`` evenly spaced times.

        Returns an array of shape (num_steps, 2) with columns (time_us, s);
        the simulator backend runs one Monte Carlo sweep per step.
        """
        if num_steps < 2:
            raise ConfigurationError(f"num_steps must be at least 2, got {num_steps}")
        times = np.linspace(self.points[0].time_us, self.points[-1].time_us, num_steps)
        fractions = np.array([self.s_at(time) for time in times])
        return np.column_stack([times, fractions])

    def as_pairs(self) -> List[List[float]]:
        """Return the waypoints as ``[[time_us, s], ...]`` (D-Wave style)."""
        return [[point.time_us, point.s] for point in self.points]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = ", ".join(f"[{p.time_us:.3g}, {p.s:.3g}]" for p in self.points)
        return f"AnnealSchedule({self.name}: {pairs})"


def forward_anneal_schedule(
    anneal_time_us: float = 1.0,
    pause_s: float = None,
    pause_duration_us: float = 0.0,
) -> AnnealSchedule:
    """Forward annealing, optionally with a mid-anneal pause (paper FA).

    Parameters
    ----------
    anneal_time_us:
        Total sweep time t_a excluding the pause (the 2000Q minimum of 1 us is
        the paper's setting).
    pause_s:
        Pause location s_p in (0, 1), or ``None`` for a plain linear ramp.
    pause_duration_us:
        Pause duration t_p (ignored when ``pause_s`` is ``None``).
    """
    require_positive(anneal_time_us, "anneal_time_us")
    if pause_s is None or pause_duration_us == 0.0:
        if pause_s is None:
            return AnnealSchedule.from_pairs(
                [[0.0, 0.0], [anneal_time_us, 1.0]], name="FA"
            )
    require_open_unit(pause_s, "pause_s")
    require_non_negative(pause_duration_us, "pause_duration_us")
    # Unit-proportional ramps: reaching s_p takes s_p * t_a, completing the
    # rest takes (1 - s_p) * t_a, so the sweep time excluding the pause is t_a.
    time_to_pause = pause_s * anneal_time_us
    return AnnealSchedule.from_pairs(
        [
            [0.0, 0.0],
            [time_to_pause, pause_s],
            [time_to_pause + pause_duration_us, pause_s],
            [anneal_time_us + pause_duration_us, 1.0],
        ],
        name="FA",
    )


def reverse_anneal_schedule(switch_s: float, pause_duration_us: float = 1.0) -> AnnealSchedule:
    """Reverse annealing (paper RA).

    The schedule starts from a classical state at s = 1, anneals backwards to
    the switch point ``s_p``, pauses there for ``t_p`` microseconds, and then
    anneals forward to s = 1.  As in the paper the ramp durations are
    proportional to the traversed s range (``1 - s_p`` microseconds each way),
    so the total duration is ``2 (1 - s_p) + t_p``.

    Parameters
    ----------
    switch_s:
        Switch and pause location s_p in (0, 1).
    pause_duration_us:
        Pause duration t_p.
    """
    require_open_unit(switch_s, "switch_s")
    require_non_negative(pause_duration_us, "pause_duration_us")
    ramp = 1.0 - switch_s
    return AnnealSchedule.from_pairs(
        [
            [0.0, 1.0],
            [ramp, switch_s],
            [ramp + pause_duration_us, switch_s],
            [2.0 * ramp + pause_duration_us, 1.0],
        ],
        name="RA",
    )


def forward_reverse_anneal_schedule(turning_s: float, switch_s: float) -> AnnealSchedule:
    """Single-step forward-reverse annealing (paper FR).

    The anneal runs forward from s = 0 up to the turning point ``c_p``,
    reverses down to ``s_p`` (without a measurement in between), pauses for
    1 us, and finally anneals forward to s = 1 in 1 us.  The initial forward
    and the reverse ramp take one microsecond per unit of s traversed.

    Parameters
    ----------
    turning_s:
        Turning point c_p in (0, 1); must satisfy ``c_p >= s_p``.
    switch_s:
        Pause location s_p in (0, 1).
    """
    require_open_unit(turning_s, "turning_s")
    require_open_unit(switch_s, "switch_s")
    if turning_s < switch_s:
        raise ConfigurationError(
            f"turning point c_p ({turning_s}) must be at least the switch point s_p ({switch_s})"
        )

    rise = turning_s
    fall = turning_s - switch_s
    pause_start = rise + fall
    pause_end = pause_start + 1.0
    final_end = pause_end + 1.0
    return AnnealSchedule.from_pairs(
        [
            [0.0, 0.0],
            [rise, turning_s],
            [pause_start, switch_s],
            [pause_end, switch_s],
            [final_end, 1.0],
        ],
        name="FR",
    )
