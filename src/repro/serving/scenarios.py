"""Time-varying network load scenarios for the RAN serving layer.

The load-sweep study (PR 2) exercises *stationary* traffic: every cell keeps
one fixed hotspot factor for the whole run.  Real networks drift — demand
follows diurnal waves, flash crowds erupt around events, hotspots migrate
across the cell grid as users move, and cell outages spill traffic onto
neighbouring cells.  This module expresses those dynamics as composable
:class:`LoadPhase` segments stitched into a :class:`NetworkScenario`: a named
timeline that maps ``(cell_id, time)`` to an *intensity multiplier* on each
cell's nominal arrival rate.

The multiplier field drives piecewise-inhomogeneous Poisson arrivals via
thinning (see :meth:`repro.wireless.traffic.TrafficGenerator.stream_modulated`
and :func:`repro.serving.workload.generate_serving_jobs`), so a scenario
changes *when and where* jobs arrive while the per-user child-generator
discipline keeps every workload exactly reproducible for a fixed seed.

A catalog of named, documented scenarios is exposed through
:func:`build_scenario` / :data:`SCENARIO_NAMES`; the parameters and phase
timelines are described in ``docs/scenarios.md``.

Every scenario lives on a :class:`~repro.network.topology.NetworkTopology`:
the spatial phases take their neighbour graph and plane positions from it,
and handover draws its targets from it.  :func:`build_scenario` attaches
``NetworkTopology.line(num_cells)`` when it is given none, whose neighbours
are ``cell_id +- 1`` and whose positions are the cell ids on the x axis.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.network.topology import NetworkTopology
from repro.utils.validation import require_non_negative, require_positive

__all__ = [
    "LoadPhase",
    "ConstantPhase",
    "DiurnalPhase",
    "FlashCrowdPhase",
    "HotspotDriftPhase",
    "CellOutagePhase",
    "NetworkScenario",
    "SCENARIO_NAMES",
    "build_scenario",
]

_EPS = 1e-9

#: Share of a flash crowd's phase spent ramping up (and again ramping down).
_RAMP_FRACTION = 0.25


class LoadPhase(abc.ABC):
    """One segment of a scenario timeline.

    A phase covers ``duration_us`` of simulated time and maps each cell and
    each *phase-local* instant to a non-negative intensity multiplier on the
    cell's nominal arrival rate (1.0 = nominal, 0.0 = silent).
    """

    duration_us: float

    @abc.abstractmethod
    def intensity(self, cell_id: int, t_us: float) -> float:
        """Intensity multiplier for ``cell_id`` at phase-local time ``t_us``."""

    @abc.abstractmethod
    def peak_intensity(self) -> float:
        """A tight upper bound on :meth:`intensity` over all cells and times.

        Used as the majorising rate of the thinning sampler — it must never
        be exceeded, and the closer it is to the true supremum the fewer
        candidate arrivals are rejected.
        """

    def target_cells(self) -> Tuple[int, ...]:
        """Cell ids this phase singles out (validated against the grid)."""
        return ()

    def _check_duration(self) -> None:
        require_positive(self.duration_us, "phase duration_us")


@dataclass(frozen=True)
class ConstantPhase(LoadPhase):
    """Uniform load at ``level`` times the nominal rate on every cell."""

    duration_us: float
    level: float = 1.0

    def __post_init__(self) -> None:
        self._check_duration()
        require_non_negative(self.level, "level")

    def intensity(self, cell_id: int, t_us: float) -> float:
        return self.level

    def peak_intensity(self) -> float:
        return self.level


@dataclass(frozen=True)
class DiurnalPhase(LoadPhase):
    """A sinusoidal day/night wave, optionally phase-lagged across the grid.

    Cell ``c`` sees ``1 + amplitude * sin(2*pi*(cycles * t/duration - lag))``
    where ``lag = cell_lag_fraction * c / num_cells`` — a non-zero
    ``cell_lag_fraction`` makes the demand crest sweep across the cell grid
    (morning in cell 0, evening in the last cell) instead of breathing in
    unison.  ``num_cells`` is the grid's cell count.
    """

    duration_us: float
    num_cells: int
    amplitude: float = 0.5
    cycles: float = 1.0
    cell_lag_fraction: float = 0.0

    def __post_init__(self) -> None:
        self._check_duration()
        require_positive(self.num_cells, "num_cells")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ConfigurationError(
                f"amplitude must lie in [0, 1], got {self.amplitude}"
            )
        require_positive(self.cycles, "cycles")

    def intensity(self, cell_id: int, t_us: float) -> float:
        lag = self.cell_lag_fraction * cell_id / self.num_cells
        wave = math.sin(2.0 * math.pi * (self.cycles * t_us / self.duration_us - lag))
        return 1.0 + self.amplitude * wave

    def peak_intensity(self) -> float:
        return 1.0 + self.amplitude


@dataclass(frozen=True)
class FlashCrowdPhase(LoadPhase):
    """A localized demand spike: one cell ramps to ``peak`` and back down.

    The target cell's multiplier ramps linearly from the nominal 1.0 to
    ``peak`` over the first quarter of the phase, holds the peak, then ramps
    back down over the last quarter.  Every other cell stays at 1.0.
    """

    duration_us: float
    cell_id: int
    peak: float = 6.0

    def __post_init__(self) -> None:
        self._check_duration()
        require_non_negative(self.cell_id, "cell_id")
        if self.peak < 1.0:
            raise ConfigurationError(f"peak must be >= the nominal 1.0, got {self.peak}")

    def _weight(self, t_us: float) -> float:
        u = min(max(t_us / self.duration_us, 0.0), 1.0)
        if u < _RAMP_FRACTION:
            return u / _RAMP_FRACTION
        if u > 1.0 - _RAMP_FRACTION:
            return (1.0 - u) / _RAMP_FRACTION
        return 1.0

    def intensity(self, cell_id: int, t_us: float) -> float:
        if cell_id != self.cell_id:
            return 1.0
        return 1.0 + (self.peak - 1.0) * self._weight(t_us)

    def peak_intensity(self) -> float:
        return self.peak

    def target_cells(self) -> Tuple[int, ...]:
        return (self.cell_id,)


@dataclass(frozen=True)
class HotspotDriftPhase(LoadPhase):
    """A hotspot that migrates across the cell grid over the phase.

    The hotspot centre moves linearly from the first cell to the last; a
    cell within one cell width of the centre is boosted from the nominal 1.0
    toward ``peak`` with a triangular profile, modelling a crowd (commuters, a convoy)
    traversing the coverage area.  The centre moves through the topology's
    coverage *plane*, from the first cell's position to the last cell's, and
    proximity is Euclidean distance.
    """

    duration_us: float
    topology: NetworkTopology
    peak: float = 4.0

    def __post_init__(self) -> None:
        self._check_duration()
        if self.peak < 1.0:
            raise ConfigurationError(f"peak must be >= the nominal 1.0, got {self.peak}")

    def intensity(self, cell_id: int, t_us: float) -> float:
        u = min(max(t_us / self.duration_us, 0.0), 1.0)
        first_x, first_y = self.topology.position(0)
        last_x, last_y = self.topology.position(self.topology.num_cells - 1)
        centre_x = first_x + u * (last_x - first_x)
        centre_y = first_y + u * (last_y - first_y)
        cell_x, cell_y = self.topology.position(cell_id)
        offset = math.hypot(cell_x - centre_x, cell_y - centre_y)
        proximity = max(0.0, 1.0 - offset)
        return 1.0 + (self.peak - 1.0) * proximity

    def peak_intensity(self) -> float:
        return self.peak


@dataclass(frozen=True)
class CellOutagePhase(LoadPhase):
    """A cell goes dark and its traffic spills onto the neighbouring cells.

    The outage cell falls silent (multiplier 0) and its whole nominal load
    is split evenly between its neighbours, modelling users re-attaching to
    adjacent cells.  The neighbours come from the topology's graph (2 on a
    line, 4 on a grid, up to 6 on a hex tiling).  The remaining cells stay at
    the nominal 1.0.
    """

    duration_us: float
    cell_id: int
    topology: NetworkTopology

    def __post_init__(self) -> None:
        self._check_duration()
        require_non_negative(self.cell_id, "cell_id")

    def intensity(self, cell_id: int, t_us: float) -> float:
        if cell_id == self.cell_id:
            return 0.0
        neighbours = self.topology.neighbors(self.cell_id)
        if cell_id in neighbours:
            return 1.0 + 1.0 / len(neighbours)
        return 1.0

    def peak_intensity(self) -> float:
        # Worst case: a single neighbour absorbs the whole spilt load.
        return 2.0

    def target_cells(self) -> Tuple[int, ...]:
        return (self.cell_id,)


@dataclass(frozen=True)
class NetworkScenario:
    """A named timeline of :class:`LoadPhase` segments over a cell layout.

    ``intensity(cell_id, t_us)`` evaluates the phase containing absolute
    time ``t_us`` (phases abut; time before 0 or at/after ``duration_us``
    yields 0 — no arrivals are generated outside the scenario horizon).
    The :class:`~repro.network.topology.NetworkTopology` is the layout the
    phases were built against; its cells are the scenario's cells.
    """

    name: str
    phases: Tuple[LoadPhase, ...]
    topology: NetworkTopology
    description: str = ""

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError("a scenario needs at least one phase")
        for phase in self.phases:
            if not isinstance(phase, LoadPhase):
                raise ConfigurationError(
                    f"phases must be LoadPhase instances, got {type(phase).__name__}"
                )
            for cell in phase.target_cells():
                if not 0 <= cell < self.num_cells:
                    raise ConfigurationError(
                        f"{type(phase).__name__} targets cell {cell}, outside the "
                        f"{self.num_cells}-cell grid"
                    )
            if isinstance(phase, DiurnalPhase) and phase.num_cells != self.num_cells:
                raise ConfigurationError(
                    f"DiurnalPhase lags its crest over {phase.num_cells} cells, the "
                    f"scenario's grid has {self.num_cells}"
                )
            if (
                isinstance(phase, (HotspotDriftPhase, CellOutagePhase))
                and phase.topology != self.topology
            ):
                raise ConfigurationError(
                    f"{type(phase).__name__} is built on a {phase.topology.kind} layout of "
                    f"{phase.topology.num_cells} cells, not the scenario's "
                    f"{self.topology.kind} layout of {self.num_cells}"
                )

    @functools.cached_property
    def num_cells(self) -> int:
        """Cells of the layout."""
        return self.topology.num_cells

    @functools.cached_property
    def duration_us(self) -> float:
        """Total simulated-time horizon covered by the phases."""
        return sum(phase.duration_us for phase in self.phases)

    @functools.cached_property
    def _phase_bounds(self) -> Tuple[Tuple[LoadPhase, float, float, bool], ...]:
        """``(phase, start, limit, final)`` per phase, in timeline order.

        :meth:`intensity` evaluates the first phase with ``t_us < limit``, or
        the final phase.  Starts accumulate the durations in phase order
        and ``limit`` is ``start + duration - _EPS``, so the lookup is
        bitwise what re-summing the timeline on every call gave.
        """
        bounds = []
        start = 0.0
        for phase in self.phases:
            limit = start + phase.duration_us - _EPS
            bounds.append((phase, start, limit, phase is self.phases[-1]))
            start += phase.duration_us
        return tuple(bounds)

    def intensity(self, cell_id: int, t_us: float) -> float:
        """Intensity multiplier for ``cell_id`` at absolute time ``t_us``.

        The containing phase is evaluated at the phase-local offset.
        Thinning calls this once per candidate arrival.
        """
        if not 0 <= cell_id < self.num_cells:
            raise ConfigurationError(
                f"cell_id {cell_id} outside the {self.num_cells}-cell grid"
            )
        if t_us < 0 or t_us >= self.duration_us:
            return 0.0
        for phase, start, limit, final in self._phase_bounds:
            if t_us < limit or final:
                return phase.intensity(cell_id, t_us - start)
        raise AssertionError("unreachable")  # pragma: no cover

    def peak_intensity(self) -> float:
        """Upper bound on the multiplier over all cells and times."""
        return max(phase.peak_intensity() for phase in self.phases)


# --------------------------------------------------------------------- #
# The scenario catalog (documented in docs/scenarios.md)
# --------------------------------------------------------------------- #

#: Names accepted by :func:`build_scenario`, in catalog order.
SCENARIO_NAMES: Tuple[str, ...] = (
    "steady",
    "diurnal",
    "flash-crowd",
    "hotspot-drift",
    "cell-outage",
    "busy-day",
)


def build_scenario(
    name: str,
    num_cells: int,
    horizon_us: float = 20_000.0,
    topology: Optional[NetworkTopology] = None,
) -> NetworkScenario:
    """Instantiate a named catalog scenario for a ``num_cells`` grid.

    ``horizon_us`` is the total simulated-time span of the scenario; each
    catalog entry splits it into its characteristic phase timeline.  See
    ``docs/scenarios.md`` for the timelines and the reproduce commands.

    The spatial phases use the neighbour graph and positions of
    ``topology`` (which must have ``num_cells`` cells), or of
    ``NetworkTopology.line(num_cells)`` when it is omitted.
    """
    require_positive(num_cells, "num_cells")
    require_positive(horizon_us, "horizon_us")
    if topology is None:
        topology = NetworkTopology.line(num_cells)
    elif topology.num_cells != num_cells:
        raise ConfigurationError(
            f"topology has {topology.num_cells} cells, build_scenario was asked "
            f"for {num_cells}"
        )

    mid_cell = num_cells // 2
    if name == "steady":
        phases: Tuple[LoadPhase, ...] = (ConstantPhase(horizon_us),)
        description = "stationary nominal load on every cell (the control arm)"
    elif name == "diurnal":
        phases = (
            DiurnalPhase(horizon_us, num_cells, amplitude=0.6, cycles=2.0, cell_lag_fraction=0.5),
        )
        description = "two day/night waves whose crest sweeps across the grid"
    elif name == "flash-crowd":
        phases = (
            ConstantPhase(0.25 * horizon_us),
            FlashCrowdPhase(0.5 * horizon_us, cell_id=mid_cell, peak=6.0),
            ConstantPhase(0.25 * horizon_us),
        )
        description = "a 6x demand spike erupts in the middle cell and subsides"
    elif name == "hotspot-drift":
        phases = (HotspotDriftPhase(horizon_us, topology, peak=4.0),)
        description = "a 4x hotspot migrates from the first cell to the last"
    elif name == "cell-outage":
        phases = (
            ConstantPhase(0.25 * horizon_us),
            CellOutagePhase(0.5 * horizon_us, cell_id=mid_cell, topology=topology),
            ConstantPhase(0.25 * horizon_us),
        )
        description = "the middle cell goes dark; its load spills to neighbours"
    elif name == "busy-day":
        phases = (
            DiurnalPhase(0.4 * horizon_us, num_cells, amplitude=0.5, cycles=1.0),
            FlashCrowdPhase(0.25 * horizon_us, cell_id=mid_cell, peak=5.0),
            CellOutagePhase(0.2 * horizon_us, cell_id=0, topology=topology),
            ConstantPhase(0.15 * horizon_us, level=0.8),
        )
        description = "a composite day: diurnal ramp, flash crowd, outage, cool-down"
    else:
        raise ConfigurationError(
            f"unknown scenario {name!r}; catalog: {', '.join(SCENARIO_NAMES)}"
        )
    return NetworkScenario(name=name, phases=phases, topology=topology, description=description)
