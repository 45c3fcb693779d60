"""Hierarchical traffic aggregation for city-scale cell networks.

The per-user workload generator (:mod:`repro.serving.workload`) materialises
one :class:`~repro.wireless.traffic.ChannelUse` object per detection job —
exactly right for a cell-cluster of dozens of users, hopeless for the
ROADMAP's "millions of users".  This module is the scale path:

* **Counter level** — :func:`cell_window_counts` samples, per cell and per
  KPI window, a Poisson *count* of arrivals at the cell's aggregate rate
  (``users_per_cell / symbol_period_us`` times the scenario's intensity
  field).  By Poisson superposition the merged stream of ``U`` independent
  per-user Poisson processes *is* a Poisson process at ``U`` times the rate,
  so the counts are statistically exact for the population — while memory is
  ``O(num_cells x num_windows)``, independent of the user count.  These
  counts are the O&M counter stream the hotspot detector consumes.
* **Detail level** — :func:`materialize_cell_jobs` instantiates real
  :class:`~repro.serving.workload.ServingJob` objects, but only for the few
  cells a detector (or an analyst) singles out, by drawing one cell-level
  inhomogeneous Poisson stream at the aggregate rate.  Each cell's stream
  has its own :func:`~repro.utils.rng.stable_seed`-derived generator, so the
  jobs of a cell do not depend on *which other* cells were materialised.

Both levels modulate rates through the same scenario intensity field that
drives the per-user path, and both are exactly reproducible from their
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, ensure_rng, spawn_rngs, stable_seed
from repro.utils.validation import require, require_positive
from repro.wireless.mimo import MIMOConfig
from repro.wireless.traffic import TrafficGenerator

if TYPE_CHECKING:  # pragma: no cover - serving imports this package's topology
    from repro.serving.scenarios import NetworkScenario
    from repro.serving.workload import ServingJob

__all__ = ["AggregationConfig", "cell_window_counts", "materialize_cell_jobs"]


@dataclass(frozen=True)
class AggregationConfig:
    """Population and sampling-grain parameters of the aggregate model.

    Attributes
    ----------
    users_per_cell:
        Simulated users attached to each cell.  Only the *rate* scales with
        this number — no per-user object is ever allocated.
    symbol_period_us:
        Mean per-user channel-use spacing at intensity multiplier 1.0 (same
        meaning as :class:`~repro.serving.workload.UserProfile`).
    window_us:
        KPI counter window.  Counts are sampled per window at the window
        midpoint's intensity (piecewise-constant approximation of the
        inhomogeneous rate; scenario phases vary slowly relative to any
        sensible window).
    """

    users_per_cell: int = 1000
    symbol_period_us: float = 71.4
    window_us: float = 500.0

    def __post_init__(self) -> None:
        require_positive(self.users_per_cell, "users_per_cell")
        require_positive(self.symbol_period_us, "symbol_period_us")
        require_positive(self.window_us, "window_us")

    @property
    def cell_rate_per_us(self) -> float:
        """Aggregate nominal arrival rate of one cell (jobs per microsecond)."""
        return self.users_per_cell / self.symbol_period_us

    def num_windows(self, horizon_us: float) -> int:
        """Number of whole KPI windows covering ``[0, horizon_us)``."""
        require_positive(horizon_us, "horizon_us")
        return int(np.ceil(horizon_us / self.window_us))


def cell_window_counts(
    scenario: "NetworkScenario",
    config: AggregationConfig,
    rng: RandomState = None,
) -> np.ndarray:
    """Per-cell, per-window Poisson arrival counts under the scenario.

    Returns an int64 array of shape ``(num_windows, num_cells)`` where entry
    ``(w, c)`` is the number of jobs cell ``c`` offered during window ``w``.
    Cell ``c`` draws from child generator ``c`` (spawned in cell order from
    the root), so the counter stream of one cell never depends on how many
    windows another cell was sampled for.
    """
    windows = config.num_windows(scenario.duration_us)
    num_cells = scenario.num_cells
    midpoints = (np.arange(windows) + 0.5) * config.window_us
    # Windows never extend past the horizon mid-point-wise; clip the last
    # midpoint into the scenario domain (intensity is 0 outside it anyway).
    midpoints = np.minimum(midpoints, np.nextafter(scenario.duration_us, 0.0))
    children = spawn_rngs(ensure_rng(rng), num_cells)
    counts = np.zeros((windows, num_cells), dtype=np.int64)
    base = config.cell_rate_per_us * config.window_us
    for cell_id, child in enumerate(children):
        means = base * np.array(
            [scenario.intensity(cell_id, float(t)) for t in midpoints]
        )
        counts[:, cell_id] = child.poisson(means)
    return counts


def materialize_cell_jobs(
    scenario: "NetworkScenario",
    cells: Sequence[int],
    config: AggregationConfig,
    mimo_configs: Sequence[MIMOConfig],
    base_seed: int = 0,
    max_jobs_per_cell: int = 500,
    turnaround_budget_us: Optional[float] = 500.0,
) -> List["ServingJob"]:
    """Materialise real :class:`ServingJob` streams for selected cells only.

    Each requested cell gets one *cell-level* traffic generator whose period
    is ``symbol_period_us / users_per_cell`` — the aggregate of its whole
    population (exact by Poisson superposition) — modulated by the
    scenario's intensity for that cell over the scenario's whole duration.
    ``max_jobs_per_cell`` caps materialisation (the sampled head of the
    stream) so a detector zooming into a flash crowd never allocates the
    crowd.  Per-cell generators are seeded by
    ``stable_seed("network-detail", base_seed, cell_id)``: the jobs of a
    cell are identical no matter which other cells are materialised.

    Jobs are merged in ``(arrival, cell, index)`` order and carry the cell id
    as ``user_id`` (the "user" is the cell's aggregate population).
    """
    # Imported here: repro.serving.scenarios itself imports this package's
    # topology module, so a module-level import would be circular.
    from repro.serving.workload import ServingJob

    require(bool(cells), "cells must not be empty")
    if len(set(cells)) != len(cells):
        raise ConfigurationError(f"duplicate cell ids in {tuple(cells)!r}")
    require_positive(max_jobs_per_cell, "max_jobs_per_cell")
    require(bool(mimo_configs), "mimo_configs must not be empty")
    tagged: List[Tuple[float, int, int, object]] = []
    peak = scenario.peak_intensity()
    for cell_id in cells:
        if not 0 <= cell_id < scenario.num_cells:
            raise ConfigurationError(
                f"cell {cell_id} outside scenario {scenario.name!r}'s "
                f"{scenario.num_cells}-cell layout"
            )
        generator = TrafficGenerator(
            tuple(mimo_configs),
            symbol_period_us=config.symbol_period_us / config.users_per_cell,
            arrival_process="poisson",
            turnaround_budget_us=turnaround_budget_us,
        )
        child = ensure_rng(stable_seed("network-detail", base_seed, cell_id))
        stream = generator.stream_modulated(
            horizon_us=scenario.duration_us,
            intensity=lambda t_us, cell=cell_id: scenario.intensity(cell, t_us),
            peak_intensity=peak,
            rng=child,
            max_count=max_jobs_per_cell,
        )
        for use in stream:
            tagged.append((use.arrival_time_us, cell_id, use.index, use))

    tagged.sort(key=lambda item: (item[0], item[1], item[2]))
    return [
        ServingJob(job_id=job_id, user_id=cell_id, cell_id=cell_id, channel_use=use)
        for job_id, (_, cell_id, _, use) in enumerate(tagged)
    ]
