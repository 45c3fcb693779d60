"""Virtual annealer-capacity placements and the fluid model scoring them.

The serving layer's detailed simulator prices one cluster's queue to the
microsecond; a city of hundreds of cells needs something cheaper to compare
*placements* — how much virtual annealer capacity each cell is embedded with.
This module provides both sides:

* three placement policies — :func:`static_capacity` (equal split, the
  baseline every operator starts from), :func:`oracle_capacity` (per-window
  proportional to the *true* offered load, the unreachable upper bound) and
  :class:`CapacityReembedder` (the online policy: reacts to hotspot-detector
  output, moving at most ``migration_budget`` capacity per KPI window while
  every cell keeps its ``min_capacity`` floor);
* :func:`simulate_fluid_network` — a deterministic fluid queue per cell:
  arrivals from the aggregate counter matrix, oldest-first service up to the
  cell's embedded capacity, jobs that wait longer than two windows counted
  missed.  No randomness, so placement comparisons are exact
  functions of the counter matrix and the capacity schedule.

Capacity is measured in jobs per KPI window throughout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import require, require_non_negative, require_positive

#: Windows a job may wait (arrival window included) before the fluid model
#: counts it missed.
_DEADLINE_WINDOWS = 2

#: Headroom factor of the online re-embedder: a hot cell is sized toward
#: this many times its last observed counter, so a still-ramping crowd is
#: met a little ahead of its trailing observation.
_TARGET_MARGIN = 1.2

__all__ = [
    "EmbeddingConfig",
    "FluidCellReport",
    "FluidNetworkReport",
    "CapacityReembedder",
    "static_capacity",
    "oracle_capacity",
    "simulate_fluid_network",
]


@dataclass(frozen=True)
class EmbeddingConfig:
    """Capacity pool and movement constraints of a placement.

    Attributes
    ----------
    total_capacity:
        Network-wide embedded capacity, in jobs per KPI window.
    min_capacity:
        Per-cell floor no policy may dip under — every cell keeps enough
        capacity to serve its background load while donating to a hotspot.
    migration_budget:
        Most capacity the online re-embedder may move in one window
        (re-embedding virtual annealer lanes is not free; the budget models
        the migration cost).
    """

    total_capacity: float
    min_capacity: float = 0.0
    migration_budget: float = float("inf")

    def __post_init__(self) -> None:
        require_positive(self.total_capacity, "total_capacity")
        require_non_negative(self.min_capacity, "min_capacity")
        require_non_negative(self.migration_budget, "migration_budget")

    def check_feasible(self, num_cells: int) -> None:
        """Raise unless the floor leaves capacity to distribute."""
        require_positive(num_cells, "num_cells")
        if self.min_capacity * num_cells > self.total_capacity:
            raise ConfigurationError(
                f"min_capacity {self.min_capacity} x {num_cells} cells exceeds "
                f"total_capacity {self.total_capacity}"
            )


def static_capacity(num_cells: int, config: EmbeddingConfig) -> np.ndarray:
    """The equal-split baseline: every cell gets ``total / num_cells``."""
    config.check_feasible(num_cells)
    return np.full(num_cells, config.total_capacity / num_cells)


def oracle_capacity(counts: np.ndarray, config: EmbeddingConfig) -> np.ndarray:
    """Clairvoyant per-window placement sized to the true offered load.

    Returns a ``(num_windows, num_cells)`` schedule.  Each window keeps every
    cell at the ``min_capacity`` floor and first covers each cell's *actual*
    demand above the floor; leftover capacity is split equally.  When a
    window's total demand exceeds the pool, the above-floor allocations are
    scaled down proportionally — no schedule with the same total could serve
    such a window fully.  The oracle ignores the migration budget: it is the
    upper bound reactive re-embedding is measured against, not a realisable
    policy.
    """
    matrix = np.asarray(counts, dtype=float)
    if matrix.ndim != 2:
        raise ConfigurationError(
            f"counts must be a (windows, cells) matrix, got shape {matrix.shape}"
        )
    num_cells = matrix.shape[1]
    config.check_feasible(num_cells)
    free = config.total_capacity - config.min_capacity * num_cells
    need = np.maximum(matrix - config.min_capacity, 0.0)
    need_total = need.sum(axis=1, keepdims=True)
    leftover = np.maximum(free - need_total, 0.0) / num_cells
    scale = np.where(need_total > free, free / np.where(need_total > 0, need_total, 1.0), 1.0)
    return config.min_capacity + need * scale + np.where(need_total > free, 0.0, leftover)


class CapacityReembedder:
    """Online capacity mover driven by hotspot-detector output.

    Starts from the static equal split.  Each window, :meth:`step` receives
    the detector's currently raised cells and the last *observed* per-cell
    counters (the same O&M stream the detector scores, never ground truth)
    and returns the capacity vector in force for the coming window:

    * with hotspots raised, each hot cell is pulled toward
      1.2 times its observed demand; non-hot cells donate
      capacity above their own protected level (their observed demand, at
      least the ``min_capacity`` floor) — proportionally to their surplus,
      at most ``migration_budget`` in total.  Sizing to observed demand is
      what keeps a long crowd from draining the whole city into one cell;
    * with none raised, capacity relaxes toward the equal split, under the
      same per-window budget.

    All arithmetic is plain float64 on deterministically ordered cells, so a
    replayed detector stream reproduces the schedule exactly.
    """

    def __init__(self, num_cells: int, config: EmbeddingConfig) -> None:
        config.check_feasible(num_cells)
        self.num_cells = int(num_cells)
        self.config = config
        self.capacity = static_capacity(num_cells, config)
        self.capacity_moved = 0.0
        self.windows_stepped = 0

    def step(self, hot_cells: Sequence[int], observed_counts: Sequence[float]) -> np.ndarray:
        """Re-embed for one window; returns a copy of the capacity vector."""
        hot = sorted(set(int(cell) for cell in hot_cells))
        for cell in hot:
            if not 0 <= cell < self.num_cells:
                raise ConfigurationError(
                    f"hot cell {cell} outside the {self.num_cells}-cell layout"
                )
        observed = np.asarray(observed_counts, dtype=float)
        if observed.shape != (self.num_cells,):
            raise ConfigurationError(
                f"expected {self.num_cells} observed counts, got shape {observed.shape}"
            )
        if hot and len(hot) < self.num_cells:
            self._move_toward_hot(np.asarray(hot, dtype=np.intp), observed)
        elif not hot:
            self._relax_toward_equal()
        self.windows_stepped += 1
        return self.capacity.copy()

    # ------------------------------------------------------------------ #

    def _move_toward_hot(self, hot: np.ndarray, observed: np.ndarray) -> None:
        config = self.config
        donors = np.setdiff1d(
            np.arange(self.num_cells, dtype=np.intp), hot, assume_unique=True
        )
        protected = np.maximum(observed[donors], config.min_capacity)
        surplus = np.maximum(self.capacity[donors] - protected, 0.0)
        targets = np.maximum(_TARGET_MARGIN * observed[hot], config.min_capacity)
        need = np.maximum(targets - self.capacity[hot], 0.0)
        available = float(surplus.sum())
        wanted = float(need.sum())
        pool = min(config.migration_budget, available, wanted)
        if pool <= 0.0:
            return
        self.capacity[donors] -= surplus * (pool / available)
        self.capacity[hot] += need * (pool / wanted)
        self.capacity_moved += pool

    def _relax_toward_equal(self) -> None:
        target = self.config.total_capacity / self.num_cells
        delta = target - self.capacity
        need = float(np.maximum(delta, 0.0).sum())
        if need <= 0.0:
            return
        move = min(self.config.migration_budget, need)
        # Scaling every delta by the same factor keeps the total conserved
        # (positive and negative deltas sum to zero).
        self.capacity += delta * (move / need)
        self.capacity_moved += move


@dataclass(frozen=True)
class FluidCellReport:
    """Per-cell tallies of one fluid-model run."""

    cell_id: int
    offered: int
    served: float
    missed: float
    residual: float
    peak_queue: float

    @property
    def miss_rate(self) -> float:
        """Fraction of offered jobs that blew their deadline."""
        return self.missed / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class FluidNetworkReport:
    """Network-wide tallies of one fluid-model run."""

    cells: Tuple[FluidCellReport, ...]
    num_windows: int
    offered: int
    served: float
    missed: float
    residual: float

    @property
    def miss_rate(self) -> float:
        """Fraction of all offered jobs that blew their deadline."""
        return self.missed / self.offered if self.offered else 0.0

    @property
    def peak_cell_miss_rate(self) -> float:
        """Worst single-cell miss rate."""
        return max((cell.miss_rate for cell in self.cells), default=0.0)


def simulate_fluid_network(counts: np.ndarray, capacity: np.ndarray) -> FluidNetworkReport:
    """Deterministic fluid queues scoring a capacity schedule against counts.

    ``counts`` is the ``(num_windows, num_cells)`` aggregate arrival matrix;
    ``capacity`` is either a static ``(num_cells,)`` vector or a per-window
    ``(num_windows, num_cells)`` schedule (e.g. an oracle plan or the stacked
    outputs of a :class:`CapacityReembedder`).

    Each window, each cell enqueues its arrivals, serves up to its embedded
    capacity oldest-first, then drops (as missed) whatever has now waited
    two windows.  Jobs still queued when the horizon ends are
    reported as ``residual`` — neither served nor missed — and
    ``offered == served + missed + residual`` holds exactly per cell.
    """
    matrix = np.asarray(counts, dtype=float)
    if matrix.ndim != 2:
        raise ConfigurationError(
            f"counts must be a (windows, cells) matrix, got shape {matrix.shape}"
        )
    require(not np.any(matrix < 0), "counts must be non-negative")
    num_windows, num_cells = matrix.shape
    plan = np.asarray(capacity, dtype=float)
    if plan.ndim == 1:
        if plan.shape != (num_cells,):
            raise ConfigurationError(
                f"static capacity must have {num_cells} entries, got {plan.shape}"
            )
        plan = np.broadcast_to(plan, (num_windows, num_cells))
    elif plan.shape != (num_windows, num_cells):
        raise ConfigurationError(
            f"capacity schedule shape {plan.shape} does not match counts "
            f"shape {matrix.shape}"
        )
    require(not np.any(plan < 0), "capacity must be non-negative")

    deadline = _DEADLINE_WINDOWS
    served = np.zeros(num_cells)
    missed = np.zeros(num_cells)
    peak_queue = np.zeros(num_cells)
    # One FIFO of (arrival_window, jobs) buckets per cell.
    queues: List[Deque[List[float]]] = [deque() for _ in range(num_cells)]

    for window in range(num_windows):
        row = plan[window]
        for cell in range(num_cells):
            queue = queues[cell]
            arrivals = matrix[window, cell]
            if arrivals > 0:
                queue.append([window, arrivals])
            # A job arriving in window w must be served by the end of
            # window w + deadline - 1, so anything older has already missed
            # and cannot consume this window's capacity.
            while queue and queue[0][0] <= window - deadline:
                missed[cell] += queue.popleft()[1]
            budget = float(row[cell])
            while queue and budget > 0.0:
                bucket = queue[0]
                take = min(bucket[1], budget)
                bucket[1] -= take
                budget -= take
                served[cell] += take
                if bucket[1] <= 0.0:
                    queue.popleft()
            depth = sum(bucket[1] for bucket in queue)
            if depth > peak_queue[cell]:
                peak_queue[cell] = depth

    residual = np.array(
        [sum(bucket[1] for bucket in queues[cell]) for cell in range(num_cells)]
    )
    offered_per_cell = matrix.sum(axis=0)
    cells = tuple(
        FluidCellReport(
            cell_id=cell,
            offered=int(offered_per_cell[cell]),
            served=float(served[cell]),
            missed=float(missed[cell]),
            residual=float(residual[cell]),
            peak_queue=float(peak_queue[cell]),
        )
        for cell in range(num_cells)
    )
    return FluidNetworkReport(
        cells=cells,
        num_windows=num_windows,
        offered=int(offered_per_cell.sum()),
        served=float(served.sum()),
        missed=float(missed.sum()),
        residual=float(residual.sum()),
    )
