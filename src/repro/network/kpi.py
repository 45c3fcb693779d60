"""Per-cell KPI streams and O&M-metric hotspot localization.

Following "A New Alternative for Traffic Hotspot Localization in Wireless
Networks Using O&M Metrics", hotspots are detected from the counters an
operations system already collects — per-cell arrival counts per KPI window —
*never* from the scenario's ground-truth intensity field.  The detector
keeps, per cell, an exponentially weighted moving estimate of the counter's
mean and variance, scores each new window by its z-score against that
baseline, and raises a hotspot after two consecutive exceedances (clearing
it again after three quiet windows — the hysteresis that keeps a ramping
crowd from flapping).

With a :class:`~repro.network.topology.NetworkTopology` attached the raise is
*localised*: the flagged cell's z-score is compared against its neighbours'
and the event is attributed to the strongest cell in the neighbourhood, the
paper's trick for telling a hotspot's centre from its spill-over.

When a telemetry session is active (:func:`repro.telemetry.active`), every
observation updates ``repro_network_*`` gauges/counters and raises/clears
emit ``network.hotspot`` trace events — instrumentation only; detector state
and return values are identical with telemetry off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.network.topology import NetworkTopology
from repro.utils.validation import require, require_positive

__all__ = [
    "HotspotEvent",
    "HotspotDetector",
]


# The detector's fixed knobs.  EWMA weight of the newest window in the
# mean/variance baselines (smaller = longer memory, slower to absorb a
# hotspot into "normal").
_ALPHA = 0.2
# Initial windows that only train the baseline (no raises): the first
# observation seeds the mean, so scoring it would be circular.
_WARMUP_WINDOWS = 4
# Consecutive exceedances required before a hotspot is raised, so
# single-window Poisson flukes never page anyone.
_CONFIRM_WINDOWS = 2
# Consecutive sub-threshold windows before a raised hotspot clears.
_CLEAR_WINDOWS = 3
# Variance floor of the z-score denominator; counters are integer counts, so
# an idle cell's variance estimate may collapse to 0.
_MIN_VARIANCE = 1.0


@dataclass(frozen=True)
class HotspotEvent:
    """One detector state transition.

    ``cell_id`` is the *localised* cell (strongest z in the neighbourhood for
    raises); ``flagged_cell`` is the cell whose counter tripped the
    threshold — they differ when a spill-over neighbour trips first.
    """

    window: int
    time_us: float
    kind: str  # "raised" or "cleared"
    cell_id: int
    flagged_cell: int
    z_score: float
    count: int


class HotspotDetector:
    """Streaming per-cell EWMA/z-score detector over KPI counter windows.

    A window counts toward a raise when its z-score exceeds ``z_threshold``.
    """

    def __init__(
        self,
        num_cells: int,
        z_threshold: float = 4.0,
        topology: Optional[NetworkTopology] = None,
    ) -> None:
        require_positive(num_cells, "num_cells")
        require_positive(z_threshold, "z_threshold")
        if topology is not None and topology.num_cells != num_cells:
            raise ConfigurationError(
                f"topology has {topology.num_cells} cells, detector expects {num_cells}"
            )
        self.num_cells = int(num_cells)
        self.z_threshold = z_threshold
        self.topology = topology
        self.events: List[HotspotEvent] = []
        self._mean = np.zeros(num_cells)
        self._variance = np.zeros(num_cells)
        self._streak = np.zeros(num_cells, dtype=np.int64)
        self._quiet = np.zeros(num_cells, dtype=np.int64)
        self._hot: Dict[int, int] = {}  # localised cell -> raise window
        self._windows_seen = 0
        self._last_z = np.zeros(num_cells)

    # ------------------------------------------------------------------ #

    @property
    def hot_cells(self) -> Tuple[int, ...]:
        """Currently raised (localised) hotspot cells, sorted."""
        return tuple(sorted(self._hot))

    def z_score(self, cell_id: int) -> float:
        """The most recent window's z-score for ``cell_id``."""
        if not 0 <= cell_id < self.num_cells:
            raise ConfigurationError(
                f"cell_id {cell_id} outside the {self.num_cells}-cell detector"
            )
        return float(self._last_z[cell_id])

    def observe(
        self, window: int, time_us: float, counts: Sequence[int]
    ) -> List[HotspotEvent]:
        """Score one KPI window of per-cell counts; return state transitions.

        ``counts`` must hold one non-negative count per cell.  Baselines are
        scored first, updated second: a window is always judged against the
        history that *preceded* it.  During a raised hotspot the flagged
        cell's baseline is frozen so a long crowd does not teach the detector
        that 6x demand is normal.
        """
        values = np.asarray(counts, dtype=float)
        if values.shape != (self.num_cells,):
            raise ConfigurationError(
                f"expected {self.num_cells} per-cell counts, got shape {values.shape}"
            )
        require(not np.any(values < 0), "counts must be non-negative")
        transitions: List[HotspotEvent] = []

        if self._windows_seen == 0:
            self._mean = values.copy()
            self._variance = np.maximum(values, _MIN_VARIANCE)
            self._last_z = np.zeros(self.num_cells)
            self._windows_seen = 1
            self._emit_telemetry(window, time_us, values)
            return transitions

        sigma = np.sqrt(np.maximum(self._variance, _MIN_VARIANCE))
        scores = (values - self._mean) / sigma
        self._last_z = scores
        in_warmup = self._windows_seen < _WARMUP_WINDOWS

        above = (scores > self.z_threshold) & ~in_warmup
        self._streak = np.where(above, self._streak + 1, 0)
        self._quiet = np.where(above, 0, self._quiet + 1)

        for cell_id in np.nonzero(self._streak >= _CONFIRM_WINDOWS)[0]:
            flagged = int(cell_id)
            localised = self._localise(flagged)
            if localised not in self._hot:
                self._hot[localised] = window
                transitions.append(
                    HotspotEvent(
                        window=window,
                        time_us=time_us,
                        kind="raised",
                        cell_id=localised,
                        flagged_cell=flagged,
                        z_score=float(scores[flagged]),
                        count=int(values[flagged]),
                    )
                )

        for localised in sorted(self._hot):
            if self._quiet[localised] >= _CLEAR_WINDOWS:
                del self._hot[localised]
                transitions.append(
                    HotspotEvent(
                        window=window,
                        time_us=time_us,
                        kind="cleared",
                        cell_id=localised,
                        flagged_cell=localised,
                        z_score=float(scores[localised]),
                        count=int(values[localised]),
                    )
                )

        # EWMA update last, frozen for cells whose streak is live so the
        # baseline keeps describing *normal* traffic.
        frozen = self._streak > 0
        alpha = _ALPHA
        delta = values - self._mean
        new_mean = self._mean + alpha * delta
        new_variance = (1.0 - alpha) * (self._variance + alpha * delta * delta)
        self._mean = np.where(frozen, self._mean, new_mean)
        self._variance = np.where(frozen, self._variance, new_variance)
        self._windows_seen += 1

        self.events.extend(transitions)
        self._emit_telemetry(window, time_us, values, transitions)
        return transitions

    # ------------------------------------------------------------------ #

    def _localise(self, flagged: int) -> int:
        """Attribute a raise to the strongest cell in the neighbourhood."""
        if self.topology is None:
            return flagged
        candidates = (flagged,) + self.topology.neighbors(flagged)
        # Ties break toward the lowest cell id for determinism.
        return int(
            max(candidates, key=lambda cell: (float(self._last_z[cell]), -cell))
        )

    def _emit_telemetry(
        self,
        window: int,
        time_us: float,
        values: np.ndarray,
        transitions: Sequence[HotspotEvent] = (),
    ) -> None:
        tel = telemetry.active()
        if tel is None:
            return
        tel.registry.counter("repro_network_kpi_windows_total").inc()
        tel.registry.gauge("repro_network_hot_cells").set(len(self._hot))
        tel.registry.gauge("repro_network_peak_cell_count").set(float(values.max()))
        for event in transitions:
            tel.registry.counter(
                "repro_network_hotspot_events_total", kind=event.kind
            ).inc()
            tel.tracer.event(
                "network.hotspot",
                time_us=time_us,
                clock=telemetry.CLOCK_SIM,
                window=window,
                kind=event.kind,
                cell_id=event.cell_id,
                flagged_cell=event.flagged_cell,
                z_score=event.z_score,
                count=event.count,
            )
