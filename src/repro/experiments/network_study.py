"""Experiment E-NW: city-scale capacity placement on a cell topology.

The scenario study (E-SC) prices elasticity for one cell *cluster* a few
dozen users wide.  This study asks the city-scale question the network layer
(:mod:`repro.network`) exists for: with hundreds of cells and millions of
simulated users, where should the plant's virtual annealer capacity be
embedded — and how much does *moving* it online, against a hotspot detector
fed only O&M counters, buy over leaving it alone?

Per placement arm the study runs the same pipeline on the same per-cell
Poisson counter matrix (:func:`~repro.network.aggregate.cell_window_counts`,
O(cells x windows) memory however many users are simulated):

* **static**   — capacity split equally across cells for the whole run;
* **reactive** — an online loop per KPI window: the
  :class:`~repro.network.kpi.HotspotDetector` scores the window's counters,
  the :class:`~repro.network.embedding.CapacityReembedder` moves bounded
  capacity toward the raised cells;
* **oracle**   — per-window capacity proportional to the *true* offered
  load, the clairvoyant upper bound.

Each schedule is priced by the deterministic fluid model
(:func:`~repro.network.embedding.simulate_fluid_network`).  The reactive arm
additionally *materialises* real detection jobs — but only for the cells the
detector raised (:func:`~repro.network.aggregate.materialize_cell_jobs`) —
and serves them through the event-driven
:class:`~repro.serving.simulator.RANServingSimulator`, closing the loop from
city-scale counters down to per-job deadlines without ever allocating the
city.

Everything is exactly reproducible from ``base_seed``; shards are
arm-independent, so serial and process-pool runs agree bitwise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.experiments.driver import ExperimentDriver
from repro.network.aggregate import (
    AggregationConfig,
    cell_window_counts,
    materialize_cell_jobs,
)
from repro.network.embedding import (
    CapacityReembedder,
    EmbeddingConfig,
    FluidNetworkReport,
    oracle_capacity,
    simulate_fluid_network,
    static_capacity,
)
from repro.network.kpi import HotspotDetector, HotspotDetectorConfig
from repro.network.topology import TOPOLOGY_KINDS, build_topology
from repro.parallel import ShardTask
from repro.serving.scenarios import SCENARIO_NAMES, build_scenario
from repro.serving.simulator import RANServingSimulator
from repro.utils.rng import stable_seed
from repro.wireless.mimo import MIMOConfig

__all__ = [
    "NETWORK_METRICS",
    "PLACEMENTS",
    "NetworkStudyConfig",
    "NetworkStudyDriver",
    "NetworkStudyRow",
    "NetworkStudyResult",
    "format_network_table",
]

#: Placement arms accepted by the study, in canonical order.
PLACEMENTS: Tuple[str, ...] = ("static", "reactive", "oracle")

#: Scalar metric columns of the ``network`` ablation target, in order.
NETWORK_METRICS = (
    "static_miss_rate",
    "reactive_miss_rate",
    "oracle_miss_rate",
    "reactive_vs_static_ratio",
    "reactive_capacity_moved",
    "detection_latency_windows",
    "false_positive_raises",
)


@dataclass(frozen=True)
class NetworkStudyConfig:
    """Configuration of the capacity-placement study.

    The topology rides as ``(topology_kind, rows, cols)`` primitives —
    shards rebuild it via :func:`~repro.network.topology.build_topology`, so
    the configuration stays canonically fingerprintable for the result
    cache.

    Attributes
    ----------
    topology_kind / rows / cols:
        The cell layout (``line`` uses ``rows * cols`` cells).
    users_per_cell:
        Simulated population per cell.  Only rates scale with it — the
        default network simulates one million users in a few MB.
    symbol_period_us / horizon_us / window_us:
        Per-user nominal job spacing, scenario span, and KPI counter window.
    scenario:
        Catalog scenario driving the demand field (see
        :data:`~repro.serving.scenarios.SCENARIO_NAMES`).
    placements:
        Arms to run, each a :data:`PLACEMENTS` entry.
    utilization:
        Network-wide nominal offered load over total capacity; 0.7 embeds
        ~43% headroom — comfortable for every cell except a hotspot.
    deadline_windows:
        Fluid-model deadline, in KPI windows.
    migration_fraction:
        Per-window migration budget as a fraction of total capacity.
    min_capacity_fraction:
        Per-cell capacity floor as a fraction of the equal share.
    detector_alpha / detector_z_threshold / detector_warmup_windows /
    detector_confirm_windows / detector_clear_windows:
        Hotspot-detector knobs (see
        :class:`~repro.network.kpi.HotspotDetectorConfig`).
    detail_max_jobs_per_cell:
        Materialisation cap per raised cell for the reactive arm's detailed
        serving pass (0 disables the pass).
    detail_num_users / detail_modulation / detail_turnaround_us:
        Link shape and deadline of the materialised detail jobs.
    base_seed:
        Root of every derived seed.
    """

    topology_kind: str = "grid"
    rows: int = 10
    cols: int = 10
    users_per_cell: int = 10_000
    symbol_period_us: float = 150.0
    horizon_us: float = 20_000.0
    window_us: float = 500.0
    scenario: str = "flash-crowd"
    placements: Tuple[str, ...] = PLACEMENTS
    utilization: float = 0.7
    deadline_windows: int = 2
    migration_fraction: float = 0.05
    min_capacity_fraction: float = 0.25
    detector_alpha: float = 0.2
    detector_z_threshold: float = 4.0
    detector_warmup_windows: int = 4
    detector_confirm_windows: int = 2
    detector_clear_windows: int = 3
    detail_max_jobs_per_cell: int = 120
    detail_num_users: int = 2
    detail_modulation: str = "QPSK"
    detail_turnaround_us: float = 600.0
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.topology_kind not in TOPOLOGY_KINDS:
            raise ConfigurationError(
                f"unknown topology_kind {self.topology_kind!r}; choose from "
                f"{', '.join(TOPOLOGY_KINDS)}"
            )
        if self.scenario not in SCENARIO_NAMES:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; catalog: "
                f"{', '.join(SCENARIO_NAMES)}"
            )
        if not self.placements:
            raise ConfigurationError("placements must not be empty")
        for placement in self.placements:
            if placement not in PLACEMENTS:
                raise ConfigurationError(
                    f"unknown placement {placement!r}; choose from "
                    f"{', '.join(PLACEMENTS)}"
                )
        if not 0.0 < self.utilization < 1.0:
            raise ConfigurationError(
                f"utilization must lie in (0, 1), got {self.utilization}"
            )
        if not 0.0 <= self.migration_fraction <= 1.0:
            raise ConfigurationError(
                f"migration_fraction must lie in [0, 1], got {self.migration_fraction}"
            )
        if not 0.0 <= self.min_capacity_fraction <= 1.0:
            raise ConfigurationError(
                "min_capacity_fraction must lie in [0, 1], got "
                f"{self.min_capacity_fraction}"
            )
        if self.detail_max_jobs_per_cell < 0:
            raise ConfigurationError(
                "detail_max_jobs_per_cell must be non-negative, got "
                f"{self.detail_max_jobs_per_cell}"
            )

    @property
    def num_cells(self) -> int:
        """Cells in the layout (``line`` layouts use ``rows * cols``)."""
        return self.rows * self.cols

    @property
    def simulated_users(self) -> int:
        """Total simulated user population."""
        return self.num_cells * self.users_per_cell

    @classmethod
    def quick(cls) -> "NetworkStudyConfig":
        """A minimal configuration used by the test suite and CI smoke."""
        return cls(
            rows=3,
            cols=3,
            users_per_cell=200,
            horizon_us=10_000.0,
            detail_max_jobs_per_cell=40,
        )

    @classmethod
    def city_scale(cls) -> "NetworkStudyConfig":
        """A denser city: 400 cells, four million users (still fast)."""
        return cls(rows=20, cols=20, horizon_us=40_000.0)

    # The ``paper`` preset maps to the densest catalogued configuration.
    paper_scale = city_scale


@dataclass(frozen=True)
class NetworkStudyRow:
    """One placement arm's outcome on the shared counter matrix."""

    placement: str
    scenario: str
    topology_kind: str
    num_cells: int
    simulated_users: int
    num_windows: int
    jobs_offered: int
    miss_rate: float
    missed_jobs: float
    residual_jobs: float
    peak_cell_miss_rate: float
    capacity_moved: float
    hotspot_raises: int
    detection_window: int
    detection_latency_windows: int
    false_positive_raises: int
    mean_hot_cells: float
    detail_jobs: int
    detail_miss_rate: float


@dataclass(frozen=True)
class NetworkStudyResult:
    """Arm rows in ``config.placements`` order."""

    rows: List[NetworkStudyRow]
    config: NetworkStudyConfig


def _embedding_config(
    config: NetworkStudyConfig, aggregation: AggregationConfig
) -> EmbeddingConfig:
    """Size the capacity pool from the nominal offered load and utilization."""
    nominal_per_window = aggregation.cell_rate_per_us * config.window_us
    total = nominal_per_window * config.num_cells / config.utilization
    equal_share = total / config.num_cells
    return EmbeddingConfig(
        total_capacity=total,
        min_capacity=config.min_capacity_fraction * equal_share,
        migration_budget=config.migration_fraction * total,
        deadline_windows=config.deadline_windows,
    )


def _expected_hot_cell(config: NetworkStudyConfig) -> Optional[int]:
    """The cell the scenario's demand singles out, when there is one."""
    if config.scenario in ("flash-crowd", "cell-outage", "busy-day"):
        return config.num_cells // 2
    return None


def _spike_start_window(config: NetworkStudyConfig) -> Optional[int]:
    """First KPI window of the flash-crowd ramp (the detector's stopwatch)."""
    if config.scenario not in ("flash-crowd",):
        return None
    return int(0.25 * config.horizon_us // config.window_us)


def _network_shard(
    config: NetworkStudyConfig, placement: str, workload_seed: int
) -> NetworkStudyRow:
    """One placement arm: counters -> (detector -> embedder) -> fluid model.

    Every arm regenerates the identical counter matrix from
    ``workload_seed``, so arms differ only in the capacity schedule — the
    comparison is paired by construction, and shards stay independent of
    execution order and worker count.
    """
    topology = build_topology(config.topology_kind, config.rows, config.cols)
    scenario = build_scenario(
        config.scenario, topology.num_cells, config.horizon_us, topology=topology
    )
    aggregation = AggregationConfig(
        users_per_cell=config.users_per_cell,
        symbol_period_us=config.symbol_period_us,
        window_us=config.window_us,
    )
    counts = cell_window_counts(scenario, aggregation, rng=workload_seed)
    embedding = _embedding_config(config, aggregation)
    num_windows = counts.shape[0]

    raises: List = []
    capacity_moved = 0.0
    mean_hot_cells = 0.0
    detail_jobs = 0
    detail_miss_rate = 0.0

    if placement == "static":
        plan = static_capacity(topology.num_cells, embedding)
    elif placement == "oracle":
        plan = oracle_capacity(counts, embedding)
    elif placement == "reactive":
        detector = HotspotDetector(
            topology.num_cells,
            HotspotDetectorConfig(
                alpha=config.detector_alpha,
                z_threshold=config.detector_z_threshold,
                warmup_windows=config.detector_warmup_windows,
                confirm_windows=config.detector_confirm_windows,
                clear_windows=config.detector_clear_windows,
            ),
            topology=topology,
        )
        reembedder = CapacityReembedder(topology.num_cells, embedding)
        plan = np.zeros_like(counts, dtype=float)
        hot_window_total = 0
        last_counts: Optional[np.ndarray] = None
        for window in range(num_windows):
            # Strictly causal: the capacity in force during window w is
            # decided from detector state and counters of windows < w.
            plan[window] = reembedder.step(detector.hot_cells, last_counts)
            hot_window_total += len(detector.hot_cells)
            events = detector.observe(
                window, (window + 0.5) * config.window_us, counts[window]
            )
            raises.extend(event for event in events if event.kind == "raised")
            last_counts = counts[window]
        capacity_moved = reembedder.capacity_moved
        mean_hot_cells = hot_window_total / num_windows if num_windows else 0.0
        if raises and config.detail_max_jobs_per_cell > 0:
            hot_cells = sorted({event.cell_id for event in raises})
            jobs = materialize_cell_jobs(
                scenario,
                hot_cells,
                aggregation,
                [MIMOConfig(config.detail_num_users, config.detail_modulation)],
                base_seed=workload_seed,
                max_jobs_per_cell=config.detail_max_jobs_per_cell,
                turnaround_budget_us=config.detail_turnaround_us,
            )
            report = RANServingSimulator(topology=topology).run(jobs)
            detail_jobs = report.num_jobs
            detail_miss_rate = report.deadline_miss_rate or 0.0
    else:  # pragma: no cover - validated by the config
        raise ConfigurationError(f"unknown placement {placement!r}")

    fluid: FluidNetworkReport = simulate_fluid_network(counts, plan, embedding)

    expected = _expected_hot_cell(config)
    spike_start = _spike_start_window(config)
    if expected is None:
        true_raises = []
        false_raises = list(raises)
    else:
        true_raises = [event for event in raises if event.cell_id == expected]
        false_raises = [event for event in raises if event.cell_id != expected]
    detection_window = true_raises[0].window if true_raises else -1
    detection_latency = (
        detection_window - spike_start
        if detection_window >= 0 and spike_start is not None
        else -1
    )

    return NetworkStudyRow(
        placement=placement,
        scenario=config.scenario,
        topology_kind=config.topology_kind,
        num_cells=topology.num_cells,
        simulated_users=config.simulated_users,
        num_windows=num_windows,
        jobs_offered=fluid.offered,
        miss_rate=fluid.miss_rate,
        missed_jobs=fluid.missed,
        residual_jobs=fluid.residual,
        peak_cell_miss_rate=fluid.peak_cell_miss_rate,
        capacity_moved=capacity_moved,
        hotspot_raises=len(raises),
        detection_window=detection_window,
        detection_latency_windows=detection_latency,
        false_positive_raises=len(false_raises),
        mean_hot_cells=mean_hot_cells,
        detail_jobs=detail_jobs,
        detail_miss_rate=detail_miss_rate,
    )


def _placement_row(rows, placement: str):
    for row in rows:
        if row.placement == placement:
            return row
    return None


def format_network_table(result: NetworkStudyResult) -> str:
    """Render the placement comparison as a text table."""
    config = result.config
    lines = [
        "Network capacity study - static vs reactive vs oracle placement",
        f"{config.topology_kind} topology, {config.num_cells} cells, "
        f"{config.simulated_users:,} simulated users, scenario "
        f"{config.scenario!r}, horizon {config.horizon_us / 1000.0:.1f} ms",
        f"utilization {config.utilization:.2f}, migration budget "
        f"{config.migration_fraction:.2%} of capacity per "
        f"{config.window_us:.0f} us window",
        "",
        f"{'placement':<10} {'miss rate':>10} {'peak cell':>10} "
        f"{'moved':>12} {'raises':>7} {'latency(w)':>10} {'detail miss':>12}",
    ]
    for row in result.rows:
        latency = str(row.detection_latency_windows) if row.placement == "reactive" else "-"
        detail = (
            f"{row.detail_miss_rate:.4f}" if row.detail_jobs else "-"
        )
        lines.append(
            f"{row.placement:<10} {row.miss_rate:>10.4f} "
            f"{row.peak_cell_miss_rate:>10.4f} {row.capacity_moved:>12.1f} "
            f"{row.hotspot_raises:>7d} {latency:>10} {detail:>12}"
        )
    return "\n".join(lines)


class NetworkStudyDriver(ExperimentDriver):
    """The placement study behind the shared experiment-driver protocol."""

    name = "network"
    description = "city-scale capacity placement on a topology"
    metric_names = NETWORK_METRICS
    config_class = NetworkStudyConfig
    format_table = staticmethod(format_network_table)

    def tasks(self, config: NetworkStudyConfig) -> List[ShardTask]:
        """One task per placement arm.

        Every arm shares the per-scenario workload seed (arms are paired on
        the same counter matrix), and each task's configuration is restricted
        to its own arm so cache fingerprints never depend on which *other*
        arms the study sweeps.
        """
        workload_seed = stable_seed("network-study", config.scenario, config.base_seed)
        return [
            ShardTask(
                key=("network-study", config.scenario, placement),
                fn=_network_shard,
                kwargs={
                    "config": dataclasses.replace(config, placements=(placement,)),
                    "placement": placement,
                    "workload_seed": workload_seed,
                },
            )
            for placement in config.placements
        ]

    def aggregate(
        self, config: NetworkStudyConfig, results: List[NetworkStudyRow]
    ) -> NetworkStudyResult:
        return NetworkStudyResult(rows=list(results), config=config)

    def metrics(self, rows) -> Tuple[Tuple[str, float], ...]:
        static = _placement_row(rows, "static")
        reactive = _placement_row(rows, "reactive")
        oracle = _placement_row(rows, "oracle")
        nan = float("nan")
        static_miss = static.miss_rate if static else nan
        reactive_miss = reactive.miss_rate if reactive else nan
        if static and reactive and static.miss_rate > 0:
            ratio = reactive.miss_rate / static.miss_rate
        else:
            ratio = nan
        return (
            ("static_miss_rate", static_miss),
            ("reactive_miss_rate", reactive_miss),
            ("oracle_miss_rate", oracle.miss_rate if oracle else nan),
            ("reactive_vs_static_ratio", ratio),
            ("reactive_capacity_moved", reactive.capacity_moved if reactive else nan),
            (
                "detection_latency_windows",
                float(reactive.detection_latency_windows) if reactive else nan,
            ),
            (
                "false_positive_raises",
                float(reactive.false_positive_raises) if reactive else nan,
            ),
        )

    def progress(self, config, tasks, results) -> None:
        for row in results:
            telemetry.emit_progress(
                "network-study", row.placement, miss_rate=row.miss_rate
            )
