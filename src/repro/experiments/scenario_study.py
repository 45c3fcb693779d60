"""Experiment E-SC: the scenario catalog, static vs autoscaled pools.

The load study (E-SV) sweeps *stationary* offered load.  This study sweeps
the **scenario catalog** (:mod:`repro.serving.scenarios`): every named
time-varying scenario — diurnal waves, flash crowds, hotspot drift, cell
outages — is served twice by the same plant,

* **static** — a fixed pool of ``static_workers`` annealer workers (plus the
  classical fallbacks), the PR-2 architecture; and
* **autoscaled** — an :class:`~repro.serving.autoscale.ElasticBackendPool`
  whose active annealer worker count flexes between ``min_workers`` and
  ``max_workers`` under the queue-depth / deadline-pressure control loop of
  :class:`~repro.serving.autoscale.AutoscaleController` (with a warm-up
  latency on newly added workers).

Per scenario the study reports deadline-miss rates, p99 latencies, the
autoscaled run's time-weighted mean active workers and its scaling-event
count — showing where elasticity buys misses back (bursty scenarios) and
where it merely saves capacity (quiet ones).  Everything is timing-modelled
and exactly reproducible from the configuration's seed.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.experiments.driver import ExperimentDriver, mean_or_nan
from repro.parallel import ShardTask
from repro.serving.autoscale import (
    AutoscaleConfig,
    AutoscaleController,
    ElasticBackendPool,
)
from repro.serving.backends import AnnealerServingBackend, ClassicalServingBackend
from repro.serving.pool import BackendPool
from repro.serving.report import ServingReport, format_serving_report
from repro.serving.scenarios import SCENARIO_NAMES, build_scenario
from repro.serving.simulator import RANServingSimulator
from repro.serving.workload import generate_serving_jobs, uniform_cell_profiles
from repro.utils.rng import stable_seed
from repro.wireless.mimo import MIMOConfig

__all__ = [
    "SCENARIOS_METRICS",
    "ScenarioStudyConfig",
    "ScenarioStudyDriver",
    "ScenarioStudyRow",
    "ScenarioStudyResult",
    "format_scenario_table",
]

#: Scalar metric columns of the ``scenarios`` ablation target, in order.
SCENARIOS_METRICS = (
    "autoscaled_miss_rate_mean",
    "autoscaled_miss_rate_max",
    "static_miss_rate_mean",
    "autoscaled_p99_us_max",
    "mean_active_workers_mean",
    "scale_events_total",
)

#: Spatial streams of every user.
_NUM_USERS = 2

#: Modulations cycled across users.
_MODULATIONS = ("QPSK", "16-QAM")

#: Relative deadline of every job.
_TURNAROUND_BUDGET_US = 600.0

#: Side-by-side lanes of an annealer worker, and the largest batch the plant
#: coalesces.
_LANES = 4
_MAX_BATCH_SIZE = 4

#: How often the elastic arm's control loop runs.
_AUTOSCALE_INTERVAL_US = 200.0


@dataclass(frozen=True)
class ScenarioStudyConfig:
    """Configuration of the scenario-catalog sweep.

    Attributes
    ----------
    num_cells / users_per_cell:
        Cell grid and user population (QPSK and 16-QAM cycle across users,
        each with two spatial streams).
    base_symbol_period_us:
        Nominal per-user channel-use spacing at intensity multiplier 1.0.
    horizon_us:
        Simulated-time span every scenario is instantiated over.
    max_jobs_per_user:
        Per-user job ceiling (scenario demand sets the realised count).
    scenarios:
        Catalog names to sweep (see :data:`repro.serving.SCENARIO_NAMES`).
    num_reads:
        Reverse-annealing reads per job, in both arms.  Both plants keep one
        classical worker, schedule EDF with admission control and batch up
        to 4 jobs on 4 lanes.
    static_workers:
        Annealer worker count of the static arm.
    max_workers / warmup_us:
        The elastic arm's upper bound (it starts from one worker) and a new
        worker's warm-up latency.
    """

    num_cells: int = 4
    users_per_cell: int = 3
    base_symbol_period_us: float = 150.0
    horizon_us: float = 20_000.0
    max_jobs_per_user: int = 900
    scenarios: Tuple[str, ...] = SCENARIO_NAMES
    num_reads: int = 30
    static_workers: int = 2
    max_workers: int = 6
    warmup_us: float = 400.0
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigurationError("scenarios must not be empty")
        for name in self.scenarios:
            if name not in SCENARIO_NAMES:
                raise ConfigurationError(
                    f"unknown scenario {name!r}; catalog: {', '.join(SCENARIO_NAMES)}"
                )
        if self.static_workers < 1:
            raise ConfigurationError(
                f"static_workers must be at least 1, got {self.static_workers}"
            )
        self.autoscale_config()  # checks the elastic arm's bounds and timings

    def autoscale_config(self) -> AutoscaleConfig:
        """The elastic arm's control-loop settings."""
        return AutoscaleConfig(
            interval_us=_AUTOSCALE_INTERVAL_US,
            warmup_us=self.warmup_us,
            max_workers=self.max_workers,
        )

    @classmethod
    def quick(cls) -> "ScenarioStudyConfig":
        """A minimal configuration used by the test suite and CI smoke."""
        return cls(
            num_cells=2,
            users_per_cell=2,
            horizon_us=6_000.0,
            max_jobs_per_user=60,
            scenarios=("steady", "flash-crowd"),
            num_reads=10,
            max_workers=3,
        )

    @classmethod
    def paper_scale(cls) -> "ScenarioStudyConfig":
        """A denser grid over a larger cell layout (slow)."""
        return cls(
            num_cells=8,
            users_per_cell=4,
            horizon_us=60_000.0,
            max_jobs_per_user=1200,
            static_workers=3,
            max_workers=10,
        )


@dataclass(frozen=True)
class ScenarioStudyRow:
    """Static vs autoscaled serving outcomes for one catalog scenario."""

    scenario: str
    num_jobs: int
    offered_load_jobs_per_ms: float
    static_miss_rate: float
    autoscaled_miss_rate: float
    static_p99_us: float
    autoscaled_p99_us: float
    mean_active_workers: float
    scale_events: int
    autoscaled_demotion_rate: float


@dataclass(frozen=True)
class ScenarioStudyResult:
    """Sweep rows plus the autoscaled detail report of the last scenario."""

    rows: List[ScenarioStudyRow]
    detail: ServingReport
    config: ScenarioStudyConfig


def _annealer(config: ScenarioStudyConfig) -> AnnealerServingBackend:
    return AnnealerServingBackend(num_reads=config.num_reads, lanes=_LANES)


@functools.lru_cache(maxsize=1)
def _scenario_jobs(config: ScenarioStudyConfig, name: str, workload_seed: int):
    """The scenario's workload, shared by both arms.

    Memoised for the last ``(config, name, workload_seed)`` only: the two
    arms of a scenario run back to back, so the second reuses the first's
    frozen jobs, and the memo never holds more than one scenario's list.
    """
    scenario = build_scenario(name, config.num_cells, horizon_us=config.horizon_us)
    configs = [MIMOConfig(_NUM_USERS, modulation) for modulation in _MODULATIONS]
    profiles = uniform_cell_profiles(
        num_cells=config.num_cells,
        users_per_cell=config.users_per_cell,
        configs=configs,
        symbol_period_us=config.base_symbol_period_us,
        turnaround_budget_us=_TURNAROUND_BUDGET_US,
    )
    jobs = generate_serving_jobs(
        profiles,
        config.max_jobs_per_user,
        rng=workload_seed,
        scenario=scenario,
    )
    if not jobs:
        raise ConfigurationError(
            f"scenario {name!r} produced no jobs; increase horizon_us or lower "
            "base_symbol_period_us"
        )
    return jobs


def _scenario_shard(
    config: ScenarioStudyConfig, arm: str, workload_seed: int
) -> ServingReport:
    """One (scenario, arm) shard of the catalog sweep.

    ``config.scenarios`` holds exactly the shard's scenario, and every bit of
    shard randomness flows through ``workload_seed`` (the explicitly derived
    per-scenario child seed) — the simulation itself is timing-modelled and
    deterministic.  Both arms serve the identical job list; arms in one
    process share one generated list (see :func:`_scenario_jobs`).  Shards
    are therefore independent of execution order and worker count, and the
    (function, config, seed) triple is the shard's complete cache identity.
    """
    if len(config.scenarios) != 1:
        raise ConfigurationError(
            f"a scenario shard serves exactly one scenario, got {config.scenarios!r}"
        )
    name = config.scenarios[0]
    jobs = _scenario_jobs(config, name, workload_seed)

    if arm == "static":
        static_backends: List = [_annealer(config)] * config.static_workers
        return RANServingSimulator(
            pool=BackendPool(static_backends + [ClassicalServingBackend()]),
            max_batch_size=_MAX_BATCH_SIZE,
        ).run(jobs)
    if arm == "autoscaled":
        return RANServingSimulator(
            pool=ElasticBackendPool(
                annealer=_annealer(config), max_annealer_workers=config.max_workers
            ),
            max_batch_size=_MAX_BATCH_SIZE,
            autoscaler=AutoscaleController(config.autoscale_config()),
        ).run(jobs)
    raise ConfigurationError(f"arm must be 'static' or 'autoscaled', got {arm!r}")


def format_scenario_table(result: ScenarioStudyResult) -> str:
    """Render the catalog sweep plus the last autoscaled report as text."""
    config = result.config
    lines = [
        "RAN scenario study - static vs autoscaled pools across the catalog",
        f"{config.num_cells} cells x {config.users_per_cell} users, horizon "
        f"{config.horizon_us / 1000.0:.1f} ms, budget "
        f"{_TURNAROUND_BUDGET_US:.0f} us, policy edf; static = "
        f"{config.static_workers} workers, autoscaled = "
        f"[1, {config.max_workers}] workers "
        f"(warm-up {config.warmup_us:.0f} us)",
        f"{'scenario':>14}  {'jobs':>5}  {'jobs/ms':>8}  {'miss(static)':>12}  "
        f"{'miss(auto)':>10}  {'p99(static)':>11}  {'p99(auto)':>9}  "
        f"{'mean K':>6}  {'scales':>6}  {'demoted':>7}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.scenario:>14}  {row.num_jobs:>5d}  "
            f"{row.offered_load_jobs_per_ms:>8.2f}  {row.static_miss_rate:>12.3f}  "
            f"{row.autoscaled_miss_rate:>10.3f}  {row.static_p99_us:>11.1f}  "
            f"{row.autoscaled_p99_us:>9.1f}  {row.mean_active_workers:>6.2f}  "
            f"{row.scale_events:>6d}  {row.autoscaled_demotion_rate:>7.3f}"
        )
    lines.append("")
    lines.append(
        format_serving_report(
            result.detail,
            title=f"autoscaled serving report for scenario {result.rows[-1].scenario!r}",
        )
    )
    return "\n".join(lines)


class ScenarioStudyDriver(ExperimentDriver):
    """The catalog sweep behind the shared experiment-driver protocol."""

    name = "scenarios"
    description = "time-varying scenarios — static vs autoscaled"
    metric_names = SCENARIOS_METRICS
    config_class = ScenarioStudyConfig
    format_table = staticmethod(format_scenario_table)

    def tasks(self, config: ScenarioStudyConfig) -> List[ShardTask]:
        """One (scenario, arm) task per catalog entry.

        Each task's configuration is the study configuration restricted to
        its own scenario, and its workload seed is the per-scenario child
        seed — so a task's cache fingerprint never depends on *which other*
        scenarios the sweep contains, and editing the catalog re-keys only
        the touched entries.
        """
        tasks: List[ShardTask] = []
        for name in config.scenarios:
            shard_config = dataclasses.replace(config, scenarios=(name,))
            workload_seed = stable_seed("scenario-study", name, config.base_seed)
            for arm in ("static", "autoscaled"):
                tasks.append(
                    ShardTask(
                        key=("scenario-study", name, arm),
                        fn=_scenario_shard,
                        kwargs={
                            "config": shard_config,
                            "arm": arm,
                            "workload_seed": workload_seed,
                        },
                    )
                )
        return tasks

    def aggregate(
        self, config: ScenarioStudyConfig, results: Sequence[ServingReport]
    ) -> ScenarioStudyResult:
        """Pair the (static, autoscaled) shard reports back into catalog rows."""
        rows: List[ScenarioStudyRow] = []
        for position, name in enumerate(config.scenarios):
            static = results[2 * position]
            autoscaled = results[2 * position + 1]
            rows.append(
                ScenarioStudyRow(
                    scenario=name,
                    num_jobs=autoscaled.num_jobs,
                    offered_load_jobs_per_ms=autoscaled.offered_load_jobs_per_ms,
                    static_miss_rate=static.deadline_miss_rate or 0.0,
                    autoscaled_miss_rate=autoscaled.deadline_miss_rate or 0.0,
                    static_p99_us=static.p99_latency_us,
                    autoscaled_p99_us=autoscaled.p99_latency_us,
                    mean_active_workers=autoscaled.metadata["autoscale_average_active"],
                    scale_events=autoscaled.metadata["autoscale_events"],
                    autoscaled_demotion_rate=autoscaled.demotion_rate,
                )
            )
        return ScenarioStudyResult(rows=rows, detail=results[-1], config=config)

    def metrics(self, rows) -> Tuple[Tuple[str, float], ...]:
        autoscaled = [row.autoscaled_miss_rate for row in rows]
        return (
            ("autoscaled_miss_rate_mean", mean_or_nan(autoscaled)),
            ("autoscaled_miss_rate_max", max(autoscaled, default=float("nan"))),
            (
                "static_miss_rate_mean",
                mean_or_nan([row.static_miss_rate for row in rows]),
            ),
            (
                "autoscaled_p99_us_max",
                max((row.autoscaled_p99_us for row in rows), default=float("nan")),
            ),
            (
                "mean_active_workers_mean",
                mean_or_nan([row.mean_active_workers for row in rows]),
            ),
            ("scale_events_total", float(sum(row.scale_events for row in rows))),
        )

    def progress(self, config, tasks, results) -> None:
        for position, name in enumerate(config.scenarios):
            autoscaled = results[2 * position + 1]
            telemetry.emit_progress(
                "scenario-study", name, miss_rate=autoscaled.deadline_miss_rate or 0.0
            )
