"""Experiment E-SV: offered-load sweep of the RAN serving architectures.

The paper's Figure 2 argues that a centralised RAN should push detection jobs
from many users through a *staged and pooled* hybrid plant.  This study
quantifies the claim as deadline-miss-rate-vs-load curves: the same
multi-user, multi-cell workload (scaled to a grid of offered-load factors) is
served by three architectures —

* **serialized** — one annealer worker, one job at a time (the single-server
  baseline every comparison starts from);
* **pipelined** — the Figure-2 two-stage pipeline
  (:class:`repro.hybrid.pipeline.HybridPipelineSimulator`), which overlaps classical
  and quantum stages but still serves one job per stage at a time;
* **pooled** — the serving subsystem (:class:`repro.serving.RANServingSimulator`):
  K batched annealer workers, deadline-aware scheduling, compatible-job
  coalescing and classical-fallback admission control.

The sweep reports per-load deadline-miss rates and p95 latencies for each
architecture, plus the pooled system's batch occupancy and demotion rate —
showing how the batched pool absorbs load the serial designs drop.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.experiments.driver import ExperimentDriver, mean_or_nan
from repro.hybrid.pipeline import HybridPipelineSimulator, PipelineReport
from repro.parallel import ShardTask
from repro.serving.backends import AnnealerServingBackend, ClassicalServingBackend
from repro.serving.pool import BackendPool
from repro.serving.report import ServingReport, format_serving_report
from repro.serving.simulator import RANServingSimulator
from repro.serving.workload import generate_serving_jobs, uniform_cell_profiles
from repro.telemetry.log import get_logger
from repro.utils.rng import stable_seed
from repro.wireless.mimo import MIMOConfig

_log = get_logger(__name__)

__all__ = [
    "SERVE_METRICS",
    "LoadStudyConfig",
    "LoadStudyDriver",
    "LoadStudyRow",
    "LoadStudyResult",
    "format_load_study_table",
]

#: Scalar metric columns of the ``serve`` ablation target, in order.
SERVE_METRICS = (
    "pooled_miss_rate_mean",
    "pooled_miss_rate_max",
    "serialized_miss_rate_mean",
    "pipelined_miss_rate_mean",
    "pooled_p95_us_max",
    "pooled_demotion_rate_mean",
)

#: Spatial streams of every user.
_NUM_USERS = 2

#: Modulations cycled across users.
_MODULATIONS = ("QPSK", "16-QAM")

#: Per-user mean channel-use spacing at load factor 1.0; a load factor ``f``
#: divides it by ``f``.
_BASE_SYMBOL_PERIOD_US = 900.0

#: Relative deadline of every job.
_TURNAROUND_BUDGET_US = 600.0

#: Largest batch the pooled plant coalesces.
_POOLED_MAX_BATCH_SIZE = 8


@dataclass(frozen=True)
class LoadStudyConfig:
    """Configuration of the offered-load sweep.

    Attributes
    ----------
    num_cells / users_per_cell / jobs_per_user:
        Workload shape.  Users cycle through QPSK and 16-QAM (heterogeneous
        population), each with two spatial streams and Poisson arrivals.
    load_factors:
        The sweep grid.
    num_reads:
        Reverse-annealing reads of the quantum stage(s).
    annealer_workers:
        Annealer workers of the pooled architecture, beside one classical
        worker; it schedules EDF with admission control and batches of up
        to 8 on 8 lanes (the serialized arm always uses one annealer worker
        with ``lanes=1`` and batch size 1).
    """

    num_cells: int = 2
    users_per_cell: int = 3
    jobs_per_user: int = 8
    load_factors: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    num_reads: int = 30
    annealer_workers: int = 3
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.load_factors:
            raise ConfigurationError("load_factors must not be empty")
        for factor in self.load_factors:
            if factor <= 0:
                raise ConfigurationError(f"load factors must be positive, got {factor}")

    @classmethod
    def quick(cls) -> "LoadStudyConfig":
        """A minimal configuration used by the test suite."""
        return cls(
            num_cells=1,
            users_per_cell=2,
            jobs_per_user=4,
            load_factors=(1.0, 4.0),
            num_reads=10,
            annealer_workers=2,
        )

    @classmethod
    def paper_scale(cls) -> "LoadStudyConfig":
        """A dense sweep over a larger cell layout (slow)."""
        return cls(
            num_cells=4,
            users_per_cell=6,
            jobs_per_user=20,
            load_factors=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
            annealer_workers=4,
        )


@dataclass(frozen=True)
class LoadStudyRow:
    """Miss rate and latency of the three architectures at one offered load."""

    load_factor: float
    offered_load_jobs_per_ms: float
    serialized_miss_rate: float
    pipelined_miss_rate: float
    pooled_miss_rate: float
    serialized_p95_us: float
    pipelined_p95_us: float
    pooled_p95_us: float
    pooled_mean_batch: float
    pooled_demotion_rate: float


@dataclass(frozen=True)
class LoadStudyResult:
    """Sweep rows plus the pooled system's detailed report at the peak load."""

    rows: List[LoadStudyRow]
    detail: ServingReport
    config: LoadStudyConfig


def _workload(config: LoadStudyConfig, load_factor: float, workload_seed: int):
    configs = [MIMOConfig(_NUM_USERS, modulation) for modulation in _MODULATIONS]
    profiles = uniform_cell_profiles(
        num_cells=config.num_cells,
        users_per_cell=config.users_per_cell,
        configs=configs,
        symbol_period_us=_BASE_SYMBOL_PERIOD_US / load_factor,
        turnaround_budget_us=_TURNAROUND_BUDGET_US,
    )
    # The same seed family at every load factor: scaling the period rescales
    # arrival times but keeps channel realisations comparable across loads.
    return generate_serving_jobs(profiles, config.jobs_per_user, rng=workload_seed)


def _load_shard(
    config: LoadStudyConfig, workload_seed: int, pipeline_seed: int
) -> Tuple[ServingReport, PipelineReport, ServingReport]:
    """One load-factor shard: (serialized, pipelined, pooled) reports.

    ``config.load_factors`` holds exactly the shard's load factor; all
    randomness flows through the explicit ``workload_seed`` /
    ``pipeline_seed`` children (shared across load factors so channel
    realisations stay comparable), making the shard independent of
    execution order and worker count.
    """
    if len(config.load_factors) != 1:
        raise ConfigurationError(
            f"a load shard sweeps exactly one load factor, got {config.load_factors!r}"
        )
    load_factor = config.load_factors[0]
    jobs = _workload(config, load_factor, workload_seed)

    serialized = RANServingSimulator(
        pool=BackendPool([AnnealerServingBackend(num_reads=config.num_reads, lanes=1)]),
        policy="fifo",
        max_batch_size=1,
        admission_control=False,
    ).run(jobs)

    # The Figure-2 pipeline consumes the merged trace as a channel-use
    # stream (re-indexed into global arrival order).
    channel_uses = [
        dataclasses.replace(job.channel_use, index=position)
        for position, job in enumerate(jobs)
    ]
    pipeline = HybridPipelineSimulator(num_reads=config.num_reads, evaluate_solutions=False)
    pipelined = pipeline.run(channel_uses, pipelined=True, rng=pipeline_seed)

    pooled_backends = [AnnealerServingBackend(num_reads=config.num_reads)] * config.annealer_workers
    pooled = RANServingSimulator(
        pool=BackendPool(pooled_backends + [ClassicalServingBackend()]),
        max_batch_size=_POOLED_MAX_BATCH_SIZE,
    ).run(jobs)
    return serialized, pipelined, pooled


def format_load_study_table(result: LoadStudyResult) -> str:
    """Render the sweep plus the peak-load pooled report as text."""
    config = result.config
    lines = [
        "RAN serving load study - deadline-miss rate vs offered load",
        f"{config.num_cells} cells x {config.users_per_cell} users, "
        f"{config.jobs_per_user} jobs/user, budget {_TURNAROUND_BUDGET_US:.0f} us, "
        f"policy edf, {config.annealer_workers} annealer + 1 classical workers",
        f"{'load':>6}  {'jobs/ms':>8}  {'miss(serial)':>12}  {'miss(pipe)':>10}  "
        f"{'miss(pool)':>10}  {'p95(serial)':>11}  {'p95(pipe)':>9}  {'p95(pool)':>9}  "
        f"{'mean B':>6}  {'demoted':>7}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.load_factor:>6.2f}  {row.offered_load_jobs_per_ms:>8.2f}  "
            f"{row.serialized_miss_rate:>12.3f}  {row.pipelined_miss_rate:>10.3f}  "
            f"{row.pooled_miss_rate:>10.3f}  {row.serialized_p95_us:>11.1f}  "
            f"{row.pipelined_p95_us:>9.1f}  {row.pooled_p95_us:>9.1f}  "
            f"{row.pooled_mean_batch:>6.2f}  {row.pooled_demotion_rate:>7.3f}"
        )
    lines.append("")
    lines.append(
        format_serving_report(
            result.detail,
            title=f"pooled serving report at load {result.rows[-1].load_factor:.2f}",
        )
    )
    return "\n".join(lines)


class LoadStudyDriver(ExperimentDriver):
    """The offered-load sweep behind the shared experiment-driver protocol."""

    name = "serve"
    description = "serving layer — deadline-miss rate vs offered load"
    metric_names = SERVE_METRICS
    config_class = LoadStudyConfig
    format_table = staticmethod(format_load_study_table)

    def tasks(self, config: LoadStudyConfig) -> List[ShardTask]:
        """One task per load factor.

        Each task's configuration is restricted to its own load factor, so a
        grid edit re-keys (and recomputes) only the touched points.
        """
        workload_seed = stable_seed("load-study", config.base_seed)
        pipeline_seed = stable_seed("load-pipe", config.base_seed)
        return [
            ShardTask(
                key=("load-study", float(load_factor)),
                fn=_load_shard,
                kwargs={
                    "config": dataclasses.replace(config, load_factors=(float(load_factor),)),
                    "workload_seed": workload_seed,
                    "pipeline_seed": pipeline_seed,
                },
            )
            for load_factor in config.load_factors
        ]

    def aggregate(
        self,
        config: LoadStudyConfig,
        results: Sequence[Tuple[ServingReport, PipelineReport, ServingReport]],
    ) -> LoadStudyResult:
        """One row per load factor from its (serialized, pipelined, pooled) triple."""
        rows = [
            LoadStudyRow(
                load_factor=load_factor,
                offered_load_jobs_per_ms=pooled.offered_load_jobs_per_ms,
                serialized_miss_rate=serialized.deadline_miss_rate or 0.0,
                pipelined_miss_rate=pipelined.deadline_miss_rate or 0.0,
                pooled_miss_rate=pooled.deadline_miss_rate or 0.0,
                serialized_p95_us=serialized.p95_latency_us,
                pipelined_p95_us=pipelined.p95_latency_us,
                pooled_p95_us=pooled.p95_latency_us,
                pooled_mean_batch=pooled.mean_batch_size,
                pooled_demotion_rate=pooled.demotion_rate,
            )
            for load_factor, (serialized, pipelined, pooled) in zip(config.load_factors, results)
        ]
        return LoadStudyResult(rows=rows, detail=results[-1][2], config=config)

    def metrics(self, rows) -> Tuple[Tuple[str, float], ...]:
        pooled = [row.pooled_miss_rate for row in rows]
        return (
            ("pooled_miss_rate_mean", mean_or_nan(pooled)),
            ("pooled_miss_rate_max", max(pooled, default=float("nan"))),
            (
                "serialized_miss_rate_mean",
                mean_or_nan([row.serialized_miss_rate for row in rows]),
            ),
            (
                "pipelined_miss_rate_mean",
                mean_or_nan([row.pipelined_miss_rate for row in rows]),
            ),
            (
                "pooled_p95_us_max",
                max((row.pooled_p95_us for row in rows), default=float("nan")),
            ),
            (
                "pooled_demotion_rate_mean",
                mean_or_nan([row.pooled_demotion_rate for row in rows]),
            ),
        )

    def progress(self, config, tasks, results) -> None:
        for load_factor, (_, _, pooled) in zip(config.load_factors, results):
            telemetry.emit_progress(
                "load-study",
                load_factor,
                pooled_miss_rate=pooled.deadline_miss_rate or 0.0,
            )
            _log.debug("load_study.point", load_factor=load_factor)
