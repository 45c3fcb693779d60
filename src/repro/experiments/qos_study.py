"""Experiment E-QS: multi-service QoS classes, classless vs class-aware.

The scenario study (E-SC) prices *elasticity*; this study prices the
**degradation ladder** (:mod:`repro.serving.qos`).  Every catalog scenario
is served twice by the identical plant on the *identical* mixed-class
workload — urllc / embb / best-effort users cycling per cell, re-homed
mid-scenario by velocity-coupled inter-cell handover
(:class:`~repro.serving.workload.HandoverModel`):

* **classless** — ``class_aware=False``: the scheduler, coalescer and
  admission controller see shapes only, exactly the pre-QoS semantics; and
* **aware** — ``class_aware=True``: priority-first EDF, batches never cross
  the degradation boundary, and admission demotes/sheds the low classes
  under pressure.

Per (scenario, class) the study reports both arms' deadline-miss rates, p99
latencies and demotion rates, showing where class awareness buys urllc
misses back by letting best-effort absorb the overload.  Everything is
timing-modelled and exactly reproducible from ``base_seed``; shards are
arm-independent, so serial and process-pool runs agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments.catalog_sweep import (
    LANES,
    MAX_BATCH_SIZE,
    CatalogSweepDriver,
    CatalogSweepResult,
    catalog_jobs,
    check_sweep_config,
    format_sweep_table,
    shard_scenario,
)
from repro.experiments.driver import mean_or_nan
from repro.serving.backends import AnnealerServingBackend, ClassicalServingBackend
from repro.serving.pool import BackendPool
from repro.serving.report import ServingReport
from repro.serving.simulator import RANServingSimulator

__all__ = [
    "QOS_ARMS",
    "QOS_METRICS",
    "QoSStudyConfig",
    "QoSStudyDriver",
    "QoSStudyRow",
    "format_qos_table",
]

#: Serving arms of the study, in task order per scenario.
QOS_ARMS: Tuple[str, str] = ("classless", "aware")

#: Scalar metric columns of the ``qos`` ablation target, in order.
QOS_METRICS = (
    "urllc_aware_miss_rate_max",
    "urllc_classless_miss_rate_max",
    "aware_miss_rate_mean",
    "classless_miss_rate_mean",
    "best_effort_demotion_rate_mean",
    "handover_fraction_mean",
)

#: QoS class names cycled across each cell's users (see
#: :data:`repro.serving.qos.SERVICE_CLASSES`); per-class budgets override the
#: sweep's generic turnaround budget.
_SERVICE_CLASSES = ("urllc", "embb", "best_effort")

#: User speed of the handover timelines.  The catalog compresses hours of
#: RAN time into a ~20 ms plant horizon; mobility is compressed by the same
#: factor so boundary crossings land inside the horizon (the effective
#: crossing rate is ``handover_rate_per_us(_VELOCITY_MPS *
#: _HANDOVER_TIME_COMPRESSION)``).
_VELOCITY_MPS = 30.0
_HANDOVER_TIME_COMPRESSION = 1e4


@dataclass(frozen=True)
class QoSStudyConfig:
    """Configuration of the QoS-class study.

    Attributes
    ----------
    num_cells / users_per_cell:
        Cell line and user population (QPSK and 16-QAM cycle across users,
        each with two spatial streams and the urllc / embb / best-effort
        classes cycled across each cell's users).
    base_symbol_period_us / horizon_us / max_jobs_per_user:
        Traffic shape shared with the scenario study.
    scenarios:
        Catalog names to sweep (see :data:`repro.serving.SCENARIO_NAMES`).
    num_reads / annealer_workers:
        Plant knobs shared by both arms, beside one classical worker; the
        plant schedules EDF with admission control and batches of up to 4
        on 4 lanes.
    base_seed:
        Root of every derived seed.
    """

    num_cells: int = 4
    users_per_cell: int = 3
    base_symbol_period_us: float = 150.0
    horizon_us: float = 20_000.0
    max_jobs_per_user: int = 900
    scenarios: Tuple[str, ...] = ("steady", "flash-crowd", "busy-day")
    num_reads: int = 30
    annealer_workers: int = 2
    base_seed: int = 0

    def __post_init__(self) -> None:
        check_sweep_config(self)
        if self.annealer_workers < 1:
            raise ConfigurationError(
                f"annealer_workers must be at least 1, got {self.annealer_workers}"
            )

    @classmethod
    def quick(cls) -> "QoSStudyConfig":
        """A minimal configuration used by the test suite and CI smoke."""
        return cls(
            num_cells=2,
            users_per_cell=3,
            horizon_us=6_000.0,
            max_jobs_per_user=60,
            scenarios=("steady", "busy-day"),
            num_reads=10,
        )

    @classmethod
    def paper_scale(cls) -> "QoSStudyConfig":
        """A denser population over a longer horizon (slow)."""
        return cls(
            num_cells=8,
            users_per_cell=4,
            horizon_us=60_000.0,
            max_jobs_per_user=1200,
            annealer_workers=3,
        )


@dataclass(frozen=True)
class QoSStudyRow:
    """Both arms' outcomes for one (scenario, service class) pair."""

    scenario: str
    service_class: str
    jobs: int
    handover_fraction: float
    classless_miss_rate: float
    aware_miss_rate: float
    classless_p99_us: float
    aware_p99_us: float
    classless_demotion_rate: float
    aware_demotion_rate: float


def _qos_jobs(config: QoSStudyConfig, name: str, workload_seed: int):
    """The scenario's mixed-class, handover-re-homed workload, arm-shared.

    Returns ``(topology, jobs)`` from the sweep's one-entry memo (see
    :func:`~repro.experiments.catalog_sweep.catalog_jobs`).
    """
    return catalog_jobs(
        config,
        name,
        workload_seed,
        _SERVICE_CLASSES,
        _VELOCITY_MPS * _HANDOVER_TIME_COMPRESSION,
    )


def _qos_shard(config: QoSStudyConfig, arm: str, workload_seed: int) -> ServingReport:
    """One (scenario, arm) shard: the plant, class-blind or class-aware.

    Both arms serve the identical job list, so the comparison is paired by
    construction; only the plant's class awareness differs.
    """
    name = shard_scenario(config, arm, QOS_ARMS)
    topology, jobs = _qos_jobs(config, name, workload_seed)
    backends: List = [
        AnnealerServingBackend(num_reads=config.num_reads, lanes=LANES)
    ] * config.annealer_workers
    report = RANServingSimulator(
        pool=BackendPool(backends + [ClassicalServingBackend()]),
        max_batch_size=MAX_BATCH_SIZE,
        topology=topology,
        class_aware=(arm == "aware"),
    ).run(jobs)
    report.metadata["handover_jobs"] = sum(1 for job in jobs if job.handed_over)
    return report


def format_qos_table(result: CatalogSweepResult) -> str:
    """Render the QoS sweep plus the last aware report as text."""
    config = result.config
    lines = [
        "RAN QoS study - classless vs class-aware serving across the catalog",
        f"{config.num_cells} cells x {config.users_per_cell} users, classes "
        f"{'/'.join(_SERVICE_CLASSES)}, horizon "
        f"{config.horizon_us / 1000.0:.1f} ms, velocity {_VELOCITY_MPS:.0f} m/s, "
        f"policy edf, {config.annealer_workers} annealer + 1 classical workers",
        f"{'scenario':>14}  {'class':>12}  {'jobs':>5}  {'handover':>8}  "
        f"{'miss(classless)':>15}  {'miss(aware)':>11}  {'p99(classless)':>14}  "
        f"{'p99(aware)':>10}  {'demoted(aware)':>14}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.scenario:>14}  {row.service_class:>12}  {row.jobs:>5d}  "
            f"{row.handover_fraction:>8.3f}  {row.classless_miss_rate:>15.3f}  "
            f"{row.aware_miss_rate:>11.3f}  {row.classless_p99_us:>14.1f}  "
            f"{row.aware_p99_us:>10.1f}  {row.aware_demotion_rate:>14.3f}"
        )
    return format_sweep_table(lines, result, "class-aware")


class QoSStudyDriver(CatalogSweepDriver):
    """The QoS-class sweep behind the shared experiment-driver protocol."""

    name = "qos"
    description = "QoS classes — classless vs class-aware serving with handover"
    metric_names = QOS_METRICS
    config_class = QoSStudyConfig
    format_table = staticmethod(format_qos_table)
    label = "qos-study"
    arms = QOS_ARMS
    shard = staticmethod(_qos_shard)

    def aggregate(
        self, config: QoSStudyConfig, results: Sequence[ServingReport]
    ) -> CatalogSweepResult:
        """Pair the (classless, aware) shard reports back into per-class rows.

        Both arms serve the identical job list, so they expose the identical
        class set; rows follow the aware report's (sorted) class order.
        """
        rows: List[QoSStudyRow] = []
        for name, classless, aware in self.arm_pairs(config, results):
            handover_fraction = (
                aware.metadata.get("handover_jobs", 0) / aware.num_jobs
                if aware.num_jobs
                else 0.0
            )
            for entry in aware.class_reports:
                baseline = classless.class_report(entry.service_class)
                rows.append(
                    QoSStudyRow(
                        scenario=name,
                        service_class=entry.service_class,
                        jobs=entry.jobs,
                        handover_fraction=handover_fraction,
                        classless_miss_rate=(
                            baseline.deadline_miss_rate or 0.0 if baseline else 0.0
                        ),
                        aware_miss_rate=entry.deadline_miss_rate or 0.0,
                        classless_p99_us=baseline.p99_latency_us if baseline else 0.0,
                        aware_p99_us=entry.p99_latency_us,
                        classless_demotion_rate=(
                            baseline.demotion_rate if baseline else 0.0
                        ),
                        aware_demotion_rate=entry.demotion_rate,
                    )
                )
        return CatalogSweepResult(rows=rows, detail=results[-1], config=config)

    def metrics(self, rows) -> Tuple[Tuple[str, float], ...]:
        urllc = [row for row in rows if row.service_class == "urllc"]
        best_effort = [row for row in rows if row.service_class == "best_effort"]
        return (
            (
                "urllc_aware_miss_rate_max",
                max((row.aware_miss_rate for row in urllc), default=float("nan")),
            ),
            (
                "urllc_classless_miss_rate_max",
                max((row.classless_miss_rate for row in urllc), default=float("nan")),
            ),
            ("aware_miss_rate_mean", mean_or_nan([row.aware_miss_rate for row in rows])),
            (
                "classless_miss_rate_mean",
                mean_or_nan([row.classless_miss_rate for row in rows]),
            ),
            (
                "best_effort_demotion_rate_mean",
                mean_or_nan([row.aware_demotion_rate for row in best_effort]),
            ),
            (
                "handover_fraction_mean",
                mean_or_nan([row.handover_fraction for row in rows]),
            ),
        )
