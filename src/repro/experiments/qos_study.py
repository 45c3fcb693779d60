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

import dataclasses
import functools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.experiments.driver import ExperimentDriver, mean_or_nan
from repro.network.topology import build_topology
from repro.parallel import ShardTask
from repro.serving.backends import AnnealerServingBackend, ClassicalServingBackend
from repro.serving.pool import BackendPool
from repro.serving.report import ServingReport, format_serving_report
from repro.serving.scenarios import SCENARIO_NAMES, build_scenario
from repro.serving.simulator import RANServingSimulator
from repro.serving.workload import (
    HandoverModel,
    generate_serving_jobs,
    uniform_cell_profiles,
)
from repro.utils.rng import stable_seed
from repro.wireless.mimo import MIMOConfig

__all__ = [
    "QOS_ARMS",
    "QOS_METRICS",
    "QoSStudyConfig",
    "QoSStudyDriver",
    "QoSStudyRow",
    "QoSStudyResult",
    "format_qos_table",
]

#: Serving arms of the study, in task order per scenario.
QOS_ARMS: Tuple[str, ...] = ("classless", "aware")

#: Scalar metric columns of the ``qos`` ablation target, in order.
QOS_METRICS = (
    "urllc_aware_miss_rate_max",
    "urllc_classless_miss_rate_max",
    "aware_miss_rate_mean",
    "classless_miss_rate_mean",
    "best_effort_demotion_rate_mean",
    "handover_fraction_mean",
)

#: Spatial streams of every user.
_NUM_USERS = 2

#: Modulations cycled across users.
_MODULATIONS = ("QPSK", "16-QAM")

#: QoS class names cycled across each cell's users (see
#: :data:`repro.serving.qos.SERVICE_CLASSES`); per-class budgets override the
#: generic ``_TURNAROUND_BUDGET_US``.
_SERVICE_CLASSES = ("urllc", "embb", "best_effort")

#: Generic relative deadline of a job.
_TURNAROUND_BUDGET_US = 600.0

#: User speed of the handover timelines.  The catalog compresses hours of
#: RAN time into a ~20 ms plant horizon; mobility is compressed by the same
#: factor so boundary crossings land inside the horizon (the effective
#: crossing rate is ``handover_rate_per_us(_VELOCITY_MPS *
#: _HANDOVER_TIME_COMPRESSION)``).
_VELOCITY_MPS = 30.0
_HANDOVER_TIME_COMPRESSION = 1e4

#: Side-by-side lanes of an annealer worker, and the largest batch the plant
#: coalesces.
_LANES = 4
_MAX_BATCH_SIZE = 4


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
        if not self.scenarios:
            raise ConfigurationError("scenarios must not be empty")
        if self.annealer_workers < 1:
            raise ConfigurationError(
                f"annealer_workers must be at least 1, got {self.annealer_workers}"
            )
        for name in self.scenarios:
            if name not in SCENARIO_NAMES:
                raise ConfigurationError(
                    f"unknown scenario {name!r}; catalog: {', '.join(SCENARIO_NAMES)}"
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


@dataclass(frozen=True)
class QoSStudyResult:
    """Per-(scenario, class) rows plus the last aware detail report."""

    rows: List[QoSStudyRow]
    detail: ServingReport
    config: QoSStudyConfig


@functools.lru_cache(maxsize=1)
def _qos_jobs(config: QoSStudyConfig, name: str, workload_seed: int):
    """The scenario's mixed-class, handover-re-homed workload (arm-shared).

    Memoised for the last ``(config, name, workload_seed)`` only: the two
    arms of a scenario run back to back, so the second reuses the first's
    frozen jobs, and the memo never holds more than one scenario's list.
    """
    topology = build_topology("line", 1, config.num_cells)
    scenario = build_scenario(
        name, config.num_cells, horizon_us=config.horizon_us, topology=topology
    )
    configs = [MIMOConfig(_NUM_USERS, modulation) for modulation in _MODULATIONS]
    profiles = uniform_cell_profiles(
        num_cells=config.num_cells,
        users_per_cell=config.users_per_cell,
        configs=configs,
        symbol_period_us=config.base_symbol_period_us,
        turnaround_budget_us=_TURNAROUND_BUDGET_US,
        service_classes=_SERVICE_CLASSES,
    )
    handover = HandoverModel(
        velocity_mps=_VELOCITY_MPS * _HANDOVER_TIME_COMPRESSION, seed=workload_seed
    )
    jobs = generate_serving_jobs(
        profiles,
        config.max_jobs_per_user,
        rng=workload_seed,
        scenario=scenario,
        handover=handover,
    )
    if not jobs:
        raise ConfigurationError(
            f"scenario {name!r} produced no jobs; increase horizon_us or lower "
            "base_symbol_period_us"
        )
    return topology, jobs


def _qos_shard(config: QoSStudyConfig, arm: str, workload_seed: int) -> ServingReport:
    """One (scenario, arm) shard of the QoS sweep.

    ``config.scenarios`` holds exactly the shard's scenario, and both arms
    serve the *identical* job list generated from ``workload_seed`` — the
    comparison is paired by construction, only the plant's class awareness
    differs.  Arms in one process share one generated list (see
    :func:`_qos_jobs`); arms in different processes generate the same list
    each.  Shards are independent of execution order and worker count.
    """
    if len(config.scenarios) != 1:
        raise ConfigurationError(
            f"a QoS shard serves exactly one scenario, got {config.scenarios!r}"
        )
    if arm not in QOS_ARMS:
        raise ConfigurationError(f"arm must be one of {QOS_ARMS}, got {arm!r}")
    name = config.scenarios[0]
    topology, jobs = _qos_jobs(config, name, workload_seed)
    backends: List = [
        AnnealerServingBackend(num_reads=config.num_reads, lanes=_LANES)
    ] * config.annealer_workers
    report = RANServingSimulator(
        pool=BackendPool(backends + [ClassicalServingBackend()]),
        max_batch_size=_MAX_BATCH_SIZE,
        topology=topology,
        class_aware=(arm == "aware"),
    ).run(jobs)
    report.metadata["handover_jobs"] = sum(1 for job in jobs if job.handed_over)
    return report


def format_qos_table(result: QoSStudyResult) -> str:
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
    lines.append("")
    lines.append(
        format_serving_report(
            result.detail,
            title=(
                "class-aware serving report for scenario "
                f"{result.rows[-1].scenario!r}"
            ),
        )
    )
    return "\n".join(lines)


class QoSStudyDriver(ExperimentDriver):
    """The QoS-class sweep behind the shared experiment-driver protocol."""

    name = "qos"
    description = "QoS classes — classless vs class-aware serving with handover"
    metric_names = QOS_METRICS
    config_class = QoSStudyConfig
    format_table = staticmethod(format_qos_table)

    def tasks(self, config: QoSStudyConfig) -> List[ShardTask]:
        """One (scenario, arm) task per catalog entry.

        Each task's configuration is restricted to its own scenario and its
        workload seed is the per-scenario child seed, so a task's cache
        fingerprint never depends on which *other* scenarios the sweep
        contains.
        """
        tasks: List[ShardTask] = []
        for name in config.scenarios:
            shard_config = dataclasses.replace(config, scenarios=(name,))
            workload_seed = stable_seed("qos-study", name, config.base_seed)
            for arm in QOS_ARMS:
                tasks.append(
                    ShardTask(
                        key=("qos-study", name, arm),
                        fn=_qos_shard,
                        kwargs={
                            "config": shard_config,
                            "arm": arm,
                            "workload_seed": workload_seed,
                        },
                    )
                )
        return tasks

    def aggregate(
        self, config: QoSStudyConfig, results: Sequence[ServingReport]
    ) -> QoSStudyResult:
        """Pair the (classless, aware) shard reports back into per-class rows.

        Both arms serve the identical job list, so they expose the identical
        class set; rows follow the aware report's (sorted) class order.
        """
        rows: List[QoSStudyRow] = []
        for position, name in enumerate(config.scenarios):
            classless = results[2 * position]
            aware = results[2 * position + 1]
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
        return QoSStudyResult(rows=rows, detail=results[-1], config=config)

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

    def progress(self, config, tasks, results) -> None:
        for position, name in enumerate(config.scenarios):
            aware = results[2 * position + 1]
            telemetry.emit_progress(
                "qos-study", name, miss_rate=aware.deadline_miss_rate or 0.0
            )
