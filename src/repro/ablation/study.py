"""Compile and run a declarative study on the sharded parallel runner.

:func:`run_study` is the tentpole pipeline: spec → deterministic point
expansion → per-point-restricted configs → the target driver's own
``ShardTask`` list per point → **one** :class:`~repro.parallel.ParallelRunner`
call over the concatenated task list (so sharding spans study points and the
:class:`~repro.parallel.ResultCache` works per inner shard) → per-point rows,
scalar metrics, ``experiment.point`` telemetry events, and an optional
Pareto front over the spec's objectives.

Because a point's shards are exactly the work units ``run_driver`` would
build for the same config, a study is bitwise-identical to running the
driver once per point — serial, at any worker count, or warm from cache —
and editing one axis value recomputes only the points that use it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro import telemetry
from repro.ablation.pareto import ParetoExclusion, pareto_front
from repro.ablation.spec import AblationSpec, StudyPoint, compile_config, expand_spec
from repro.ablation.targets import sweepable_drivers
from repro.exceptions import ConfigurationError
from repro.experiments.driver import ExperimentDriver, config_presets
from repro.parallel import ParallelRunner, ResultCache, ShardTask
from repro.parallel.runner import RunStats
from repro.telemetry.log import get_logger
from repro.utils.jsonable import to_jsonable

__all__ = [
    "ABLATION_ARTIFACT_SCHEMA_VERSION",
    "PointResult",
    "StudyRow",
    "StudyResult",
    "run_study",
    "format_study_table",
]

_log = get_logger(__name__)

#: Schema version of the per-study JSON artifact (mirrors ``benchmarks/_emit``).
ABLATION_ARTIFACT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PointResult:
    """One completed study point: its coordinates, raw rows and metrics."""

    point: StudyPoint
    metrics: Tuple[Tuple[str, float], ...]
    rows: Tuple[Any, ...]

    @property
    def point_id(self) -> str:
        return self.point.point_id

    def metric(self, name: str) -> float:
        for metric, value in self.metrics:
            if metric == name:
                return value
        raise KeyError(name)


@dataclass(frozen=True)
class StudyRow:
    """One row of the tidy results table (what the golden fixture freezes)."""

    point_id: str
    index: int
    assignments: Tuple[Tuple[str, Any], ...]
    metrics: Tuple[Tuple[str, float], ...]
    on_front: bool


@dataclass
class StudyResult:
    """Everything one :func:`run_study` call produced."""

    spec: AblationSpec
    points: List[PointResult]
    front: Tuple[str, ...]
    excluded: Tuple[ParetoExclusion, ...]
    stats: RunStats

    def table_rows(self) -> List[StudyRow]:
        """The tidy table: one row per point, front membership flagged."""
        on_front = set(self.front)
        return [
            StudyRow(
                point_id=result.point_id,
                index=result.point.index,
                assignments=result.point.assignments,
                metrics=result.metrics,
                on_front=result.point_id in on_front,
            )
            for result in self.points
        ]

    def payload(self) -> dict:
        """The per-study JSON artifact (``benchmarks/_emit`` conventions)."""
        return {
            "schema_version": ABLATION_ARTIFACT_SCHEMA_VERSION,
            "study": self.spec.name,
            "data": {
                "experiment": self.spec.experiment,
                "preset": self.spec.preset,
                "strategy": self.spec.strategy,
                "base": {name: to_jsonable(value) for name, value in self.spec.base},
                "axes": {name: to_jsonable(values) for name, values in self.spec.axes},
                "objectives": [list(pair) for pair in self.spec.objectives],
                "points": [
                    {
                        "point_id": row.point_id,
                        "index": row.index,
                        "assignments": {k: to_jsonable(v) for k, v in row.assignments},
                        "metrics": {k: to_jsonable(v) for k, v in row.metrics},
                        "on_front": row.on_front,
                    }
                    for row in self.table_rows()
                ],
                "pareto": {
                    "front": list(self.front),
                    "excluded": [dataclasses.asdict(item) for item in self.excluded],
                },
                "stats": dataclasses.asdict(self.stats),
            },
        }


def _validate_metric_names(spec: AblationSpec, metric_names: Tuple[str, ...]) -> None:
    known = set(metric_names)
    for selector in spec.metrics:
        if selector not in known:
            raise ConfigurationError(
                f"unknown metric {selector!r} for experiment {spec.experiment!r}; "
                f"metrics: {', '.join(metric_names)}"
            )
    selectable = set(spec.metrics) if spec.metrics else known
    for metric, _ in spec.objectives:
        if metric not in known:
            raise ConfigurationError(
                f"objective metric {metric!r} is not computed by experiment "
                f"{spec.experiment!r}; metrics: {', '.join(metric_names)}"
            )
        if metric not in selectable:
            raise ConfigurationError(
                f"objective metric {metric!r} is filtered out by the spec's "
                "'metrics' selectors; add it there or drop the objective"
            )


def compile_study(
    spec: AblationSpec,
) -> Tuple[ExperimentDriver, Tuple[StudyPoint, ...], List[Any], List[ShardTask], List[slice]]:
    """Validate and compile a spec into its points, configs and shard tasks.

    Returns ``(driver, points, configs, tasks, slices)`` where ``slices[i]``
    selects point ``i``'s tasks inside the concatenated ``tasks`` list.
    """
    drivers = sweepable_drivers()
    if spec.experiment not in drivers:
        raise ConfigurationError(
            f"experiment {spec.experiment!r} is not sweepable; sweepable experiments: "
            + ", ".join(sorted(drivers))
        )
    driver = drivers[spec.experiment]
    presets = config_presets(driver.config_class)
    if spec.preset not in presets:
        raise ConfigurationError(
            f"experiment {spec.experiment!r} has no preset {spec.preset!r}; presets: "
            + ", ".join(sorted(presets))
        )
    base_config = presets[spec.preset]()
    _validate_metric_names(spec, driver.metric_names)
    points = expand_spec(spec)
    configs: List[Any] = []
    tasks: List[ShardTask] = []
    slices: List[slice] = []
    for point in points:
        config = compile_config(spec, point, base_config)
        inner = list(driver.tasks(config))
        slices.append(slice(len(tasks), len(tasks) + len(inner)))
        tasks.extend(inner)
        configs.append(config)
    return driver, points, configs, tasks, slices


def run_study(
    spec: AblationSpec,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> StudyResult:
    """Run one declarative study and return its aggregated results.

    ``workers`` shards the concatenated task list across a process pool —
    results are bitwise-identical to the serial path at any worker count —
    and ``cache`` reuses shard results across runs and across the imperative
    drivers (the shards are identical work units); see :mod:`repro.parallel`.
    """
    driver, points, configs, tasks, slices = compile_study(spec)
    _log.info(
        "ablation.study_start",
        study=spec.name,
        experiment=spec.experiment,
        points=len(points),
        shards=len(tasks),
        workers=workers or 1,
    )
    runner = ParallelRunner(workers=workers, cache=cache)
    shard_results = runner.run_sharded(tasks)

    selected = spec.metrics or driver.metric_names
    results: List[PointResult] = []
    for point, config, task_slice in zip(points, configs, slices):
        rows = tuple(driver.rows(driver.aggregate(config, shard_results[task_slice])))
        all_metrics = dict(driver.metrics(rows))
        metrics = tuple((name, float(all_metrics[name])) for name in selected)
        results.append(PointResult(point=point, metrics=metrics, rows=rows))
        telemetry.emit_progress(
            f"ablation:{spec.name}",
            point.point_id,
            **{name: to_jsonable(value) for name, value in metrics},
        )

    front: Tuple[str, ...] = ()
    excluded: Tuple[ParetoExclusion, ...] = ()
    if spec.objectives and results:
        indices, exclusions = pareto_front(
            [dict(result.metrics) for result in results],
            spec.objectives,
            [result.point_id for result in results],
        )
        front = tuple(results[index].point_id for index in indices)
        excluded = tuple(exclusions)

    stats = dataclasses.replace(runner.last_run)
    _log.info(
        "ablation.study_done",
        study=spec.name,
        points=len(results),
        executed=stats.executed,
        cache_hits=stats.cache_hits,
        front=len(front),
    )
    return StudyResult(spec=spec, points=results, front=front, excluded=excluded, stats=stats)


def format_study_table(result: StudyResult) -> str:
    """Render a study as an aligned text table plus the Pareto summary."""
    spec = result.spec
    rows = result.table_rows()
    axis_names = spec.axis_names()
    metric_names = [name for name, _ in rows[0].metrics] if rows else list(spec.metrics)

    lines = [
        f"Ablation study '{spec.name}' over experiment '{spec.experiment}' "
        f"(preset: {spec.preset}, strategy: {spec.strategy})",
        f"{len(rows)} point(s); {result.stats.executed} shard(s) executed, "
        f"{result.stats.cache_hits} cache hit(s) at {result.stats.workers} worker(s)",
    ]
    headers = ["point", *axis_names, *metric_names] + (["front"] if spec.objectives else [])
    table: List[List[str]] = [headers]
    for row in rows:
        assignments = dict(row.assignments)
        cells = [row.point_id]
        cells.extend(_format_cell(assignments[name]) for name in axis_names)
        metrics = dict(row.metrics)
        cells.extend(_format_cell(metrics[name]) for name in metric_names)
        if spec.objectives:
            cells.append("*" if row.on_front else "")
        table.append(cells)
    widths = [max(len(line[column]) for line in table) for column in range(len(headers))]
    for line in table:
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
    if spec.objectives:
        objectives = ", ".join(f"{metric} ({direction})" for metric, direction in spec.objectives)
        front = ", ".join(result.front) if result.front else "(empty)"
        lines.append(f"Pareto objectives: {objectives}")
        lines.append(f"Pareto front: {front}")
        for exclusion in result.excluded:
            lines.append(f"  excluded: {exclusion.message()}")
    return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return json.dumps(to_jsonable(value))
    return str(value)
