"""Declarative ablation/HPO harness over the sharded parallel runner.

A frozen :class:`AblationSpec` (base config overrides + swept axes +
expansion strategy + metric selectors + optional budget) expands into a
deterministic, de-duplicated list of :class:`StudyPoint`\\ s; each point
compiles into the target experiment's own ``ShardTask`` list; one
:class:`~repro.parallel.ParallelRunner` call executes everything with
result caching; and the study aggregates into a tidy metrics table plus an
optional Pareto front.  See ``docs/ablation.md`` for the full contract.
"""

from repro.ablation.io import load_spec, spec_from_mapping
from repro.ablation.pareto import ParetoExclusion, ParetoExclusionWarning, pareto_front
from repro.ablation.spec import (
    AblationSpec,
    StudyPoint,
    compile_config,
    expand_spec,
    point_fingerprint,
)
from repro.ablation.study import (
    PointResult,
    StudyResult,
    StudyRow,
    format_study_table,
    run_study,
)

__all__ = [
    "AblationSpec",
    "StudyPoint",
    "StudyRow",
    "StudyResult",
    "PointResult",
    "ParetoExclusion",
    "ParetoExclusionWarning",
    "compile_config",
    "expand_spec",
    "format_study_table",
    "load_spec",
    "pareto_front",
    "point_fingerprint",
    "run_study",
    "spec_from_mapping",
]
