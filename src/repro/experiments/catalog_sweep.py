"""The paired-arm catalog sweep behind the ``qos`` and ``scenarios`` studies.

Both studies serve every scenario of the catalog
(:mod:`repro.serving.scenarios`) twice, by two arms of one plant, on one
workload: QPSK and 16-QAM two-stream users on a line of cells, 600 us
turnaround budgets, batches of up to 4 jobs on 4-lane annealer workers.  A
study keeps its flat config (checked by :func:`check_sweep_config`), its
arms, its plant (the module-level shard function) and its rows.

A ``(scenario, arm)`` shard's config holds only its own scenario and its
workload seed is the per-scenario child seed, so a shard's cache
fingerprint never depends on the other scenarios of the sweep.  Both arms
serve the identical job list; arms in one process share one generated list
(see :func:`catalog_jobs`), so shards are independent of execution order
and worker count.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.experiments.driver import ExperimentDriver
from repro.network.topology import NetworkTopology
from repro.parallel import ShardTask
from repro.serving.report import ServingReport, format_serving_report
from repro.serving.scenarios import SCENARIO_NAMES, build_scenario
from repro.serving.workload import HandoverModel, generate_serving_jobs, uniform_cell_profiles
from repro.utils.rng import stable_seed
from repro.utils.validation import require, require_positive_fields
from repro.wireless.mimo import MIMOConfig

__all__ = [
    "LANES",
    "MAX_BATCH_SIZE",
    "TURNAROUND_BUDGET_US",
    "CatalogSweepDriver",
    "CatalogSweepResult",
    "catalog_jobs",
    "check_sweep_config",
    "format_sweep_table",
    "shard_scenario",
]

#: Spatial streams of every user, and the modulations cycled across users.
_NUM_USERS = 2
_MODULATIONS = ("QPSK", "16-QAM")

#: Relative deadline of a job (a QoS class's own budget overrides it).
TURNAROUND_BUDGET_US = 600.0

#: Side-by-side lanes of an annealer worker, and the largest batch the plant
#: coalesces.
LANES = 4
MAX_BATCH_SIZE = 4

#: Traffic and plant fields both study configs carry; each must be positive.
_POSITIVE_FIELDS = (
    "num_cells",
    "users_per_cell",
    "base_symbol_period_us",
    "horizon_us",
    "max_jobs_per_user",
    "num_reads",
)


def check_sweep_config(config: Any) -> None:
    """Reject an empty or unknown scenario list and a non-positive traffic field."""
    require(bool(config.scenarios), "scenarios must not be empty")
    for name in config.scenarios:
        if name not in SCENARIO_NAMES:
            raise ConfigurationError(
                f"unknown scenario {name!r}; catalog: {', '.join(SCENARIO_NAMES)}"
            )
    require_positive_fields(config, *_POSITIVE_FIELDS)


@dataclass(frozen=True)
class CatalogSweepResult:
    """The sweep's rows plus the second arm's report of the last scenario."""

    rows: List[Any]
    detail: ServingReport
    config: Any


@functools.lru_cache(maxsize=1)
def catalog_jobs(
    config: Any,
    name: str,
    workload_seed: int,
    service_classes: Optional[Tuple[str, ...]] = None,
    handover_velocity_mps: Optional[float] = None,
) -> Tuple[NetworkTopology, list]:
    """The line topology and the scenario's workload, shared by both arms.

    ``service_classes`` are cycled across each cell's users, and a
    ``handover_velocity_mps`` re-homes users along handover timelines seeded
    by ``workload_seed``.  Memoised for the last call only: the two arms of
    a scenario run back to back, so the second reuses the first's frozen
    jobs, and the memo never holds more than one scenario's list.
    """
    topology = NetworkTopology.line(config.num_cells)
    scenario = build_scenario(
        name, config.num_cells, horizon_us=config.horizon_us, topology=topology
    )
    profiles = uniform_cell_profiles(
        num_cells=config.num_cells,
        users_per_cell=config.users_per_cell,
        configs=[MIMOConfig(_NUM_USERS, modulation) for modulation in _MODULATIONS],
        symbol_period_us=config.base_symbol_period_us,
        turnaround_budget_us=TURNAROUND_BUDGET_US,
        service_classes=service_classes,
    )
    handover = None
    if handover_velocity_mps is not None:
        handover = HandoverModel(velocity_mps=handover_velocity_mps, seed=workload_seed)
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


def shard_scenario(config: Any, arm: str, arms: Tuple[str, str]) -> str:
    """The one scenario a shard's config holds, once ``arm`` is one of ``arms``."""
    if len(config.scenarios) != 1:
        raise ConfigurationError(
            f"a catalog shard serves exactly one scenario, got {config.scenarios!r}"
        )
    if arm not in arms:
        raise ConfigurationError(f"arm must be one of {arms}, got {arm!r}")
    return config.scenarios[0]


def format_sweep_table(lines: List[str], result: CatalogSweepResult, arm: str) -> str:
    """``lines`` (a study's header and rows), then the ``arm`` detail report."""
    title = f"{arm} serving report for scenario {result.rows[-1].scenario!r}"
    return "\n".join(lines + ["", format_serving_report(result.detail, title=title)])


class CatalogSweepDriver(ExperimentDriver):
    """A paired-arm catalog sweep behind the experiment-driver protocol.

    Subclasses set :attr:`label`, :attr:`arms` and :attr:`shard`, and pair
    each scenario's two reports into rows in ``aggregate`` (see
    :meth:`arm_pairs`).
    """

    #: First element of every task key, and the seed and progress namespace.
    label: str
    #: The two arms, in task order per scenario.
    arms: Tuple[str, str]
    #: ``(config, arm, workload_seed) -> ServingReport``, the study's plant
    #: (``staticmethod``-wrapped, so the pool can pickle it by name).
    shard: Callable[..., ServingReport]

    def tasks(self, config: Any) -> List[ShardTask]:
        """One ``(label, scenario, arm)`` task per catalog entry and arm."""
        tasks: List[ShardTask] = []
        for name in config.scenarios:
            shard_config = dataclasses.replace(config, scenarios=(name,))
            workload_seed = stable_seed(self.label, name, config.base_seed)
            for arm in self.arms:
                kwargs = {"config": shard_config, "arm": arm, "workload_seed": workload_seed}
                tasks.append(ShardTask(key=(self.label, name, arm), fn=self.shard, kwargs=kwargs))
        return tasks

    @staticmethod
    def arm_pairs(
        config: Any, results: Sequence[ServingReport]
    ) -> List[Tuple[str, ServingReport, ServingReport]]:
        """``(scenario, first-arm report, second-arm report)`` in sweep order."""
        return [
            (name, results[2 * position], results[2 * position + 1])
            for position, name in enumerate(config.scenarios)
        ]

    def progress(self, config, tasks, results) -> None:
        for name, _, second in self.arm_pairs(config, results):
            telemetry.emit_progress(self.label, name, miss_rate=second.deadline_miss_rate or 0.0)
