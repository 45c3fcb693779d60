"""Experiment E-F3: QUBO simplification by variable prefixing (paper Figure 3).

The paper tests the classical pre-processing scheme of Section 3.1 on random
MIMO-detection QUBOs of growing size and all four modulations, reporting two
series per modulation:

* (left panel)  the fraction of instances in which *any* variable could be
  fixed ("ratio of simplified QUBOs");
* (right panel) the average number of fixed variables among the simplified
  instances.

The paper's empirical finding — the scheme achieves nearly no effect for
problems over 32-40 variables, regardless of modulation — is the shape this
experiment reproduces.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments.driver import ExperimentDriver
from repro.experiments.instances import synthesize_instance, variables_for
from repro.parallel import ShardTask
from repro.qubo.preprocessing import simplify_qubo
from repro.utils.validation import require, require_positive

__all__ = ["Figure3Config", "Figure3Driver", "Figure3Row", "format_figure3_table"]


@dataclass(frozen=True)
class Figure3Config:
    """Configuration of the Figure 3 reproduction.

    Attributes
    ----------
    instances_per_point:
        Instances synthesized per (size, modulation) point (the paper uses 50).
    user_counts:
        Users per modulation, as a mapping from modulation name to the list of
        user counts to test.  The default sweeps problem sizes from a handful
        of variables up to ~64, covering the 32-40 variable cliff the paper
        highlights.
    base_seed:
        Seed offset for instance synthesis.
    """

    instances_per_point: int = 10
    user_counts: Dict[str, Tuple[int, ...]] = field(
        default_factory=lambda: {
            "BPSK": (4, 8, 16, 24, 32, 40, 48, 64),
            "QPSK": (2, 4, 8, 12, 16, 20, 24, 32),
            "16-QAM": (1, 2, 4, 6, 8, 10, 12, 16),
            "64-QAM": (1, 2, 4, 6, 8, 10),
        }
    )
    base_seed: int = 0

    def __post_init__(self) -> None:
        require_positive(self.instances_per_point, "instances_per_point")
        users = [count for counts in self.user_counts.values() for count in counts]
        require(bool(users), "user_counts must name at least one point")
        require_positive(min(users), "every user count")

    @classmethod
    def paper_scale(cls) -> "Figure3Config":
        """The configuration matching the paper's 50 instances per point."""
        return cls(instances_per_point=50)


@dataclass(frozen=True)
class Figure3Row:
    """One point of Figure 3: a (modulation, problem size) pair."""

    modulation: str
    num_users: int
    num_variables: int
    instances: int
    simplified_ratio: float
    average_fixed_variables: float


def _figure3_point_shard(config: Figure3Config) -> Figure3Row:
    """The row of the one (modulation, users) point ``config.user_counts`` holds.

    Instance ``index`` is seeded by ``base_seed + index`` alone, so a point
    does not depend on which other points the sweep holds.
    """
    ((modulation, (num_users,)),) = config.user_counts.items()
    fixed_counts: List[int] = []
    for index in range(config.instances_per_point):
        bundle = synthesize_instance(num_users, modulation, seed=config.base_seed + index)
        report = simplify_qubo(bundle.encoding.qubo)
        if report.was_simplified:
            fixed_counts.append(report.num_fixed)
    return Figure3Row(
        modulation=modulation,
        num_users=num_users,
        num_variables=variables_for(num_users, modulation),
        instances=config.instances_per_point,
        simplified_ratio=len(fixed_counts) / config.instances_per_point,
        average_fixed_variables=float(np.mean(fixed_counts)) if fixed_counts else 0.0,
    )


def format_figure3_table(rows: Sequence[Figure3Row]) -> str:
    """Render the Figure 3 series as an aligned text table."""
    lines = [
        "Figure 3 - QUBO simplification by variable prefixing",
        f"{'modulation':>10}  {'users':>5}  {'vars':>4}  {'simplified ratio':>16}  "
        f"{'avg fixed vars':>14}",
    ]
    for row in rows:
        lines.append(
            f"{row.modulation:>10}  {row.num_users:>5}  {row.num_variables:>4}  "
            f"{row.simplified_ratio:>16.2f}  {row.average_fixed_variables:>14.2f}"
        )
    return "\n".join(lines)


class Figure3Driver(ExperimentDriver):
    """Figure 3 behind the shared experiment-driver protocol."""

    name = "fig3"
    description = "Figure 3 — QUBO simplification by variable prefixing"
    config_class = Figure3Config
    format_table = staticmethod(format_figure3_table)

    def tasks(self, config: Figure3Config) -> List[ShardTask]:
        """One task per (modulation, users) point, its config holding only that point."""
        return [
            ShardTask(
                key=("fig3", modulation, users),
                fn=_figure3_point_shard,
                kwargs={"config": dataclasses.replace(config, user_counts={modulation: (users,)})},
            )
            for modulation, user_counts in config.user_counts.items()
            for users in user_counts
        ]
