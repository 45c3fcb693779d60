"""Experiment E-F6: ΔE% sample distributions for FA / RA(random) / RA(GS).

Paper Figure 6 shows, for 36-variable decoding problems of every modulation,
the distribution of the quality percentile ΔE% over all anneal samples for
three solver flavours:

* forward annealing (the QuAMax baseline),
* reverse annealing initialised from a *random* state,
* reverse annealing initialised from the Greedy Search solution (the paper's
  hybrid prototype).

The headline shape: the GS-initialised distribution is concentrated at low
ΔE% (best), the randomly-initialised one is skewed toward high ΔE% (worst),
and forward annealing sits in between.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.annealing.schedule import forward_anneal_schedule, reverse_anneal_schedule
from repro.classical.greedy import GreedySearchSolver
from repro.experiments.instances import (
    instance_qubos,
    paper_figure6_configurations,
    synthesize_instances,
)
from repro.experiments.driver import ExperimentDriver
from repro.metrics.quality import delta_e_distribution
from repro.metrics.statistics import histogram_percentiles
from repro import telemetry
from repro.parallel import ShardTask
from repro.utils.rng import spawn_rngs, stable_seed
from repro.utils.validation import require, require_positive_fields

__all__ = [
    "Figure6Config",
    "Figure6Driver",
    "Figure6Series",
    "format_figure6_table",
]

#: The three solver flavours compared by Figure 6.
METHODS = ("FA", "RA-random", "RA-greedy")

#: Pause / switch location used for all three methods.  The paper uses each
#: method's "median best parameter setting"; this reproduction uses one
#: shared location chosen from the hybrid's best band on 36-variable
#: problems under the simulator.  The Figure 6 ordering of the methods can
#: change with this choice.
_SWITCH_S = 0.57

#: ΔE% histogram bins.
_BIN_EDGES = (0.0, 2.0, 5.0, 10.0, 20.0, 40.0, 70.0, 100.0, 1e9)


@dataclass(frozen=True)
class Figure6Config:
    """Configuration of the Figure 6 reproduction.

    Attributes
    ----------
    num_variables:
        Problem size in QUBO variables (36 in the paper).
    instances_per_modulation:
        Independent instances per modulation (20 in the paper).
    num_reads:
        Anneal reads per instance and method (200,000-600,000 in aggregate in
        the paper; the default here keeps laptop runtimes reasonable while
        preserving the distribution shapes).
    """

    num_variables: int = 36
    instances_per_modulation: int = 2
    num_reads: int = 300
    base_seed: int = 0
    modulations: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        require_positive_fields(self, "num_variables", "instances_per_modulation", "num_reads")
        require(
            self.modulations is None or len(self.modulations) > 0,
            "modulations must not be empty (None selects all)",
        )

    @classmethod
    def paper_scale(cls) -> "Figure6Config":
        """Instance and read counts approaching the paper's protocol."""
        return cls(instances_per_modulation=20, num_reads=10_000)

    @classmethod
    def quick(cls) -> "Figure6Config":
        """A minimal configuration used by the test suite."""
        return cls(
            num_variables=12,
            instances_per_modulation=1,
            num_reads=100,
            modulations=("QPSK", "16-QAM"),
        )


@dataclass(frozen=True)
class Figure6Series:
    """The ΔE% distribution of one (modulation, method) pair."""

    modulation: str
    num_users: int
    method: str
    num_samples: int
    mean_delta_e: float
    median_delta_e: float
    ground_state_fraction: float
    histogram: Tuple[float, ...]
    bin_edges: Tuple[float, ...]


def _figure6_shard(config: Figure6Config, num_users: int, modulation: str) -> List[Figure6Series]:
    """Run the three-method comparison for one (num_users, modulation) pair.

    All anneal randomness flows through children spawned from
    ``stable_seed("fig6-anneal", method, modulation, num_users, base_seed)``,
    so configurations are mutually independent: sharding the figure across
    processes cannot change a single sample.
    """
    annealer = QuantumAnnealerSimulator(seed=stable_seed("fig6", config.base_seed))
    greedy = GreedySearchSolver()
    bundles = synthesize_instances(
        config.instances_per_modulation,
        num_users,
        modulation,
        base_seed=config.base_seed,
    )

    qubos = instance_qubos(bundles)
    grounds = [bundle.ground_energy for bundle in bundles]
    # Each instance draws a distinct random initial state (the seed-era
    # driver reused one state per modulation, which made the RA(random)
    # series an average over identical runs rather than random states).
    state_rng = np.random.default_rng(
        stable_seed("fig6-instance", modulation, num_users, config.base_seed)
    )
    random_states = [state_rng.integers(0, 2, qubo.num_variables) for qubo in qubos]
    greedy_solutions = greedy.solve_batch(qubos)

    # One anneal child generator per (method, instance).
    method_children = {
        method: spawn_rngs(
            stable_seed("fig6-anneal", method, modulation, num_users, config.base_seed),
            len(qubos),
        )
        for method in METHODS
    }

    def delta_e(samplesets) -> np.ndarray:
        return np.concatenate(
            [
                delta_e_distribution(sampleset, ground)
                for sampleset, ground in zip(samplesets, grounds)
            ]
        )

    # Each method's reads for every instance of the modulation go through the
    # annealer as one batched submission, reduced to ΔE% samples before the
    # next method runs.
    per_method = {
        "FA": delta_e(
            annealer.sample_qubo_batch(
                qubos,
                forward_anneal_schedule(1.0, _SWITCH_S, 1.0),
                config.num_reads,
                rng=method_children["FA"],
            )
        ),
        "RA-random": delta_e(
            annealer.sample_qubo_batch(
                qubos,
                reverse_anneal_schedule(_SWITCH_S),
                config.num_reads,
                random_states,
                rng=method_children["RA-random"],
            )
        ),
        "RA-greedy": delta_e(
            annealer.sample_qubo_batch(
                qubos,
                reverse_anneal_schedule(_SWITCH_S),
                config.num_reads,
                [solution.assignment for solution in greedy_solutions],
                rng=method_children["RA-greedy"],
            )
        ),
    }

    series: List[Figure6Series] = []
    for method, samples in per_method.items():
        histogram = histogram_percentiles(samples, _BIN_EDGES)
        series.append(
            Figure6Series(
                modulation=modulation,
                num_users=num_users,
                method=method,
                num_samples=int(samples.size),
                mean_delta_e=float(np.mean(samples)),
                median_delta_e=float(np.median(samples)),
                ground_state_fraction=float(np.mean(samples <= 1e-6)),
                histogram=tuple(float(value) for value in histogram),
                bin_edges=_BIN_EDGES,
            )
        )
    return series


def format_figure6_table(series: Sequence[Figure6Series]) -> str:
    """Render the Figure 6 summary as an aligned text table."""
    lines = [
        "Figure 6 - Delta-E% distribution over anneal samples",
        f"{'modulation':>10}  {'method':>10}  {'samples':>8}  {'mean dE%':>9}  "
        f"{'median dE%':>10}  {'P(ground)':>9}",
    ]
    for row in series:
        lines.append(
            f"{row.modulation:>10}  {row.method:>10}  {row.num_samples:>8}  "
            f"{row.mean_delta_e:>9.2f}  {row.median_delta_e:>10.2f}  "
            f"{row.ground_state_fraction:>9.3f}"
        )
    return "\n".join(lines)


class Figure6Driver(ExperimentDriver):
    """Figure 6 behind the shared experiment-driver protocol."""

    name = "fig6"
    description = "Figure 6 — delta-E percentage distributions of FA / RA"
    config_class = Figure6Config
    format_table = staticmethod(format_figure6_table)

    def tasks(self, config: Figure6Config) -> List[ShardTask]:
        """One task per (num_users, modulation) pair.

        The per-shard configuration normalises the ``modulations`` filter
        away (the shard is already pinned to one modulation), so changing
        which modulations a run sweeps re-keys only the added or removed
        pairs.
        """
        configurations = paper_figure6_configurations(config.num_variables)
        if config.modulations is not None:
            configurations = [
                (users, modulation)
                for users, modulation in configurations
                if modulation in config.modulations
            ]
        shard_config = dataclasses.replace(config, modulations=None)
        return [
            ShardTask(
                key=("fig6", modulation, num_users),
                fn=_figure6_shard,
                kwargs={
                    "config": shard_config,
                    "num_users": num_users,
                    "modulation": modulation,
                },
            )
            for num_users, modulation in configurations
        ]

    def aggregate(
        self, config: Figure6Config, results: Sequence[List[Figure6Series]]
    ) -> List[Figure6Series]:
        return [entry for shard in results for entry in shard]

    def progress(self, config, tasks, results) -> None:
        for task, shard in zip(tasks, results):
            telemetry.emit_progress("fig6", task.key[1:], series=len(shard))
