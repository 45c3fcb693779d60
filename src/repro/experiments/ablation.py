"""Ablation experiments: initialiser quality (E-AB1) and soft constraints (E-F4).

Two studies that quantify design choices the paper discusses but does not
fully evaluate:

* **Initialiser ablation** — Section 5 proposes replacing Greedy Search with
  application-specific classical solvers (zero-forcing, MMSE, sphere
  decoders) to obtain better initial states for reverse annealing.  The study
  measures each initialiser's ΔE_IS% and the hybrid's success probability.

* **Soft-information constraints** — Section 3.1 / Figure 4 explores adding
  penalty terms derived from soft information; the paper reports it is "not
  currently practical" because constraint factors are hard to choose on a
  noisy analog machine.  The study sweeps the constraint strength with
  correct and partially incorrect pre-knowledge, recording whether the global
  optimum survives the augmentation and how the solver's success rate moves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.classical.greedy import GreedySearchSolver
from repro.classical.mmse import MMSEDetector
from repro.classical.sphere_decoder import FixedComplexitySphereDecoder, KBestSphereDecoder
from repro.classical.zero_forcing import ZeroForcingDetector
from repro.experiments.driver import ExperimentDriver, SingleShardDriver
from repro.experiments.instances import InstanceBundle, synthesize_instance
from repro.hybrid.solver import DetectorInitializer, HybridQuboSolver
from repro.metrics.quality import delta_e_percent
from repro.parallel import ShardTask
from repro.qubo.constraints import SoftConstraint, add_soft_constraints
from repro.qubo.energy import brute_force_minimum
from repro.utils.rng import stable_seed
from repro.utils.validation import require, require_non_negative, require_positive_fields

__all__ = [
    "INITIALIZERS",
    "InitializerAblationConfig",
    "InitializerAblationDriver",
    "InitializerAblationRow",
    "format_initializer_table",
    "SoftConstraintConfig",
    "SoftConstraintDriver",
    "SoftConstraintRow",
    "format_soft_constraint_table",
]


# --------------------------------------------------------------------------- #
# E-AB1: initialiser quality ablation
# --------------------------------------------------------------------------- #

#: Initialiser name -> factory building it for one instance's encoding.
_INITIALIZER_FACTORIES = {
    "greedy": lambda encoding: GreedySearchSolver(),
    "zero-forcing": lambda encoding: DetectorInitializer(
        ZeroForcingDetector(), encoding, modelled_time_us=2.0
    ),
    "mmse": lambda encoding: DetectorInitializer(MMSEDetector(), encoding, modelled_time_us=2.0),
    "k-best": lambda encoding: DetectorInitializer(
        KBestSphereDecoder(k_best=8), encoding, modelled_time_us=5.0
    ),
    "fcsd": lambda encoding: DetectorInitializer(
        FixedComplexitySphereDecoder(full_expansion_levels=1), encoding, modelled_time_us=4.0
    ),
}

#: Initialiser names :class:`InitializerAblationConfig` accepts.
INITIALIZERS = tuple(_INITIALIZER_FACTORIES)


@dataclass(frozen=True)
class InitializerAblationConfig:
    """Configuration of the initialiser ablation."""

    num_users: int = 6
    modulation: str = "16-QAM"
    switch_s: float = 0.45
    num_reads: int = 200
    instance_seed: int = 2
    base_seed: int = 0
    initializers: Tuple[str, ...] = INITIALIZERS

    def __post_init__(self) -> None:
        require_positive_fields(self, "num_users", "num_reads")
        require(bool(self.initializers), "initializers must not be empty")
        for name in self.initializers:
            require(
                name in INITIALIZERS,
                f"unknown initializer {name!r}; choose from {', '.join(INITIALIZERS)}",
            )

    @classmethod
    def quick(cls) -> "InitializerAblationConfig":
        """A minimal configuration used by the test suite."""
        return cls(num_users=3, num_reads=60, initializers=("greedy", "zero-forcing"))


@dataclass(frozen=True)
class InitializerAblationRow:
    """Hybrid performance with one classical initialiser."""

    initializer: str
    initial_quality_percent: float
    initial_found_optimum: bool
    success_probability: float
    best_energy: float
    classical_time_us: float


def _initializer_shard(config: InitializerAblationConfig) -> InitializerAblationRow:
    """Reverse annealing seeded by the one initialiser ``config.initializers`` holds.

    Each solve draws from its own ``stable_seed("ablation-run", name, …)``,
    so a row does not depend on which other initialisers the study holds.
    """
    (name,) = config.initializers
    instance = synthesize_instance(config.num_users, config.modulation, seed=config.instance_seed)
    ground = instance.ground_energy
    hybrid = HybridQuboSolver(
        classical_solver=_INITIALIZER_FACTORIES[name](instance.encoding),
        sampler=QuantumAnnealerSimulator(seed=stable_seed("ablation", config.base_seed)),
        switch_s=config.switch_s,
        num_reads=config.num_reads,
    )
    result = hybrid.solve(
        instance.encoding.qubo, rng=stable_seed("ablation-run", name, config.base_seed)
    )
    return InitializerAblationRow(
        initializer=name,
        initial_quality_percent=delta_e_percent(result.initial_solution.energy, ground),
        initial_found_optimum=bool(result.initial_solution.energy <= ground + 1e-6),
        success_probability=result.sampleset.success_probability(ground),
        best_energy=result.best_energy,
        classical_time_us=result.classical_time_us,
    )


def format_initializer_table(rows: Sequence[InitializerAblationRow]) -> str:
    """Render the initialiser ablation as an aligned text table."""
    lines = [
        "Ablation - classical initialisers for reverse annealing (paper Sec. 5)",
        f"{'initializer':>14}  {'dE_IS%':>7}  {'init==opt':>9}  {'p* after RA':>11}  "
        f"{'classical time (us)':>19}",
    ]
    for row in rows:
        lines.append(
            f"{row.initializer:>14}  {row.initial_quality_percent:>7.2f}  "
            f"{str(row.initial_found_optimum):>9}  {row.success_probability:>11.3f}  "
            f"{row.classical_time_us:>19.2f}"
        )
    return "\n".join(lines)


class InitializerAblationDriver(ExperimentDriver):
    """The initialiser ablation behind the shared experiment-driver protocol."""

    name = "ablation"
    description = "initialiser-quality ablation (GS/ZF/MMSE/sphere)"
    config_class = InitializerAblationConfig
    format_table = staticmethod(format_initializer_table)

    def tasks(self, config: InitializerAblationConfig) -> List[ShardTask]:
        """One task per initialiser, its config holding only that initialiser."""
        return [
            ShardTask(
                key=("ablation", name),
                fn=_initializer_shard,
                kwargs={"config": dataclasses.replace(config, initializers=(name,))},
            )
            for name in config.initializers
        ]


# --------------------------------------------------------------------------- #
# E-F4: soft-information constraint study
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SoftConstraintConfig:
    """Configuration of the soft-constraint study."""

    num_users: int = 4
    modulation: str = "16-QAM"
    strengths: Tuple[float, ...] = (0.0, 0.5, 2.0, 8.0)
    wrong_pairs: int = 1
    num_reads: int = 200
    switch_s: float = 0.41
    instance_seed: int = 3
    base_seed: int = 0

    def __post_init__(self) -> None:
        require_positive_fields(self, "num_users", "num_reads")
        require_non_negative(self.wrong_pairs, "wrong_pairs")
        require(bool(self.strengths), "strengths must not be empty")
        for strength in self.strengths:
            require_non_negative(strength, "constraint strength")

    @classmethod
    def quick(cls) -> "SoftConstraintConfig":
        """A minimal configuration used by the test suite."""
        return cls(num_users=2, strengths=(0.0, 1.0), num_reads=60)


@dataclass(frozen=True)
class SoftConstraintRow:
    """Effect of one constraint strength on the augmented problem."""

    strength: float
    knowledge: str
    optimum_preserved: bool
    success_probability: float
    expectation_delta_e: float


def _pair_constraints(
    bundle: InstanceBundle, strength: float, wrong_pairs: int
) -> Tuple[List[SoftConstraint], List[SoftConstraint]]:
    """Constraints from correct pre-knowledge and from partially wrong pre-knowledge."""
    ground = bundle.ground_state
    num_variables = ground.size
    pairs = [(index, index + 1) for index in range(0, num_variables - 1, 2)]

    correct = [
        SoftConstraint(
            variables=(i, j),
            targets=(int(ground[i]), int(ground[j])),
            strength=strength,
        )
        for i, j in pairs
    ]
    wrong: List[SoftConstraint] = []
    for count, (i, j) in enumerate(pairs):
        targets = (int(ground[i]), int(ground[j]))
        if count < wrong_pairs:
            targets = (1 - targets[0], 1 - targets[1])
        wrong.append(SoftConstraint(variables=(i, j), targets=targets, strength=strength))
    return correct, wrong


def _soft_constraint_rows(config: SoftConstraintConfig) -> List[SoftConstraintRow]:
    """Sweep constraint strength with correct and partially wrong pre-knowledge."""
    instance = synthesize_instance(config.num_users, config.modulation, seed=config.instance_seed)
    annealer = QuantumAnnealerSimulator(seed=stable_seed("soft-constraints", config.base_seed))
    qubo = instance.encoding.qubo
    ground_energy = instance.ground_energy
    ground_state = instance.ground_state

    rows: List[SoftConstraintRow] = []
    for strength in config.strengths:
        variants = [("none", [])] if strength == 0.0 else []
        if strength > 0.0:
            correct, wrong = _pair_constraints(instance, strength, config.wrong_pairs)
            variants = [("correct", correct), ("partially-wrong", wrong)]
        for knowledge, constraints in variants:
            augmented = add_soft_constraints(qubo, constraints) if constraints else qubo
            # Does the original optimum remain a ground state of the augmented model?
            if augmented.num_variables <= 22:
                exact = brute_force_minimum(augmented, max_variables=22)
                preserved = bool(
                    abs(augmented.energy(ground_state) - exact.energy) <= 1e-6
                )
            else:
                preserved = bool(
                    augmented.energy(ground_state) <= qubo.energy(ground_state) + 1e-6
                )
            sampleset = annealer.forward_anneal(
                augmented, num_reads=config.num_reads, pause_s=config.switch_s
            )
            # Success is judged on the ORIGINAL objective: did the augmented
            # search return the true detection optimum?
            original_energies = qubo.energies(sampleset.assignments())
            weights = sampleset.occurrences()
            hits = sum(
                int(count)
                for energy, count in zip(original_energies, weights)
                if energy <= ground_energy + 1e-6
            )
            success = hits / sampleset.num_reads
            expectation = delta_e_percent(
                float(np.average(original_energies, weights=weights)), ground_energy
            )
            rows.append(
                SoftConstraintRow(
                    strength=float(strength),
                    knowledge=knowledge,
                    optimum_preserved=preserved,
                    success_probability=float(success),
                    expectation_delta_e=float(expectation),
                )
            )
    return rows


def format_soft_constraint_table(rows: Sequence[SoftConstraintRow]) -> str:
    """Render the soft-constraint study as an aligned text table."""
    lines = [
        "Figure 4 / Sec 3.1 - soft-information constraint augmentation",
        f"{'strength':>8}  {'knowledge':>15}  {'optimum preserved':>17}  "
        f"{'p* (original obj)':>17}  {'E[dE%]':>7}",
    ]
    for row in rows:
        lines.append(
            f"{row.strength:>8.2f}  {row.knowledge:>15}  {str(row.optimum_preserved):>17}  "
            f"{row.success_probability:>17.3f}  {row.expectation_delta_e:>7.2f}"
        )
    return "\n".join(lines)


class SoftConstraintDriver(SingleShardDriver):
    """The soft-constraint study as one shard: every strength shares one annealer."""

    name = "constraints"
    description = "Figure 4 — soft-information constraints"
    study = staticmethod(_soft_constraint_rows)
    config_class = SoftConstraintConfig
    format_table = staticmethod(format_soft_constraint_table)
