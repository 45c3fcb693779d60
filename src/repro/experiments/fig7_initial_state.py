"""Experiment E-F7: RA performance vs initial-state quality (paper Figure 7).

For one 8-user 16-QAM decoding instance the paper studies how the quality of
the reverse-annealing initial state (ΔE_IS%, binned in 2% steps) correlates
with the solver performance after RA: both the success probability of finding
the optimum and the expectation value of the sample cost improve as ΔE_IS%
decreases.

Candidate initial states of varying quality are generated by randomised local
modifications of the ground state (bit flips) and by random sampling, then
binned by their ΔE_IS%; one RA run per retained candidate provides the
statistics of each bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.annealing.schedule import reverse_anneal_schedule
from repro.experiments.driver import SingleShardDriver
from repro.experiments.instances import InstanceBundle, synthesize_instance
from repro.metrics.quality import delta_e_percent
from repro.utils.rng import stable_seed
from repro.utils.validation import require_positive_fields

__all__ = ["Figure7Config", "Figure7Driver", "Figure7Row", "format_figure7_table"]

#: The instance's modulation (8-user 16-QAM in the paper: 32 variables).
_MODULATION = "16-QAM"

#: RA switch/pause location used for every run.
_SWITCH_S = 0.45

#: Width of the ΔE_IS% bins (2% in the paper).
_BIN_WIDTH_PERCENT = 2.0

#: Initial states beyond this quality are discarded (10% in the paper:
#: "initial states featuring ΔE_IS% >= 10% are out of our consideration").
_MAX_BIN_PERCENT = 10.0


@dataclass(frozen=True)
class Figure7Config:
    """Configuration of the Figure 7 reproduction.

    Attributes
    ----------
    num_users:
        Users of the instance (8 in the paper).
    num_reads:
        Anneal reads per initial-state candidate.
    candidates_per_bin:
        Target number of initial-state candidates retained per bin.
    instance_seed:
        Which synthetic instance to study; like the paper's Figure 7 this is a
        single typical instance (see the note on ``Figure8Config``).
    """

    num_users: int = 8
    num_reads: int = 300
    candidates_per_bin: int = 3
    instance_seed: int = 12
    base_seed: int = 0

    def __post_init__(self) -> None:
        require_positive_fields(self, "num_users", "num_reads", "candidates_per_bin")

    @classmethod
    def paper_scale(cls) -> "Figure7Config":
        """Read counts approaching the paper's 750,000-sample study."""
        return cls(num_reads=10_000, candidates_per_bin=10)

    @classmethod
    def quick(cls) -> "Figure7Config":
        """A minimal configuration used by the test suite."""
        return cls(num_users=3, num_reads=80, candidates_per_bin=1)


@dataclass(frozen=True)
class Figure7Row:
    """Aggregate RA performance for one ΔE_IS% bin."""

    bin_low_percent: float
    bin_high_percent: float
    num_candidates: int
    mean_initial_quality: float
    success_probability: float
    expectation_delta_e: float


def _generate_candidates(
    bundle: InstanceBundle,
    config: Figure7Config,
    rng: np.random.Generator,
) -> Dict[int, List[np.ndarray]]:
    """Bucket initial-state candidates by their ΔE_IS% bin index."""
    qubo = bundle.encoding.qubo
    ground = bundle.ground_energy
    num_bins = int(np.ceil(_MAX_BIN_PERCENT / _BIN_WIDTH_PERCENT))
    buckets: Dict[int, List[np.ndarray]] = {index: [] for index in range(num_bins)}

    # The ground state itself populates the first bin deterministically.
    buckets[0].append(bundle.ground_state.copy())

    attempts = 0
    max_attempts = 4000
    while attempts < max_attempts and any(
        len(candidates) < config.candidates_per_bin for candidates in buckets.values()
    ):
        attempts += 1
        candidate = bundle.ground_state.copy()
        num_flips = int(rng.integers(1, max(2, qubo.num_variables // 3)))
        flip_indices = rng.choice(qubo.num_variables, size=num_flips, replace=False)
        candidate[flip_indices] = 1 - candidate[flip_indices]
        quality = delta_e_percent(qubo.energy(candidate), ground)
        if quality >= _MAX_BIN_PERCENT:
            continue
        bin_index = int(quality // _BIN_WIDTH_PERCENT)
        if len(buckets[bin_index]) < config.candidates_per_bin:
            buckets[bin_index].append(candidate)
    return buckets


def _figure7_rows(config: Figure7Config) -> List[Figure7Row]:
    """Run the initial-state-quality study and return one row per ΔE_IS% bin."""
    instance = synthesize_instance(config.num_users, _MODULATION, seed=config.instance_seed)
    annealer = QuantumAnnealerSimulator(seed=stable_seed("fig7", config.base_seed))
    rng = np.random.default_rng(stable_seed("fig7-candidates", config.base_seed))

    qubo = instance.encoding.qubo
    ground = instance.ground_energy
    buckets = _generate_candidates(instance, config, rng)
    schedule = reverse_anneal_schedule(_SWITCH_S)

    rows: List[Figure7Row] = []
    for bin_index in sorted(buckets):
        candidates = buckets[bin_index]
        if not candidates:
            continue
        qualities: List[float] = []
        successes: List[float] = []
        expectations: List[float] = []
        for candidate in candidates:
            qualities.append(delta_e_percent(qubo.energy(candidate), ground))
            sampleset = annealer.sample_qubo(qubo, schedule, config.num_reads, candidate)
            successes.append(sampleset.success_probability(ground))
            expectations.append(delta_e_percent(sampleset.expectation_energy(), ground))
        rows.append(
            Figure7Row(
                bin_low_percent=bin_index * _BIN_WIDTH_PERCENT,
                bin_high_percent=(bin_index + 1) * _BIN_WIDTH_PERCENT,
                num_candidates=len(candidates),
                mean_initial_quality=float(np.mean(qualities)),
                success_probability=float(np.mean(successes)),
                expectation_delta_e=float(np.mean(expectations)),
            )
        )
    return rows


def format_figure7_table(rows: Sequence[Figure7Row]) -> str:
    """Render the Figure 7 series as an aligned text table."""
    lines = [
        "Figure 7 - RA performance vs initial-state quality (dE_IS%)",
        f"{'dE_IS% bin':>12}  {'candidates':>10}  {'mean dE_IS%':>11}  "
        f"{'success p*':>10}  {'E[dE%] after RA':>15}",
    ]
    for row in rows:
        bin_label = f"[{row.bin_low_percent:.0f},{row.bin_high_percent:.0f})"
        lines.append(
            f"{bin_label:>12}  {row.num_candidates:>10}  {row.mean_initial_quality:>11.2f}  "
            f"{row.success_probability:>10.3f}  {row.expectation_delta_e:>15.2f}"
        )
    return "\n".join(lines)


class Figure7Driver(SingleShardDriver):
    """Figure 7 as one shard: every bin's RA runs draw from one annealer stream."""

    name = "fig7"
    description = "Figure 7 — RA performance vs initial-state quality"
    study = staticmethod(_figure7_rows)
    config_class = Figure7Config
    format_table = staticmethod(format_figure7_table)
