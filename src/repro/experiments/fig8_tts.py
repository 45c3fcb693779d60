"""Experiment E-F8: success probability and TTS vs s_p (paper Figure 8).

For one 8-user 16-QAM decoding instance the paper sweeps the switch/pause
location s_p from 0.25 to 0.99 (in 0.04 steps) and reports, for every
annealing flavour, the ground-state probability p* and the time-to-solution
TTS(99%):

* FA — forward annealing with a pause at s_p;
* FR — forward-reverse annealing, c_p chosen by oracle search;
* RA(GS) — reverse annealing initialised with the Greedy Search solution;
* RA(ground) — reverse annealing initialised with the ground state itself
  (the red dashed reference line);
* RA(ΔE_IS%) — reverse annealing initialised with candidates of intermediate
  quality.

The qualitative findings to reproduce: RA succeeds over a *band* of s_p values
(roughly 0.33-0.49 on hardware), collapses when s_p is too small (the initial
state is wiped out) or too large (fluctuations too weak to repair it), and its
best TTS beats FA's by a sizeable factor.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.classical.greedy import GreedySearchSolver
from repro.experiments.driver import ExperimentDriver, finite_min_or_nan, mean_or_nan
from repro.experiments.instances import InstanceBundle, synthesize_instance
from repro.hybrid.parameters import (
    SwitchPointRecord,
    sweep_forward_reverse_turning_point,
    sweep_switch_point_batch,
)
from repro.metrics.quality import delta_e_percent
from repro import telemetry
from repro.parallel import ShardTask
from repro.utils.rng import stable_seed
from repro.utils.validation import require, require_positive_fields

__all__ = [
    "FIG8_METRICS",
    "Figure8Config",
    "Figure8Driver",
    "Figure8Row",
    "format_figure8_table",
]

#: Scalar metric columns of the fig8 ablation target, in declaration order.
FIG8_METRICS = (
    "success_probability_max",
    "fa_tts_us_min",
    "ra_greedy_tts_us_min",
    "tts_speedup",
    "duration_us_mean",
)

#: The instance's modulation (8-user 16-QAM in the paper).
_MODULATION = "16-QAM"


@dataclass(frozen=True)
class Figure8Config:
    """Configuration of the Figure 8 reproduction.

    Attributes
    ----------
    num_users:
        Users of the instance (8 in the paper).
    switch_values:
        The s_p grid; ``None`` selects a reduced grid spanning the paper's
        0.25-0.99 range.
    num_reads:
        Anneal reads per (method, s_p) point (at least 10,000 in the paper).
    include_fr_oracle:
        Whether to run the FR turning-point oracle search (the most expensive
        part of the sweep).
    intermediate_initial_quality:
        Target ΔE_IS% of the "intermediate quality" RA series (paper's dotted
        yellow lines); ``None`` disables that series.
    instance_seed:
        Which synthetic instance to sweep.  Mirroring the paper — which
        presents "one typical 8-user 16-QAM detection instance" and calls its
        results illustrative — the default seed selects a typical instance in
        which the greedy initial state is configurationally close to the
        optimum; other seeds can give quite different sweeps.
    """

    num_users: int = 8
    switch_values: Optional[Tuple[float, ...]] = None
    num_reads: int = 300
    include_fr_oracle: bool = True
    intermediate_initial_quality: Optional[float] = 6.0
    instance_seed: int = 12
    base_seed: int = 0

    def __post_init__(self) -> None:
        require_positive_fields(self, "num_users", "num_reads")
        require(
            self.switch_values is None or len(self.switch_values) > 0,
            "switch_values must not be empty (None selects the default grid)",
        )

    @classmethod
    def paper_scale(cls) -> "Figure8Config":
        """The full 0.25-0.99 grid in 0.04 steps with 10,000 reads per point."""
        grid = tuple(np.round(np.arange(0.25, 0.99 + 1e-9, 0.04), 4))
        return cls(switch_values=grid, num_reads=10_000)

    @classmethod
    def quick(cls) -> "Figure8Config":
        """A minimal configuration used by the test suite."""
        return cls(
            num_users=3,
            switch_values=(0.33, 0.49, 0.81),
            num_reads=80,
            include_fr_oracle=False,
            intermediate_initial_quality=None,
        )

    def grid(self) -> Tuple[float, ...]:
        """The s_p values actually swept."""
        if self.switch_values is not None:
            return self.switch_values
        return (0.25, 0.33, 0.41, 0.49, 0.57, 0.65, 0.73, 0.81, 0.89, 0.97)


@dataclass(frozen=True)
class Figure8Row:
    """One (method, s_p) point of Figure 8."""

    method: str
    switch_s: float
    success_probability: float
    tts_us: float
    duration_us: float
    initial_quality_percent: Optional[float] = None
    turning_s: Optional[float] = None


def _rows_from_records(
    method: str,
    records: Sequence[SwitchPointRecord],
    initial_quality: Optional[float] = None,
) -> List[Figure8Row]:
    return [
        Figure8Row(
            method=method,
            switch_s=record.switch_s,
            success_probability=record.success_probability,
            tts_us=record.tts.tts_us,
            duration_us=record.duration_us,
            initial_quality_percent=initial_quality,
            turning_s=record.turning_s,
        )
        for record in records
    ]


def _candidate_with_quality(
    bundle: InstanceBundle, target_percent: float, rng: np.random.Generator
) -> Optional[np.ndarray]:
    """Find an initial state whose ΔE_IS% is close to ``target_percent``.

    Draws at most 4000 random bit-flip perturbations of the ground state.
    """
    qubo = bundle.encoding.qubo
    best_candidate: Optional[np.ndarray] = None
    best_gap = np.inf
    for _ in range(4000):
        candidate = bundle.ground_state.copy()
        num_flips = int(rng.integers(1, max(2, qubo.num_variables // 4)))
        flips = rng.choice(qubo.num_variables, size=num_flips, replace=False)
        candidate[flips] = 1 - candidate[flips]
        quality = delta_e_percent(qubo.energy(candidate), bundle.ground_energy)
        gap = abs(quality - target_percent)
        if gap < best_gap:
            best_gap = gap
            best_candidate = candidate
        if gap < 0.5:
            break
    return best_candidate


def _instance_and_annealer(
    config: Figure8Config,
) -> Tuple[InstanceBundle, QuantumAnnealerSimulator]:
    annealer = QuantumAnnealerSimulator(seed=stable_seed("fig8", config.base_seed))
    instance = synthesize_instance(config.num_users, _MODULATION, seed=config.instance_seed)
    return instance, annealer


def _figure8_fa_shard(config: Figure8Config) -> List[Figure8Row]:
    """The FA sweep as one shard (its child seeds span the whole grid).

    A batch of one keeps the forward-annealing code path uniform with RA's.
    """
    instance, annealer = _instance_and_annealer(config)
    fa_records = sweep_switch_point_batch(
        [instance.encoding.qubo],
        [instance.ground_energy],
        method="FA",
        switch_values=config.grid(),
        sampler=annealer,
        num_reads=config.num_reads,
        rng=stable_seed("fig8-fa", config.base_seed),
    )[0]
    return _rows_from_records("FA", fa_records)


def _figure8_ra_shard(config: Figure8Config) -> List[Figure8Row]:
    """The whole reverse-annealing family as one batched sweep shard.

    Greedy candidate (the hybrid prototype), exact ground state (reference
    line) and optionally an intermediate-quality candidate share the RA
    schedule at every s_p, so each grid point is one batched submission
    across the variants (one batched child per variant).
    """
    instance, annealer = _instance_and_annealer(config)
    qubo = instance.encoding.qubo
    ground_energy = instance.ground_energy
    greedy_solution = GreedySearchSolver().solve(qubo)
    greedy_quality = delta_e_percent(greedy_solution.energy, ground_energy)
    ra_labels: List[str] = ["RA-greedy", "RA-ground"]
    ra_qualities: List[float] = [greedy_quality, 0.0]
    ra_initial_states: List[np.ndarray] = [greedy_solution.assignment, instance.ground_state]

    if config.intermediate_initial_quality is not None:
        rng = np.random.default_rng(stable_seed("fig8-candidates", config.base_seed))
        candidate = _candidate_with_quality(instance, config.intermediate_initial_quality, rng)
        if candidate is not None:
            ra_labels.append("RA-intermediate")
            ra_qualities.append(delta_e_percent(qubo.energy(candidate), ground_energy))
            ra_initial_states.append(candidate)

    ra_results = sweep_switch_point_batch(
        [qubo] * len(ra_labels),
        [ground_energy] * len(ra_labels),
        method="RA",
        switch_values=config.grid(),
        initial_states=ra_initial_states,
        sampler=annealer,
        num_reads=config.num_reads,
        rng=stable_seed("fig8-ra", config.base_seed),
    )
    rows: List[Figure8Row] = []
    for label, quality, records in zip(ra_labels, ra_qualities, ra_results):
        rows.extend(_rows_from_records(label, records, quality))
    return rows


def _figure8_fr_shard(config: Figure8Config, switch_s: float) -> List[Figure8Row]:
    """Forward-reverse annealing with the oracle turning point at one s_p.

    Its seed depends only on (base_seed, s_p), so FR points shard freely.
    """
    instance, annealer = _instance_and_annealer(config)
    fr_records = sweep_forward_reverse_turning_point(
        instance.encoding.qubo,
        instance.ground_energy,
        switch_s=float(switch_s),
        turning_values=tuple(
            value for value in (0.45, 0.6, 0.75, 0.9) if value >= switch_s
        ),
        sampler=annealer,
        num_reads=config.num_reads,
        rng=stable_seed("fig8-fr", config.base_seed, float(switch_s)),
    )
    if not fr_records:
        return []
    best = max(fr_records, key=lambda record: record.success_probability)
    return _rows_from_records("FR-oracle", [best])


def format_figure8_table(rows: Sequence[Figure8Row]) -> str:
    """Render the Figure 8 sweep as an aligned text table."""
    lines = [
        "Figure 8 - success probability and TTS(99%) vs switch/pause location s_p",
        f"{'method':>16}  {'s_p':>5}  {'p*':>7}  {'TTS (us)':>12}  {'duration (us)':>13}  "
        f"{'dE_IS%':>7}",
    ]
    for row in sorted(rows, key=lambda item: (item.method, item.switch_s)):
        tts_text = f"{row.tts_us:.1f}" if np.isfinite(row.tts_us) else "inf"
        quality_text = (
            f"{row.initial_quality_percent:.1f}"
            if row.initial_quality_percent is not None
            else "-"
        )
        lines.append(
            f"{row.method:>16}  {row.switch_s:>5.2f}  {row.success_probability:>7.3f}  "
            f"{tts_text:>12}  {row.duration_us:>13.2f}  {quality_text:>7}"
        )
    return "\n".join(lines)


class Figure8Driver(ExperimentDriver):
    """Figure 8 behind the shared experiment-driver protocol."""

    name = "fig8"
    description = "Figure 8 — success probability and TTS vs s_p"
    metric_names = FIG8_METRICS
    config_class = Figure8Config
    format_table = staticmethod(format_figure8_table)

    def tasks(self, config: Figure8Config) -> List[ShardTask]:
        """FA sweep, RA family, one task per FR point.

        The FA and RA sweeps consume their child generators *across* the
        grid (splitting them would change which reads each point draws), so
        each runs as one shard; the FR oracle is seeded per grid point and
        shards freely.  Each shard's configuration normalises away the knobs
        its method never reads (the RA-only ``intermediate_initial_quality``,
        the task-list-level ``include_fr_oracle``, and for FR the grid), so
        toggling one method's knob re-keys only that method's shards in the
        cache.
        """
        fa_config = dataclasses.replace(
            config, include_fr_oracle=False, intermediate_initial_quality=None
        )
        ra_config = dataclasses.replace(config, include_fr_oracle=False)
        tasks = [
            ShardTask(key=("fig8", "fa"), fn=_figure8_fa_shard, kwargs={"config": fa_config}),
            ShardTask(key=("fig8", "ra"), fn=_figure8_ra_shard, kwargs={"config": ra_config}),
        ]
        if config.include_fr_oracle:
            fr_config = dataclasses.replace(
                config, switch_values=None, intermediate_initial_quality=None
            )
            tasks.extend(
                ShardTask(
                    key=("fig8", "fr", float(switch_s)),
                    fn=_figure8_fr_shard,
                    kwargs={"config": fr_config, "switch_s": float(switch_s)},
                )
                for switch_s in config.grid()
            )
        return tasks

    def aggregate(
        self, config: Figure8Config, results: Sequence[List[Figure8Row]]
    ) -> List[Figure8Row]:
        return [row for shard in results for row in shard]

    def metrics(self, rows: Sequence[Figure8Row]) -> Tuple[Tuple[str, float], ...]:
        fa_tts = finite_min_or_nan([row.tts_us for row in rows if row.method == "FA"])
        ra_tts = finite_min_or_nan(
            [row.tts_us for row in rows if row.method == "RA-greedy"]
        )
        if math.isfinite(fa_tts) and math.isfinite(ra_tts) and ra_tts > 0:
            speedup = fa_tts / ra_tts
        else:
            speedup = float("nan")
        return (
            (
                "success_probability_max",
                max((row.success_probability for row in rows), default=float("nan")),
            ),
            ("fa_tts_us_min", fa_tts),
            ("ra_greedy_tts_us_min", ra_tts),
            ("tts_speedup", speedup),
            ("duration_us_mean", mean_or_nan([row.duration_us for row in rows])),
        )

    def progress(self, config, tasks, results) -> None:
        for task, shard in zip(tasks, results):
            telemetry.emit_progress("fig8", task.key[1:], rows=len(shard))
