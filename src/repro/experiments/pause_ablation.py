"""Extension experiment E-X2: the power of pausing (ablation).

The paper's experimental setup (footnote 3 and Sec. 4.2) fixes a 1 us pause
because "the annealing pause brings out improvements for FA and for RA",
citing the pausing literature.  This ablation quantifies that design choice on
the simulator: forward annealing is run with no pause and with pauses of
different durations and locations, and reverse annealing's pause duration is
swept at a fixed switch point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.annealing.schedule import forward_anneal_schedule, reverse_anneal_schedule
from repro.classical.greedy import GreedySearchSolver
from repro.experiments.driver import SingleShardDriver
from repro.experiments.instances import synthesize_instance
from repro.metrics.tts import time_to_solution
from repro.utils.rng import stable_seed
from repro.utils.validation import require, require_non_negative, require_positive_fields

__all__ = ["PauseAblationConfig", "PauseAblationDriver", "PauseAblationRow", "format_pause_table"]

#: The instance's modulation.
_MODULATION = "16-QAM"

#: Where forward annealing pauses.
_FA_PAUSE_S = 0.49

#: Where reverse annealing turns back.
_RA_SWITCH_S = 0.41


@dataclass(frozen=True)
class PauseAblationConfig:
    """Configuration of the pause ablation."""

    num_users: int = 8
    instance_seed: int = 12
    pause_durations_us: Tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    num_reads: int = 400
    base_seed: int = 0

    def __post_init__(self) -> None:
        require_positive_fields(self, "num_users", "num_reads")
        require(bool(self.pause_durations_us), "pause_durations_us must not be empty")
        for pause in self.pause_durations_us:
            require_non_negative(pause, "pause duration")

    @classmethod
    def quick(cls) -> "PauseAblationConfig":
        """A minimal configuration used by the test suite."""
        return cls(num_users=3, pause_durations_us=(0.0, 1.0), num_reads=60)


@dataclass(frozen=True)
class PauseAblationRow:
    """Performance of one (method, pause duration) combination."""

    method: str
    pause_duration_us: float
    success_probability: float
    tts_us: float
    duration_us: float


def _pause_rows(config: PauseAblationConfig) -> List[PauseAblationRow]:
    """Sweep the pause duration for FA and RA(GS) on one instance."""
    instance = synthesize_instance(config.num_users, _MODULATION, seed=config.instance_seed)
    annealer = QuantumAnnealerSimulator(seed=stable_seed("pause-ablation", config.base_seed))
    qubo = instance.encoding.qubo
    ground = instance.ground_energy
    greedy = GreedySearchSolver().solve(qubo)

    rows: List[PauseAblationRow] = []
    for pause in config.pause_durations_us:
        pause = float(pause)
        if pause == 0.0:
            fa_schedule = forward_anneal_schedule(1.0)
        else:
            fa_schedule = forward_anneal_schedule(1.0, _FA_PAUSE_S, pause)
        fa = annealer.sample_qubo(qubo, fa_schedule, config.num_reads)
        ra = annealer.sample_qubo(
            qubo,
            reverse_anneal_schedule(_RA_SWITCH_S, pause),
            config.num_reads,
            greedy.assignment,
        )
        for method, sampleset in (("FA", fa), ("RA-greedy", ra)):
            duration = sampleset.metadata["schedule_duration_us"]
            probability = sampleset.success_probability(ground)
            rows.append(
                PauseAblationRow(
                    method=method,
                    pause_duration_us=pause,
                    success_probability=probability,
                    tts_us=time_to_solution(probability, duration).tts_us,
                    duration_us=duration,
                )
            )
    return rows


def format_pause_table(rows: Sequence[PauseAblationRow]) -> str:
    """Render the pause ablation as an aligned text table."""
    lines = [
        "Ablation - the power of pausing (FA pause at fixed location, RA pause at s_p)",
        f"{'method':>10}  {'pause (us)':>10}  {'p*':>7}  {'TTS (us)':>12}  {'duration (us)':>13}",
    ]
    import numpy as np

    for row in rows:
        tts_text = f"{row.tts_us:.1f}" if np.isfinite(row.tts_us) else "inf"
        lines.append(
            f"{row.method:>10}  {row.pause_duration_us:>10.2f}  {row.success_probability:>7.3f}  "
            f"{tts_text:>12}  {row.duration_us:>13.2f}"
        )
    return "\n".join(lines)


class PauseAblationDriver(SingleShardDriver):
    """The pause ablation as one shard: every duration shares one annealer stream."""

    name = "pause"
    description = "extension — the power of pausing"
    study = staticmethod(_pause_rows)
    config_class = PauseAblationConfig
    format_table = staticmethod(format_pause_table)
