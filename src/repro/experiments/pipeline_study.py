"""Experiment E-F2: quantifying the pipelined hybrid architecture (Figure 2).

Figure 2 of the paper is a conceptual sketch: successive wireless channel
uses flow through staged classical and quantum processing units so the two
kinds of hardware work concurrently.  This experiment turns the sketch into
numbers by running the same channel-use stream through the
:class:`repro.hybrid.pipeline.HybridPipelineSimulator` twice — once pipelined, once
with the two stages serialised — and comparing throughput, latency and stage
utilisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.experiments.driver import SingleShardDriver
from repro.hybrid.pipeline import HybridPipelineSimulator, PipelineReport
from repro.utils.rng import stable_seed
from repro.utils.validation import require_positive_fields
from repro.wireless.mimo import MIMOConfig
from repro.wireless.traffic import TrafficGenerator

__all__ = [
    "PipelineStudyConfig",
    "PipelineStudyDriver",
    "PipelineStudyResult",
    "format_pipeline_table",
]


@dataclass(frozen=True)
class PipelineStudyConfig:
    """Configuration of the pipeline study.

    Attributes
    ----------
    num_users, modulation:
        Per-channel-use detection problem size.
    num_channel_uses:
        Length of the simulated traffic trace.
    symbol_period_us:
        Channel-use spacing, deterministic (71.4 us matches an LTE OFDM
        symbol; the 5G NR numerologies the paper's introduction targets are
        shorter).
    num_reads:
        Reverse-annealing reads per channel use (the quantum stage's batch).
    evaluate_solutions:
        Whether the annealer actually runs per channel use (slower but lets
        the report include detection quality).
    """

    num_users: int = 4
    modulation: str = "16-QAM"
    num_channel_uses: int = 12
    symbol_period_us: float = 71.4
    turnaround_budget_us: Optional[float] = 500.0
    switch_s: float = 0.41
    num_reads: int = 20
    include_qpu_overheads: bool = False
    evaluate_solutions: bool = True
    base_seed: int = 0

    def __post_init__(self) -> None:
        require_positive_fields(
            self, "num_users", "num_channel_uses", "symbol_period_us", "num_reads"
        )

    @classmethod
    def quick(cls) -> "PipelineStudyConfig":
        """A minimal configuration used by the test suite."""
        return cls(num_users=2, num_channel_uses=4, num_reads=5, evaluate_solutions=False)


@dataclass(frozen=True)
class PipelineStudyResult:
    """Pipelined vs serial reports for the same channel-use stream."""

    pipelined: PipelineReport
    serial: PipelineReport

    @property
    def throughput_gain(self) -> float:
        """Pipelined throughput divided by serial throughput."""
        return self.pipelined.throughput_jobs_per_ms / self.serial.throughput_jobs_per_ms

    @property
    def latency_ratio(self) -> float:
        """Pipelined mean latency divided by serial mean latency."""
        return self.pipelined.mean_latency_us / self.serial.mean_latency_us


def _pipeline_result(config: PipelineStudyConfig) -> PipelineStudyResult:
    """Run the pipelined and serial simulations on an identical traffic trace."""
    annealer = QuantumAnnealerSimulator(seed=stable_seed("pipeline", config.base_seed))
    mimo_config = MIMOConfig(num_users=config.num_users, modulation=config.modulation)
    traffic = TrafficGenerator(
        mimo_config,
        symbol_period_us=config.symbol_period_us,
        turnaround_budget_us=config.turnaround_budget_us,
    )
    channel_uses = traffic.generate(
        config.num_channel_uses, rng=stable_seed("pipeline-traffic", config.base_seed)
    )

    simulator = HybridPipelineSimulator(
        sampler=annealer,
        switch_s=config.switch_s,
        num_reads=config.num_reads,
        include_qpu_overheads=config.include_qpu_overheads,
        evaluate_solutions=config.evaluate_solutions,
    )
    pipelined = simulator.run(
        channel_uses, pipelined=True, rng=stable_seed("pipeline-run", config.base_seed)
    )
    serial = simulator.run(
        channel_uses, pipelined=False, rng=stable_seed("serial-run", config.base_seed)
    )
    return PipelineStudyResult(pipelined=pipelined, serial=serial)


def format_pipeline_table(result: PipelineStudyResult) -> str:
    """Render the pipelined vs serial comparison as an aligned text table."""
    rows = [
        ("mean latency (us)", "mean_latency_us"),
        ("p95 latency (us)", "p95_latency_us"),
        ("throughput (jobs/ms)", "throughput_jobs_per_ms"),
        ("classical utilisation", "classical_utilization"),
        ("quantum utilisation", "quantum_utilization"),
    ]
    lines = [
        "Figure 2 - pipelined vs serial hybrid processing of successive channel uses",
        f"{'metric':>24}  {'pipelined':>12}  {'serial':>12}",
    ]
    for label, attribute in rows:
        pipelined_value = getattr(result.pipelined, attribute)
        serial_value = getattr(result.serial, attribute)
        lines.append(f"{label:>24}  {pipelined_value:>12.3f}  {serial_value:>12.3f}")
    if result.pipelined.deadline_miss_rate is not None:
        lines.append(
            f"{'deadline miss rate':>24}  {result.pipelined.deadline_miss_rate:>12.3f}  "
            f"{result.serial.deadline_miss_rate:>12.3f}"
        )
    lines.append(
        f"throughput gain from pipelining: {result.throughput_gain:.2f}x, "
        f"latency ratio: {result.latency_ratio:.2f}"
    )
    return "\n".join(lines)


class PipelineStudyDriver(SingleShardDriver):
    """Figure 2 as one shard: both runs share one annealer and one trace."""

    name = "pipeline"
    description = "Figure 2 — pipelined classical/quantum processing"
    study = staticmethod(_pipeline_result)
    config_class = PipelineStudyConfig
    format_table = staticmethod(format_pipeline_table)
