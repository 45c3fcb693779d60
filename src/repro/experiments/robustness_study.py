"""Extension experiment E-X3: detection robustness under channel impairments.

Every paper figure and serving study answers "how fast" over idealized
channels; this study answers "how robust".  One link configuration is swept
along four impairment axes from :mod:`repro.wireless.fading` — spatial
correlation rho, user velocity (Jakes-Doppler temporal fading), pilot CSI
error variance, and inter-cell interference power — and at each grid point
the linear detectors (zero-forcing, MMSE) and the hybrid Greedy Search +
reverse annealing detector decode a coherent stream of channel uses.

Because imperfect CSI and interference make the analytic ground energy
unavailable, each channel use's QUBO optimum is established by an exhaustive
solve of the (estimated-channel) QUBO, so the hybrid detector's
optimum-detection rate stays well defined across the whole sweep.  Each grid
point is one :class:`~repro.parallel.ShardTask` whose configuration is
restricted to its own point, so the sweep shards onto the
:class:`~repro.parallel.ParallelRunner` with bitwise serial/parallel
equality and per-grid-point cache keys: editing one point of one axis
recomputes exactly that point.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.classical.exhaustive import ExhaustiveSolver
from repro.classical.mmse import MMSEDetector
from repro.classical.zero_forcing import ZeroForcingDetector
from repro.exceptions import ConfigurationError
from repro.experiments.driver import ExperimentDriver, mean_or_nan
from repro.hybrid.solver import HybridMIMODetector
from repro.parallel import ShardTask
from repro.transform.mimo_to_qubo import is_optimum, mimo_to_qubo
from repro.utils.rng import ensure_rng, stable_seed
from repro.utils.validation import require, require_positive_fields
from repro.wireless.channel import effective_noise_variance
from repro.wireless.fading import ChannelImpairments, FadingProcess
from repro.wireless.metrics import bit_error_rate
from repro.wireless.mimo import MIMOConfig, simulate_transmission

__all__ = [
    "ROBUSTNESS_AXES",
    "ROBUSTNESS_METRICS",
    "RobustnessStudyConfig",
    "RobustnessStudyDriver",
    "RobustnessRow",
    "format_robustness_table",
]

#: The four impairment axes, in sweep order.
ROBUSTNESS_AXES = ("correlation", "doppler", "csi-error", "interference")

#: Scalar metric columns of the robustness ablation target, in order.
ROBUSTNESS_METRICS = (
    "hybrid_ber_mean",
    "mmse_ber_mean",
    "zero_forcing_ber_mean",
    "hybrid_optimum_rate_mean",
    "hybrid_time_us_mean",
    "hybrid_time_us_p95",
)

#: Maps each axis to its grid field on :class:`RobustnessStudyConfig`.
_AXIS_FIELDS = {
    "correlation": "correlation_grid",
    "doppler": "velocity_grid_mps",
    "csi-error": "csi_error_grid",
    "interference": "interference_grid",
}


@dataclass(frozen=True)
class RobustnessStudyConfig:
    """Configuration of the impairment sweep.

    Attributes
    ----------
    num_users, num_receive_antennas, modulation, snr_db:
        Link configuration; the default 3x5 QPSK link at 14 dB keeps the
        exhaustive QUBO reference (64 states) trivial while leaving every
        detector short of error-free.
    channel_uses_per_point:
        Length of the coherent block stream decoded per grid point.  The
        stream evolves through one :class:`~repro.wireless.fading.FadingProcess`,
        so the Doppler axis genuinely decorrelates successive uses.
    correlation_grid:
        Spatial correlation rho applied to both arrays (Kronecker model).
    velocity_grid_mps:
        User velocities; translated through the Jakes model at
        ``carrier_frequency_ghz`` / ``block_period_us``.
    csi_error_grid:
        Pilot estimation-error variances (QUBOs are built from the
        estimate; symbols propagate through the true channel).
    interference_grid:
        Inter-cell interference powers, in units of the AWGN variance
        convention (the MMSE detector regularises on noise + interference).
    """

    num_users: int = 3
    num_receive_antennas: int = 5
    modulation: str = "QPSK"
    snr_db: float = 14.0
    channel_uses_per_point: int = 8
    num_reads: int = 100
    switch_s: float = 0.45
    base_seed: int = 0
    correlation_grid: Tuple[float, ...] = (0.0, 0.3, 0.6, 0.9)
    velocity_grid_mps: Tuple[float, ...] = (0.0, 3.0, 30.0, 120.0)
    csi_error_grid: Tuple[float, ...] = (0.0, 0.02, 0.1, 0.3)
    interference_grid: Tuple[float, ...] = (0.0, 0.5, 2.0)
    carrier_frequency_ghz: float = 3.5
    block_period_us: float = 71.4

    def __post_init__(self) -> None:
        require(
            any(getattr(self, field) for field in _AXIS_FIELDS.values()),
            "at least one impairment grid must be non-empty",
        )
        require_positive_fields(self, "channel_uses_per_point", "num_reads")

    @classmethod
    def quick(cls) -> "RobustnessStudyConfig":
        """A minimal configuration used by the test suite and CI smoke."""
        return cls(
            num_users=2,
            num_receive_antennas=4,
            channel_uses_per_point=2,
            num_reads=40,
            correlation_grid=(0.0, 0.9),
            velocity_grid_mps=(0.0, 120.0),
            csi_error_grid=(0.0, 0.3),
            interference_grid=(0.0, 2.0),
        )

    @classmethod
    def paper_scale(cls) -> "RobustnessStudyConfig":
        """Denser grids and longer coherent streams (slow)."""
        return cls(
            channel_uses_per_point=40,
            num_reads=400,
            correlation_grid=(0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95),
            velocity_grid_mps=(0.0, 1.5, 3.0, 10.0, 30.0, 60.0, 120.0),
            csi_error_grid=(0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3),
            interference_grid=(0.0, 0.25, 0.5, 1.0, 2.0, 4.0),
        )


@dataclass(frozen=True)
class RobustnessRow:
    """Detector quality at one (axis, value) impairment grid point."""

    axis: str
    value: float
    channel_uses: int
    zero_forcing_ber: float
    mmse_ber: float
    hybrid_ber: float
    hybrid_optimum_rate: float
    hybrid_time_us: float


def _impairments_for(
    config: RobustnessStudyConfig, axis: str, value: float
) -> ChannelImpairments:
    """The impairment configuration of one grid point (one axis active)."""
    if axis == "correlation":
        return ChannelImpairments(rx_correlation=value, tx_correlation=value)
    if axis == "doppler":
        return ChannelImpairments.from_mobility(
            value,
            carrier_frequency_ghz=config.carrier_frequency_ghz,
            block_period_us=config.block_period_us,
        )
    if axis == "csi-error":
        return ChannelImpairments(csi_error_variance=value)
    if axis == "interference":
        return ChannelImpairments(interference_power=value)
    raise ConfigurationError(
        f"unknown robustness axis {axis!r}; axes: {', '.join(ROBUSTNESS_AXES)}"
    )


def _axis_grid(config: RobustnessStudyConfig, axis: str) -> Tuple[float, ...]:
    try:
        return tuple(getattr(config, _AXIS_FIELDS[axis]))
    except KeyError:
        raise ConfigurationError(
            f"unknown robustness axis {axis!r}; axes: {', '.join(ROBUSTNESS_AXES)}"
        ) from None


def _robustness_point_shard(config: RobustnessStudyConfig, axis: str) -> RobustnessRow:
    """Decode one coherent stream under one impairment grid point.

    The config's axis grid holds exactly the point.  Channel synthesis walks
    the point's fading process use by use (block ``i`` depends on blocks
    ``0..i-1`` exactly as physics demands), each use drawing from its own
    explicit child seed; detection randomness flows through separate per-use
    children.
    """
    grid = _axis_grid(config, axis)
    if len(grid) != 1:
        raise ConfigurationError(
            f"a robustness shard sweeps exactly one {axis} point, got {grid!r}"
        )
    value = float(grid[0])
    annealer = QuantumAnnealerSimulator(
        seed=stable_seed("robustness-study", axis, config.base_seed)
    )
    impairments = _impairments_for(config, axis, value)
    mimo_config = MIMOConfig(
        num_users=config.num_users,
        modulation=config.modulation,
        num_receive_antennas=config.num_receive_antennas,
        snr_db=float(config.snr_db),
    )
    zero_forcing = ZeroForcingDetector()
    mmse = MMSEDetector(
        noise_variance=effective_noise_variance(
            mimo_config.noise_variance, impairments.interference_power
        )
    )
    hybrid = HybridMIMODetector(
        sampler=annealer,
        switch_s=config.switch_s,
        num_reads=config.num_reads,
    )
    exhaustive = ExhaustiveSolver()

    process = FadingProcess(config.num_receive_antennas, config.num_users, impairments)
    seeds = [
        stable_seed("robustness-use", axis, value, index, config.base_seed)
        for index in range(config.channel_uses_per_point)
    ]
    transmissions = []
    for seed in seeds:
        generator = ensure_rng(seed)
        channel = process.advance(generator)
        transmissions.append(
            simulate_transmission(
                mimo_config,
                rng=generator,
                impairments=impairments,
                channel_matrix=channel,
            )
        )
    encodings = [mimo_to_qubo(transmission.instance) for transmission in transmissions]
    # The estimated-channel QUBO's true optimum, independent of impairments.
    grounds = [exhaustive.solve(encoding.qubo).energy for encoding in encodings]

    zf_errors: List[float] = []
    mmse_errors: List[float] = []
    hybrid_errors: List[float] = []
    optimum_hits: List[bool] = []
    hybrid_times: List[float] = []

    for transmission, encoding in zip(transmissions, encodings):
        zf_bits = encoding.payload_bits(
            encoding.symbols_to_bits(zero_forcing.detect(transmission.instance))
        )
        zf_errors.append(bit_error_rate(transmission.transmitted_bits, zf_bits))
        mmse_bits = encoding.payload_bits(
            encoding.symbols_to_bits(mmse.detect(transmission.instance))
        )
        mmse_errors.append(bit_error_rate(transmission.transmitted_bits, mmse_bits))

    details = hybrid.detect_batch_with_details(
        [transmission.instance for transmission in transmissions],
        rng=[ensure_rng(seed + 1) for seed in seeds],
    )
    for transmission, ground, (detection, solver_result) in zip(transmissions, grounds, details):
        hybrid_errors.append(bit_error_rate(transmission.transmitted_bits, detection.bits))
        optimum_hits.append(is_optimum(solver_result.best_energy, ground))
        hybrid_times.append(solver_result.total_time_us)

    return RobustnessRow(
        axis=axis,
        value=float(value),
        channel_uses=config.channel_uses_per_point,
        zero_forcing_ber=float(np.mean(zf_errors)),
        mmse_ber=float(np.mean(mmse_errors)),
        hybrid_ber=float(np.mean(hybrid_errors)),
        hybrid_optimum_rate=float(np.mean(optimum_hits)),
        hybrid_time_us=float(np.mean(hybrid_times)),
    )


def format_robustness_table(rows: Sequence[RobustnessRow]) -> str:
    """Render the impairment sweep as an aligned text table, one axis block each."""
    lines = ["Extension - detection robustness under channel impairments"]
    for axis in ROBUSTNESS_AXES:
        axis_rows = [row for row in rows if row.axis == axis]
        if not axis_rows:
            continue
        lines.append("")
        lines.append(f"{_AXIS_LABELS.get(axis, axis)}:")
        lines.append(
            f"{'value':>8}  {'uses':>5}  {'ZF BER':>7}  {'MMSE BER':>8}  "
            f"{'hybrid BER':>10}  {'P(opt)':>7}  {'time (us)':>9}"
        )
        for row in axis_rows:
            lines.append(
                f"{row.value:>8.3f}  {row.channel_uses:>5}  "
                f"{row.zero_forcing_ber:>7.3f}  {row.mmse_ber:>8.3f}  "
                f"{row.hybrid_ber:>10.3f}  {row.hybrid_optimum_rate:>7.3f}  "
                f"{row.hybrid_time_us:>9.1f}"
            )
    return "\n".join(lines)


class RobustnessStudyDriver(ExperimentDriver):
    """The impairment sweep behind the shared experiment-driver protocol."""

    name = "robustness"
    description = "extension — impairment robustness sweep"
    metric_names = ROBUSTNESS_METRICS
    config_class = RobustnessStudyConfig
    format_table = staticmethod(format_robustness_table)

    def tasks(self, config: RobustnessStudyConfig) -> List[ShardTask]:
        """One task per (axis, value) grid point.

        Each task's configuration keeps only its own point (every other axis
        grid is emptied), so adding, removing or editing one grid point
        re-keys only that point on a cached re-run — the
        selective-invalidation contract the cache tests pin down.
        """
        empty = {field: () for field in _AXIS_FIELDS.values()}
        tasks: List[ShardTask] = []
        for axis in ROBUSTNESS_AXES:
            for value in _axis_grid(config, axis):
                shard_config = dataclasses.replace(
                    config, **{**empty, _AXIS_FIELDS[axis]: (float(value),)}
                )
                tasks.append(
                    ShardTask(
                        key=("robustness", axis, float(value)),
                        fn=_robustness_point_shard,
                        kwargs={"config": shard_config, "axis": axis},
                    )
                )
        return tasks

    def metrics(self, rows: Sequence[RobustnessRow]) -> Tuple[Tuple[str, float], ...]:
        times = [row.hybrid_time_us for row in rows]
        return (
            ("hybrid_ber_mean", mean_or_nan([row.hybrid_ber for row in rows])),
            ("mmse_ber_mean", mean_or_nan([row.mmse_ber for row in rows])),
            (
                "zero_forcing_ber_mean",
                mean_or_nan([row.zero_forcing_ber for row in rows]),
            ),
            (
                "hybrid_optimum_rate_mean",
                mean_or_nan([row.hybrid_optimum_rate for row in rows]),
            ),
            ("hybrid_time_us_mean", mean_or_nan(times)),
            (
                "hybrid_time_us_p95",
                float(np.percentile(times, 95)) if times else float("nan"),
            ),
        )

    def progress(self, config, tasks, results) -> None:
        for row in results:
            telemetry.emit_progress(
                "robustness-study", (row.axis, row.value), hybrid_ber=row.hybrid_ber
            )


_AXIS_LABELS = {
    "correlation": "spatial correlation rho",
    "doppler": "velocity (m/s)",
    "csi-error": "CSI error variance",
    "interference": "interference power",
}
