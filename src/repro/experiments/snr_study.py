"""Extension experiment E-X1: detection quality vs SNR under AWGN.

The paper's prototype experiments exclude wireless noise (Sec. 4.2), but any
deployable receiver must operate across an SNR range.  This extension study
sweeps SNR on a small MIMO uplink and compares the bit error rate of the
linear detectors (zero-forcing, MMSE) against the hybrid Greedy Search +
reverse annealing detector, exercising the noisy end of the wireless substrate
(AWGN generation, MMSE regularisation, QUBO construction from noisy received
vectors) end-to-end.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.classical.mmse import MMSEDetector
from repro.classical.zero_forcing import ZeroForcingDetector
from repro.exceptions import ConfigurationError
from repro.experiments.driver import ExperimentDriver
from repro import telemetry
from repro.hybrid.solver import HybridMIMODetector
from repro.parallel import ShardTask
from repro.transform.mimo_to_qubo import mimo_to_qubo
from repro.utils.rng import ensure_rng, stable_seed
from repro.utils.validation import require, require_positive_fields
from repro.wireless.channel import RayleighFadingChannel
from repro.wireless.metrics import bit_error_rate
from repro.wireless.mimo import MIMOConfig, simulate_transmission

__all__ = [
    "SNRStudyConfig",
    "SNRStudyDriver",
    "SNRStudyRow",
    "format_snr_table",
]

#: The link: 2 users, 6 receive antennas, QPSK.  It keeps the exhaustive
#: reference tractable while leaving the linear detectors imperfect at low
#: SNR.
_NUM_USERS = 2
_NUM_RECEIVE_ANTENNAS = 6
_MODULATION = "QPSK"

#: Where the hybrid detector's reverse anneal turns back.
_SWITCH_S = 0.45


@dataclass(frozen=True)
class SNRStudyConfig:
    """Configuration of the SNR sweep.

    Attributes
    ----------
    snr_grid_db:
        SNR points swept.
    channel_uses_per_point:
        Independent channel uses averaged per SNR point.
    num_reads:
        Reverse-annealing reads for the hybrid detector.
    """

    snr_grid_db: Tuple[float, ...] = (0.0, 6.0, 12.0, 18.0)
    channel_uses_per_point: int = 6
    num_reads: int = 100
    base_seed: int = 0

    def __post_init__(self) -> None:
        require(bool(self.snr_grid_db), "snr_grid_db must not be empty")
        require_positive_fields(self, "channel_uses_per_point", "num_reads")

    @classmethod
    def quick(cls) -> "SNRStudyConfig":
        """A minimal configuration used by the test suite."""
        return cls(snr_grid_db=(0.0, 18.0), channel_uses_per_point=2, num_reads=40)


@dataclass(frozen=True)
class SNRStudyRow:
    """Average BER of each detector at one SNR point."""

    snr_db: float
    channel_uses: int
    zero_forcing_ber: float
    mmse_ber: float
    hybrid_ber: float


def _snr_point_shard(config: SNRStudyConfig) -> SNRStudyRow:
    """Average the detectors' BERs over the channel uses of one SNR point.

    ``config.snr_grid_db`` holds exactly the point.  Every channel use is
    seeded by its own explicit child
    (``stable_seed("snr-use", snr_db, index, base_seed)``), so points are
    independent of each other and of execution order.
    """
    if len(config.snr_grid_db) != 1:
        raise ConfigurationError(
            f"an SNR shard sweeps exactly one point, got {config.snr_grid_db!r}"
        )
    snr_db = float(config.snr_grid_db[0])
    annealer = QuantumAnnealerSimulator(seed=stable_seed("snr-study", config.base_seed))
    zero_forcing = ZeroForcingDetector()
    channel_model = RayleighFadingChannel()
    mimo_config = MIMOConfig(
        num_users=_NUM_USERS,
        modulation=_MODULATION,
        num_receive_antennas=_NUM_RECEIVE_ANTENNAS,
        snr_db=float(snr_db),
    )
    mmse = MMSEDetector(noise_variance=mimo_config.noise_variance)
    hybrid = HybridMIMODetector(
        sampler=annealer,
        switch_s=_SWITCH_S,
        num_reads=config.num_reads,
    )

    zf_errors: List[float] = []
    mmse_errors: List[float] = []
    hybrid_errors: List[float] = []

    seeds = [
        stable_seed("snr-use", snr_db, index, config.base_seed)
        for index in range(config.channel_uses_per_point)
    ]
    transmissions = [
        simulate_transmission(mimo_config, channel_model, seed) for seed in seeds
    ]
    encodings = [mimo_to_qubo(transmission.instance) for transmission in transmissions]

    # Linear detectors run per channel use (they are closed-form and
    # essentially free); the hybrid detector gets the point as one batch.
    for transmission, encoding in zip(transmissions, encodings):
        zf_bits = encoding.payload_bits(
            encoding.symbols_to_bits(zero_forcing.detect(transmission.instance))
        )
        zf_errors.append(bit_error_rate(transmission.transmitted_bits, zf_bits))

        mmse_bits = encoding.payload_bits(
            encoding.symbols_to_bits(mmse.detect(transmission.instance))
        )
        mmse_errors.append(bit_error_rate(transmission.transmitted_bits, mmse_bits))

    detections = hybrid.detect_batch(
        [transmission.instance for transmission in transmissions],
        # One explicit generator per channel use (seeded exactly as the
        # sequential per-use path would be).
        rng=[ensure_rng(seed + 1) for seed in seeds],
    )
    for transmission, detection in zip(transmissions, detections):
        hybrid_errors.append(bit_error_rate(transmission.transmitted_bits, detection.bits))

    return SNRStudyRow(
        snr_db=float(snr_db),
        channel_uses=config.channel_uses_per_point,
        zero_forcing_ber=float(np.mean(zf_errors)),
        mmse_ber=float(np.mean(mmse_errors)),
        hybrid_ber=float(np.mean(hybrid_errors)),
    )


def format_snr_table(rows: Sequence[SNRStudyRow]) -> str:
    """Render the SNR sweep as an aligned text table."""
    lines = [
        "Extension - BER vs SNR under AWGN (Rayleigh fading uplink)",
        f"{'SNR (dB)':>8}  {'uses':>5}  {'ZF BER':>7}  {'MMSE BER':>8}  {'hybrid BER':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row.snr_db:>8.1f}  {row.channel_uses:>5}  {row.zero_forcing_ber:>7.3f}  "
            f"{row.mmse_ber:>8.3f}  {row.hybrid_ber:>10.3f}"
        )
    return "\n".join(lines)


class SNRStudyDriver(ExperimentDriver):
    """The BER-vs-SNR sweep behind the shared experiment-driver protocol."""

    name = "snr"
    description = "extension — BER vs SNR under AWGN"
    config_class = SNRStudyConfig
    format_table = staticmethod(format_snr_table)

    def tasks(self, config: SNRStudyConfig) -> List[ShardTask]:
        """One task per SNR grid point.

        Each task's configuration is restricted to its own point, so adding
        or changing one grid point recomputes only that point on a cached
        re-run.
        """
        return [
            ShardTask(
                key=("snr-study", float(snr_db)),
                fn=_snr_point_shard,
                kwargs={"config": dataclasses.replace(config, snr_grid_db=(float(snr_db),))},
            )
            for snr_db in config.snr_grid_db
        ]

    def progress(self, config, tasks, results) -> None:
        for row in results:
            telemetry.emit_progress("snr-study", row.snr_db, hybrid_ber=row.hybrid_ber)
