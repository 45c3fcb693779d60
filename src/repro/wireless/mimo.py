"""Spatial-multiplexing MIMO link simulation.

A *MIMO detection instance* is the tuple (H, y, modulation): the receiver
observes ``y = H x + n`` and must recover the transmitted symbol vector ``x``
whose entries come from a finite constellation.  Maximum-likelihood (ML)
detection minimises ``||y - H x||^2`` over all constellation vectors, which is
the combinatorial problem the paper reduces to QUBO form.

This module provides:

* :class:`MIMOConfig` — the static link configuration (users, antennas,
  modulation, channel model, noise);
* :func:`simulate_transmission` — draw a channel, transmit random bits, and
  produce a :class:`MIMOInstance` together with the ground-truth payload.

Exact ML ground truth comes from the QUBO-domain exhaustive solver on the
transformed problem (:func:`repro.qubo.energy.brute_force_minimum`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_positive
from repro.wireless.channel import (
    ChannelModel,
    UnitGainRandomPhaseChannel,
    apply_channel,
    noise_variance_for_snr,
)
from repro.wireless.fading import ChannelImpairments, estimate_channel
from repro.wireless.modulation import Modulation, get_modulation

__all__ = [
    "MIMOConfig",
    "MIMOInstance",
    "MIMOTransmission",
    "MIMODetectionResult",
    "simulate_transmission",
    "residual_energy",
]


@dataclass(frozen=True)
class MIMOConfig:
    """Static configuration of a MIMO uplink.

    Attributes
    ----------
    num_users:
        Number of single-antenna transmitters (spatial streams), ``Nt``.
    num_receive_antennas:
        Number of base-station antennas, ``Nr``.  Defaults to ``num_users``
        (the square large-MIMO setting the paper evaluates).
    modulation:
        Canonical modulation name; see :func:`repro.wireless.get_modulation`.
    snr_db:
        Signal-to-noise ratio in dB, or ``None`` for the paper's noiseless
        protocol.
    """

    num_users: int
    modulation: str = "BPSK"
    num_receive_antennas: Optional[int] = None
    snr_db: Optional[float] = None

    def __post_init__(self) -> None:
        require_positive(self.num_users, "num_users")
        receive = self.num_receive_antennas
        if receive is not None:
            require_positive(receive, "num_receive_antennas")
        # Resolve the modulation eagerly so invalid names fail at config time.
        get_modulation(self.modulation)

    @property
    def receive_antennas(self) -> int:
        """Number of receive antennas (defaults to the number of users)."""
        return self.num_receive_antennas if self.num_receive_antennas else self.num_users

    @property
    def modulation_scheme(self) -> Modulation:
        """The resolved :class:`Modulation` object."""
        return get_modulation(self.modulation)

    @property
    def bits_per_channel_use(self) -> int:
        """Total payload bits carried by one channel use."""
        return self.num_users * self.modulation_scheme.bits_per_symbol

    @functools.cached_property
    def qubo_variable_count(self) -> int:
        """Number of QUBO variables the QuAMax transform produces.

        One variable per payload bit (Sec. 4.2 of the paper describes problem
        sizes in these terms, e.g. "36-variable decoding problems").  Resolved
        once per config: every serving job built reads it.
        """
        return self.bits_per_channel_use

    @property
    def noise_variance(self) -> float:
        """Complex AWGN variance implied by ``snr_db`` (0 when noiseless)."""
        if self.snr_db is None:
            return 0.0
        return noise_variance_for_snr(
            self.snr_db,
            signal_power=self.modulation_scheme.average_energy(),
            transmit_antennas=self.num_users,
        )


@dataclass(frozen=True)
class MIMOInstance:
    """One detection problem: what the receiver knows.

    Attributes
    ----------
    channel_matrix:
        Complex channel estimate H with shape (Nr, Nt).
    received:
        Complex received vector y with length Nr.
    modulation:
        Modulation name of the transmitted symbols.
    """

    channel_matrix: np.ndarray
    received: np.ndarray
    modulation: str

    def __post_init__(self) -> None:
        channel = np.asarray(self.channel_matrix, dtype=complex)
        received = np.asarray(self.received, dtype=complex).ravel()
        if channel.ndim != 2:
            raise ConfigurationError("channel_matrix must be 2-D")
        if channel.shape[0] != received.size:
            raise ConfigurationError(
                f"received vector length {received.size} does not match "
                f"{channel.shape[0]} receive antennas"
            )
        object.__setattr__(self, "channel_matrix", channel)
        object.__setattr__(self, "received", received)

    @property
    def num_users(self) -> int:
        """Number of transmitted spatial streams."""
        return int(self.channel_matrix.shape[1])

    @property
    def num_receive_antennas(self) -> int:
        """Number of receive antennas."""
        return int(self.channel_matrix.shape[0])

    @property
    def modulation_scheme(self) -> Modulation:
        """The resolved :class:`Modulation` for this instance."""
        return get_modulation(self.modulation)

    @property
    def qubo_variable_count(self) -> int:
        """QUBO size produced by the QuAMax transform for this instance."""
        return self.num_users * self.modulation_scheme.bits_per_symbol

    def objective(self, candidate_symbols: Sequence[complex]) -> float:
        """ML objective ``||y - H x||^2`` for a candidate symbol vector."""
        return residual_energy(self.channel_matrix, self.received, candidate_symbols)


@dataclass(frozen=True)
class MIMOTransmission:
    """A simulated transmission: the instance plus the ground-truth payload.

    Under imperfect CSI the receiver-visible ``instance.channel_matrix`` is
    the *pilot estimate*; ``true_channel`` then records the realisation the
    symbols actually propagated through (``None`` means the estimate is
    exact).  ``csi_error_variance`` and ``interference_power`` record the
    impairment levels the transmission was simulated under, so metrics can
    tell the paper's idealized protocol apart from robustness sweeps.
    """

    instance: MIMOInstance
    transmitted_symbols: np.ndarray
    transmitted_bits: np.ndarray
    noise_variance: float
    true_channel: Optional[np.ndarray] = None
    csi_error_variance: float = 0.0
    interference_power: float = 0.0

    @property
    def has_perfect_csi(self) -> bool:
        """Whether the receiver's channel matrix equals the true channel."""
        return self.true_channel is None

    @property
    def config_summary(self) -> str:
        """Short human-readable description of the transmission."""
        return (
            f"{self.instance.num_users}-user {self.instance.modulation} "
            f"({self.instance.qubo_variable_count} QUBO variables)"
        )


@dataclass(frozen=True)
class MIMODetectionResult:
    """Outcome of a detection algorithm on one instance."""

    symbols: np.ndarray
    bits: np.ndarray
    objective_value: float
    algorithm: str = "ml-exhaustive"
    metadata: dict = field(default_factory=dict)


def residual_energy(
    channel_matrix: np.ndarray,
    received: np.ndarray,
    candidate_symbols: Sequence[complex],
) -> float:
    """Compute ``||y - H x||^2`` for a candidate symbol vector."""
    channel_matrix = np.asarray(channel_matrix, dtype=complex)
    received = np.asarray(received, dtype=complex).ravel()
    candidate = np.asarray(candidate_symbols, dtype=complex).ravel()
    if candidate.size != channel_matrix.shape[1]:
        raise ConfigurationError(
            f"candidate has {candidate.size} symbols but channel expects "
            f"{channel_matrix.shape[1]}"
        )
    residual = received - channel_matrix @ candidate
    return float(np.real(np.vdot(residual, residual)))


def simulate_transmission(
    config: MIMOConfig,
    channel_model: Optional[ChannelModel] = None,
    rng: RandomState = None,
    impairments: Optional[ChannelImpairments] = None,
    channel_matrix: Optional[np.ndarray] = None,
) -> MIMOTransmission:
    """Simulate one channel use under ``config``.

    Draws a channel realisation, random payload bits, modulates them, applies
    the channel and (optionally) AWGN, and returns both the receiver-visible
    :class:`MIMOInstance` and the ground truth needed for error accounting.

    ``channel_matrix`` supplies a pre-drawn true channel, skipping the draw
    from ``channel_model`` (the paper's unit-gain random-phase channel by
    default).  ``impairments`` layers the impairment engine on top
    (:mod:`repro.wireless.fading`): interference adds to the noise floor,
    and with a non-zero CSI error variance the returned instance carries the
    *pilot estimate* while the received vector is produced by the *true*
    channel.  Active (non-identity) impairments need a ``channel_matrix``
    drawn by a :class:`~repro.wireless.fading.FadingProcess`, which applies
    the spatial and temporal correlation; ``None`` and the identity
    configuration reproduce the unimpaired path bitwise.

    The per-use draw order is fixed: channel (unless supplied), payload
    bits, noise+interference, then the CSI estimation error, so disabled
    impairments never consume randomness and never shift the other draws.
    """
    generator = ensure_rng(rng)
    modulation = config.modulation_scheme
    active = impairments is not None and not impairments.is_identity

    if channel_matrix is not None:
        channel = np.asarray(channel_matrix, dtype=complex)
        expected = (config.receive_antennas, config.num_users)
        if channel.shape != expected:
            raise ConfigurationError(
                f"channel_matrix has shape {channel.shape}, expected {expected}"
            )
    elif active:
        raise ConfigurationError(
            "active impairments need a channel_matrix drawn by a FadingProcess"
        )
    else:
        model = channel_model if channel_model is not None else UnitGainRandomPhaseChannel()
        channel = model.sample(config.receive_antennas, config.num_users, generator)

    bits = modulation.random_bits(config.num_users, generator)
    symbols = modulation.modulate_bits(bits)
    noise_variance = config.noise_variance
    interference_power = impairments.interference_power if active else 0.0
    received = apply_channel(
        channel,
        symbols,
        noise_variance,
        generator,
        interference_power=interference_power,
    )

    csi_error_variance = impairments.csi_error_variance if active else 0.0
    if csi_error_variance > 0:
        visible = estimate_channel(channel, csi_error_variance, generator)
        true_channel: Optional[np.ndarray] = channel
    else:
        visible = channel
        true_channel = None

    instance = MIMOInstance(
        channel_matrix=visible, received=received, modulation=config.modulation
    )
    return MIMOTransmission(
        instance=instance,
        transmitted_symbols=symbols,
        transmitted_bits=bits,
        noise_variance=noise_variance,
        true_channel=true_channel,
        csi_error_variance=csi_error_variance,
        interference_power=interference_power,
    )
