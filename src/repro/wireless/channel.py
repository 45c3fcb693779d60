"""MIMO channel models and additive noise.

The paper's experimental protocol (Sec. 4.2) synthesises detection instances
with a *unit-gain wireless channel with random phase* and no AWGN.  The
library also provides i.i.d. Rayleigh fading (the standard model used by the
QuAMax baseline and by the classical detectors' literature), plus AWGN
generation for the extension benchmarks that sweep SNR.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_non_negative, require_positive

__all__ = [
    "ChannelModel",
    "UnitGainRandomPhaseChannel",
    "RayleighFadingChannel",
    "awgn",
    "noise_variance_for_snr",
    "effective_noise_variance",
    "apply_channel",
]


class ChannelModel(abc.ABC):
    """Abstract generator of complex channel matrices H (receivers x users)."""

    @abc.abstractmethod
    def sample(
        self,
        receive_antennas: int,
        transmit_antennas: int,
        rng: RandomState = None,
    ) -> np.ndarray:
        """Draw one channel realisation of shape (receive, transmit)."""


class UnitGainRandomPhaseChannel(ChannelModel):
    """The paper's channel: every entry has unit magnitude and uniform phase.

    ``H[r, t] = exp(j * theta)`` with ``theta ~ Uniform[0, 2*pi)``.  This keeps
    the per-link gain deterministic so the difficulty of the resulting QUBO is
    governed by phase interference alone, matching Sec. 4.2.
    """

    def sample(
        self,
        receive_antennas: int,
        transmit_antennas: int,
        rng: RandomState = None,
    ) -> np.ndarray:
        require_positive(receive_antennas, "receive_antennas")
        require_positive(transmit_antennas, "transmit_antennas")
        generator = ensure_rng(rng)
        phases = generator.uniform(0.0, 2.0 * np.pi, size=(receive_antennas, transmit_antennas))
        return np.exp(1j * phases)


class RayleighFadingChannel(ChannelModel):
    """I.i.d. circularly-symmetric complex Gaussian fading.

    Entries are CN(0, 1): unit average power, the conventional
    normalisation in the MIMO detection literature.
    """

    def sample(
        self,
        receive_antennas: int,
        transmit_antennas: int,
        rng: RandomState = None,
    ) -> np.ndarray:
        require_positive(receive_antennas, "receive_antennas")
        require_positive(transmit_antennas, "transmit_antennas")
        generator = ensure_rng(rng)
        scale = np.sqrt(0.5)
        shape = (receive_antennas, transmit_antennas)
        return scale * (generator.standard_normal(shape) + 1j * generator.standard_normal(shape))


def noise_variance_for_snr(
    snr_db: float, signal_power: float = 1.0, transmit_antennas: int = 1
) -> float:
    """Per-receive-antenna complex noise variance achieving a target SNR.

    The SNR convention is total received signal power over noise power per
    receive antenna, i.e. ``SNR = Nt * Es / N0`` for unit-gain channels.
    """
    require_positive(signal_power, "signal_power")
    require_positive(transmit_antennas, "transmit_antennas")
    snr_linear = 10.0 ** (snr_db / 10.0)
    return float(transmit_antennas * signal_power / snr_linear)


def awgn(
    shape,
    noise_variance: float,
    rng: RandomState = None,
) -> np.ndarray:
    """Draw circularly-symmetric complex Gaussian noise with given variance.

    ``noise_variance`` is the total complex variance (real and imaginary parts
    each carry half of it).  A variance of zero returns exact zeros, matching
    the paper's noiseless protocol.
    """
    require_non_negative(noise_variance, "noise_variance")
    if noise_variance == 0:
        return np.zeros(shape, dtype=complex)
    generator = ensure_rng(rng)
    scale = np.sqrt(noise_variance / 2.0)
    return scale * (generator.standard_normal(shape) + 1j * generator.standard_normal(shape))


def effective_noise_variance(
    noise_variance: float, interference_power: float = 0.0
) -> float:
    """Total Gaussian disturbance variance per receive antenna.

    Inter-cell interference is modelled as an additional circularly-symmetric
    Gaussian term (the standard approximation of many superposed interfering
    streams), so it simply adds to the thermal-noise variance.  Detectors
    that regularise on the noise level (MMSE) should regularise on this
    total.
    """
    require_non_negative(noise_variance, "noise_variance")
    require_non_negative(interference_power, "interference_power")
    return float(noise_variance + interference_power)


def apply_channel(
    channel_matrix: np.ndarray,
    transmitted: np.ndarray,
    noise_variance: float = 0.0,
    rng: RandomState = None,
    interference_power: float = 0.0,
) -> np.ndarray:
    """Compute the received vector ``y = H x + n (+ i)``.

    Parameters
    ----------
    channel_matrix:
        Complex channel matrix of shape (receive, transmit).
    transmitted:
        Complex symbol vector of length ``transmit``.
    noise_variance:
        Total complex AWGN variance per receive antenna (0 disables noise).
    interference_power:
        Inter-cell interference power per receive antenna, folded into the
        same Gaussian draw as the thermal noise (their sum is again
        Gaussian), so zero interference leaves the random stream untouched.
    """
    channel_matrix = np.asarray(channel_matrix, dtype=complex)
    transmitted = np.asarray(transmitted, dtype=complex).ravel()
    if channel_matrix.ndim != 2:
        raise ConfigurationError("channel_matrix must be 2-D")
    if channel_matrix.shape[1] != transmitted.size:
        raise ConfigurationError(
            f"channel has {channel_matrix.shape[1]} transmit antennas but "
            f"{transmitted.size} symbols were supplied"
        )
    total_variance = effective_noise_variance(noise_variance, interference_power)
    noise = awgn(channel_matrix.shape[0], total_variance, rng)
    return channel_matrix @ transmitted + noise
