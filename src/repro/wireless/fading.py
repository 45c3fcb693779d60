"""Realistic channel impairments: correlation, Doppler, imperfect CSI, interference.

The paper's experimental protocol (Sec. 4.2) evaluates detection over
idealized channels — i.i.d. entries, a fresh independent realisation per
channel use, perfectly known at the receiver, no interference.  Deployed
base stations see none of those luxuries, and the case for hybrid
classical-quantum RAN processing has to survive realistic radio conditions.
This module provides the impairment engine the robustness study sweeps,
layered on top of Rayleigh scattering (:mod:`repro.wireless.channel`):

* **Spatial correlation** — the Kronecker model ``H = L_rx W L_tx^T`` with
  exponential correlation matrices ``R[i, j] = rho^|i - j|`` on each side.
* **Temporal correlation** — block fading evolved by a first-order
  autoregression whose coefficient is the Jakes-spectrum autocorrelation
  ``J_0(2 pi f_D T)`` at the Doppler frequency implied by user velocity
  (:func:`jakes_correlation`).
* **Imperfect CSI** — a pilot-based estimation-error model: the receiver
  works from ``H_hat = H + E`` with ``E ~ CN(0, sigma_e^2)`` per entry
  (:func:`estimate_channel`), so QUBOs are built from the *estimate* while
  symbols propagate through the *true* channel.
* **Inter-cell interference** — a fixed per-receive-antenna Gaussian
  interference floor (the standard many-interferer approximation).

One frozen :class:`ChannelImpairments` configuration drives all four; its
default is the *identity*: zero correlation, no Doppler evolution, perfect
CSI, zero interference.  A :class:`FadingProcess` draws the correlated
channel stream, and :func:`repro.wireless.mimo.simulate_transmission` takes
each block as its ``channel_matrix`` and applies the CSI error and
interference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_non_negative, require_positive
from repro.wireless.channel import RayleighFadingChannel, awgn

__all__ = [
    "SPEED_OF_LIGHT_MPS",
    "ChannelImpairments",
    "FadingProcess",
    "bessel_j0",
    "correlation_root",
    "estimate_channel",
    "exponential_correlation",
    "handover_rate_per_us",
    "jakes_correlation",
]

#: Propagation speed used to convert velocity to Doppler shift, in m/s.
SPEED_OF_LIGHT_MPS = 299_792_458.0

#: Mid-band 5G carrier and the block period (an LTE OFDM symbol) the Jakes
#: correlation is taken over.
_CARRIER_FREQUENCY_GHZ = 3.5
_BLOCK_PERIOD_US = 71.4

#: Equivalent circular cell radius of the fluid-flow handover model, in m.
_CELL_RADIUS_M = 250.0


# --------------------------------------------------------------------- #
# Spatial correlation
# --------------------------------------------------------------------- #


def exponential_correlation(size: int, rho: float) -> np.ndarray:
    """The exponential correlation matrix ``R[i, j] = rho ** |i - j|``.

    The single-parameter model of Loyka for a uniform linear array: adjacent
    antennas correlate with coefficient ``rho`` and the correlation decays
    geometrically with element separation.  ``rho`` must lie in ``[0, 1)`` —
    at 1 the matrix is singular (all antennas see one channel).
    """
    require_positive(size, "size")
    if not 0.0 <= rho < 1.0:
        raise ConfigurationError(f"correlation rho must lie in [0, 1), got {rho}")
    indices = np.arange(size)
    return rho ** np.abs(indices[:, None] - indices[None, :])


@functools.lru_cache(maxsize=None)
def _correlation_root_cached(size: int, rho: float) -> np.ndarray:
    root = np.linalg.cholesky(exponential_correlation(size, rho))
    root.setflags(write=False)
    return root


def correlation_root(size: int, rho: float) -> np.ndarray:
    """Lower-triangular root ``L`` with ``L L^T = R`` (memoized per shape).

    Colouring i.i.d. draws as ``L W`` imposes the exponential correlation
    ``R`` on the rows; the returned array is read-only because it is shared
    across calls.
    """
    return _correlation_root_cached(int(size), float(rho))


# --------------------------------------------------------------------- #
# Temporal correlation (Jakes / Clarke spectrum)
# --------------------------------------------------------------------- #


# Abramowitz & Stegun 9.4.1 / 9.4.3 polynomial coefficients, ascending order.
_J0_SMALL = (1.0, -2.2499997, 1.2656208, -0.3163866, 0.0444479, -0.0039444, 0.0002100)
_J0_AMPLITUDE = (
    0.79788456,
    -0.00000077,
    -0.00552740,
    -0.00009512,
    0.00137237,
    -0.00072805,
    0.00014476,
)
_J0_PHASE = (
    -0.78539816,
    -0.04166397,
    -0.00003954,
    0.00262573,
    -0.00054125,
    -0.00029333,
    0.00013558,
)


def _polynomial(coefficients: Sequence[float], t: float) -> float:
    """Evaluate an ascending-order polynomial at ``t`` by Horner's rule."""
    result = 0.0
    for coefficient in reversed(coefficients):
        result = result * t + coefficient
    return result


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero.

    Abramowitz & Stegun 9.4.1 / 9.4.3 polynomial approximations (absolute
    error below 5e-8), so the Jakes autocorrelation needs no scipy
    dependency.
    """
    ax = abs(float(x))
    if ax <= 3.0:
        return _polynomial(_J0_SMALL, (ax / 3.0) ** 2)
    t = 3.0 / ax
    theta = ax + _polynomial(_J0_PHASE, t)
    return _polynomial(_J0_AMPLITUDE, t) * math.cos(theta) / math.sqrt(ax)


def jakes_correlation(velocity_mps: float) -> float:
    """Block-to-block fading correlation under the Jakes Doppler spectrum.

    A user moving at ``velocity_mps`` sees the maximum Doppler shift
    ``f_D = v * f_c / c``; under Clarke's isotropic-scattering model the
    channel autocorrelation one block period ``T`` later is
    ``J_0(2 pi f_D T)``.  Zero velocity gives 1.0 (a static channel);
    highway speeds at mid-band 5G decorrelate successive blocks.
    """
    require_non_negative(velocity_mps, "velocity_mps")
    doppler_hz = velocity_mps * _CARRIER_FREQUENCY_GHZ * 1e9 / SPEED_OF_LIGHT_MPS
    return bessel_j0(2.0 * math.pi * doppler_hz * _BLOCK_PERIOD_US * 1e-6)


def handover_rate_per_us(velocity_mps: float) -> float:
    """Mean cell-boundary crossings per microsecond of a mobile user.

    The classic fluid-flow mobility model: a user moving at ``velocity_mps``
    with uniformly distributed direction inside a circular cell of radius
    ``R`` (250 m) crosses the boundary at rate ``2 v / (pi R)`` per second (crossing
    rate = v * perimeter / (pi * area)).  This couples handover frequency to
    the *same* velocity that drives the Jakes Doppler spectrum — a fast user
    both fades harder (:func:`jakes_correlation`) and hands over more.  Zero
    velocity gives a static user that never hands over.
    """
    require_non_negative(velocity_mps, "velocity_mps")
    return 2.0 * velocity_mps / (math.pi * _CELL_RADIUS_M) * 1e-6


# --------------------------------------------------------------------- #
# Imperfect CSI
# --------------------------------------------------------------------- #


def estimate_channel(
    true_channel: np.ndarray,
    error_variance: float,
    rng: RandomState = None,
) -> np.ndarray:
    """Pilot-based channel estimate ``H_hat = H + E`` with ``E ~ CN(0, var)``.

    A zero ``error_variance`` returns the true channel unchanged *without
    consuming any randomness*, which is what keeps the perfect-CSI code path
    bitwise-identical to the pre-impairment library.
    """
    require_non_negative(error_variance, "error_variance")
    true_channel = np.asarray(true_channel, dtype=complex)
    if error_variance == 0:
        return true_channel
    return true_channel + awgn(true_channel.shape, error_variance, rng)


# --------------------------------------------------------------------- #
# The impairment configuration
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ChannelImpairments:
    """One composable description of every supported channel impairment.

    Attributes
    ----------
    rx_correlation / tx_correlation:
        Exponential spatial correlation coefficients at the receive and
        transmit arrays (``[0, 1)``; 0 disables the Kronecker colouring).
    temporal_correlation:
        Block-to-block AR(1) fading coefficient in ``[-1, 1]`` (the Jakes
        autocorrelation; see :func:`jakes_correlation` and
        :meth:`from_mobility`).  ``None`` or 0 draws an independent channel
        per block, matching the unimpaired library.
    csi_error_variance:
        Per-entry variance of the pilot estimation error (0 = perfect CSI).
    interference_power:
        Inter-cell interference power per receive antenna, in the same
        units as the AWGN variance (0 = no interference).
    """

    rx_correlation: float = 0.0
    tx_correlation: float = 0.0
    temporal_correlation: Optional[float] = None
    csi_error_variance: float = 0.0
    interference_power: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rx_correlation", "tx_correlation"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1), got {value}")
        if self.temporal_correlation is not None and not (
            -1.0 <= self.temporal_correlation <= 1.0
        ):
            raise ConfigurationError(
                f"temporal_correlation must lie in [-1, 1], got {self.temporal_correlation}"
            )
        require_non_negative(self.csi_error_variance, "csi_error_variance")
        require_non_negative(self.interference_power, "interference_power")

    @classmethod
    def from_mobility(cls, velocity_mps: float) -> "ChannelImpairments":
        """Impairments whose temporal correlation follows user mobility.

        Translates the velocity into the Jakes AR(1) coefficient.
        """
        return cls(temporal_correlation=jakes_correlation(velocity_mps))

    @property
    def is_identity(self) -> bool:
        """Whether this configuration changes nothing about the ideal channel.

        The identity (the default construction) applies no colouring,
        independent per-block draws, perfect CSI and zero interference —
        code paths guarded on it consume exactly the draws of the
        unimpaired library, so results reproduce bitwise.
        """
        return (
            self.rx_correlation == 0.0
            and self.tx_correlation == 0.0
            and not self.temporal_correlation
            and self.csi_error_variance == 0.0
            and self.interference_power == 0.0
        )


# --------------------------------------------------------------------- #
# Block fading under impairments
# --------------------------------------------------------------------- #


class FadingProcess:
    """A temporally correlated sequence of channel realisations.

    Successive blocks evolve by the first-order autoregression

        ``W_t = a * W_{t-1} + sqrt(1 - a^2) * V_t``

    on i.i.d. Rayleigh scattering, with ``a`` the Jakes coefficient
    (:attr:`ChannelImpairments.temporal_correlation`); each block's channel
    is the state ``W_t`` coloured by the receive and transmit correlation
    roots.

    One fresh innovation is drawn per :meth:`advance` *regardless of* ``a``
    (at ``a = 1`` it is weighted by zero), so every block consumes the same
    randomness whatever the Doppler: sweeping velocity in an experiment
    never shifts the downstream payload/noise draws of a block.  With
    ``a = 0`` (or ``None``) and no spatial correlation each block is exactly
    a fresh Rayleigh draw.
    """

    _scattering = RayleighFadingChannel()

    def __init__(
        self,
        receive_antennas: int,
        transmit_antennas: int,
        impairments: Optional[ChannelImpairments] = None,
    ) -> None:
        require_positive(receive_antennas, "receive_antennas")
        require_positive(transmit_antennas, "transmit_antennas")
        self.receive_antennas = int(receive_antennas)
        self.transmit_antennas = int(transmit_antennas)
        self.impairments = impairments if impairments is not None else ChannelImpairments()
        self._state: Optional[np.ndarray] = None

    @property
    def temporal_coefficient(self) -> float:
        """The AR(1) coefficient ``a`` (0 when temporal fading is disabled)."""
        return self.impairments.temporal_correlation or 0.0

    def advance(self, rng: RandomState = None) -> np.ndarray:
        """Evolve one block and return its (spatially shaped) channel matrix."""
        generator = ensure_rng(rng)
        innovation = self._scattering.sample(
            self.receive_antennas, self.transmit_antennas, generator
        )
        coefficient = self.temporal_coefficient
        if self._state is None or coefficient == 0.0:
            self._state = innovation
        else:
            self._state = (
                coefficient * self._state
                + math.sqrt(1.0 - coefficient * coefficient) * innovation
            )
        return self._shape(self._state)

    def _shape(self, scattering: np.ndarray) -> np.ndarray:
        """Impose the Kronecker spatial correlation on a scattering draw."""
        impairments = self.impairments
        shaped = scattering
        if impairments.rx_correlation:
            shaped = correlation_root(self.receive_antennas, impairments.rx_correlation) @ shaped
        if impairments.tx_correlation:
            shaped = shaped @ correlation_root(self.transmit_antennas, impairments.tx_correlation).T
        return shaped
