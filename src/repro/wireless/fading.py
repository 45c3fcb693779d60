"""Realistic channel impairments: correlation, Doppler, imperfect CSI, interference.

The paper's experimental protocol (Sec. 4.2) evaluates detection over
idealized channels — i.i.d. entries, a fresh independent realisation per
channel use, perfectly known at the receiver, no interference.  Deployed
base stations see none of those luxuries, and the case for hybrid
classical-quantum RAN processing has to survive realistic radio conditions.
This module provides a *composable* impairment engine layered on top of the
ideal models in :mod:`repro.wireless.channel`:

* **Spatial correlation** — the Kronecker model ``H = L_rx W L_tx^T`` with
  exponential correlation matrices ``R[i, j] = rho^|i - j|`` on each side
  (:class:`FadingChannel`), plus a Rician line-of-sight component built from
  uniform-linear-array steering vectors (``rician_k``).
* **Temporal correlation** — block fading evolved by a first-order
  autoregression whose coefficient is the Jakes-spectrum autocorrelation
  ``J_0(2 pi f_D T)`` at the Doppler frequency implied by user velocity
  (:class:`FadingProcess`, :func:`jakes_correlation`).
* **Imperfect CSI** — a pilot-based estimation-error model: the receiver
  works from ``H_hat = H + E`` with ``E ~ CN(0, sigma_e^2)`` per entry
  (:func:`estimate_channel`), so QUBOs are built from the *estimate* while
  symbols propagate through the *true* channel.
* **Inter-cell interference** — a per-receive-antenna Gaussian interference
  floor (the standard many-interferer approximation) whose power the serving
  layer couples to per-cell load factors and scenario timelines
  (:meth:`ChannelImpairments.neighbour_load_scale`).

Everything is driven by one frozen :class:`ChannelImpairments` configuration
whose default is the *identity*: zero correlation, no Doppler evolution,
perfect CSI, zero interference.  The identity configuration is guaranteed to
consume the same random draws in the same order as the unimpaired code
paths, so existing experiment outputs reproduce bitwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_positive
from repro.wireless.channel import ChannelModel, RayleighFadingChannel, awgn

__all__ = [
    "SPEED_OF_LIGHT_MPS",
    "ChannelImpairments",
    "FadingChannel",
    "FadingProcess",
    "bessel_j0",
    "correlation_root",
    "estimate_channel",
    "exponential_correlation",
    "handover_rate_per_us",
    "jakes_correlation",
    "los_matrix",
    "steering_vector",
]

#: Propagation speed used to convert velocity to Doppler shift, in m/s.
SPEED_OF_LIGHT_MPS = 299_792_458.0


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


def steering_vector(size: int, angle_deg: float) -> np.ndarray:
    """Far-field steering vector of a half-wavelength uniform linear array.

    ``a[k] = exp(j * pi * k * sin(angle))`` — unit-magnitude entries, so a
    LoS matrix built from steering vectors preserves average channel power.
    """
    require_positive(size, "size")
    phase = math.pi * math.sin(math.radians(angle_deg))
    return np.exp(1j * phase * np.arange(size))


def los_matrix(
    receive_antennas: int,
    transmit_antennas: int,
    aoa_deg: float,
    aod_deg: float,
) -> np.ndarray:
    """Rank-one line-of-sight channel ``a_rx(aoa) a_tx(aod)^H``.

    The deterministic component of the Rician model: a single planar
    wavefront arriving at angle ``aoa_deg`` after departing at ``aod_deg``.
    Every entry has unit magnitude.
    """
    arrival = steering_vector(receive_antennas, aoa_deg)
    departure = steering_vector(transmit_antennas, aod_deg)
    return np.outer(arrival, departure.conj())


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


def jakes_correlation(
    velocity_mps: float,
    carrier_frequency_ghz: float = 3.5,
    block_period_us: float = 71.4,
) -> float:
    """Block-to-block fading correlation under the Jakes Doppler spectrum.

    A user moving at ``velocity_mps`` sees the maximum Doppler shift
    ``f_D = v * f_c / c``; under Clarke's isotropic-scattering model the
    channel autocorrelation one block period ``T`` later is
    ``J_0(2 pi f_D T)``.  Zero velocity gives 1.0 (a static channel);
    highway speeds at mid-band 5G decorrelate successive blocks.
    """
    if velocity_mps < 0:
        raise ConfigurationError(f"velocity_mps must be non-negative, got {velocity_mps}")
    require_positive(carrier_frequency_ghz, "carrier_frequency_ghz")
    require_positive(block_period_us, "block_period_us")
    doppler_hz = velocity_mps * carrier_frequency_ghz * 1e9 / SPEED_OF_LIGHT_MPS
    return bessel_j0(2.0 * math.pi * doppler_hz * block_period_us * 1e-6)


def handover_rate_per_us(velocity_mps: float, cell_radius_m: float = 250.0) -> float:
    """Mean cell-boundary crossings per microsecond of a mobile user.

    The classic fluid-flow mobility model: a user moving at ``velocity_mps``
    with uniformly distributed direction inside a circular cell of radius
    ``R`` crosses the boundary at rate ``2 v / (pi R)`` per second (crossing
    rate = v * perimeter / (pi * area)).  This couples handover frequency to
    the *same* velocity that drives the Jakes Doppler spectrum — a fast user
    both fades harder (:func:`jakes_correlation`) and hands over more.  Zero
    velocity gives a static user that never hands over.
    """
    if velocity_mps < 0:
        raise ConfigurationError(f"velocity_mps must be non-negative, got {velocity_mps}")
    require_positive(cell_radius_m, "cell_radius_m")
    return 2.0 * velocity_mps / (math.pi * cell_radius_m) * 1e-6


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
    if error_variance < 0:
        raise ConfigurationError(f"error_variance must be non-negative, got {error_variance}")
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
    rician_k:
        Rician K-factor (linear power ratio of the LoS component to the
        scattered component), or ``None`` for pure Rayleigh scattering.
    los_aoa_deg / los_aod_deg:
        Angles of arrival/departure of the LoS wavefront (used only when
        ``rician_k`` is set).
    temporal_correlation:
        Block-to-block AR(1) fading coefficient in ``[-1, 1]`` (the Jakes
        autocorrelation; see :func:`jakes_correlation` and
        :meth:`from_mobility`).  ``None`` or 0 draws an independent channel
        per block, matching the unimpaired library.
    csi_error_variance:
        Per-entry variance of the pilot estimation error (0 = perfect CSI).
    interference_power:
        Inter-cell interference power per receive antenna, in the same
        units as the AWGN variance (0 = no interference).  The serving
        layer scales this with neighbouring cells' load.
    """

    rx_correlation: float = 0.0
    tx_correlation: float = 0.0
    rician_k: Optional[float] = None
    los_aoa_deg: float = 30.0
    los_aod_deg: float = 20.0
    temporal_correlation: Optional[float] = None
    csi_error_variance: float = 0.0
    interference_power: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rx_correlation", "tx_correlation"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1), got {value}")
        if self.rician_k is not None and self.rician_k < 0:
            raise ConfigurationError(f"rician_k must be non-negative, got {self.rician_k}")
        if self.temporal_correlation is not None and not (
            -1.0 <= self.temporal_correlation <= 1.0
        ):
            raise ConfigurationError(
                f"temporal_correlation must lie in [-1, 1], got {self.temporal_correlation}"
            )
        if self.csi_error_variance < 0:
            raise ConfigurationError(
                f"csi_error_variance must be non-negative, got {self.csi_error_variance}"
            )
        if self.interference_power < 0:
            raise ConfigurationError(
                f"interference_power must be non-negative, got {self.interference_power}"
            )

    @classmethod
    def from_mobility(
        cls,
        velocity_mps: float,
        carrier_frequency_ghz: float = 3.5,
        block_period_us: float = 71.4,
        **kwargs,
    ) -> "ChannelImpairments":
        """Impairments whose temporal correlation follows user mobility.

        Translates (velocity, carrier, block period) into the Jakes AR(1)
        coefficient; other impairment fields pass through ``kwargs``.
        """
        return cls(
            temporal_correlation=jakes_correlation(
                velocity_mps, carrier_frequency_ghz, block_period_us
            ),
            **kwargs,
        )

    @property
    def is_identity(self) -> bool:
        """Whether this configuration changes nothing about the ideal channel.

        The identity (the default construction) applies no colouring, no
        LoS component, independent per-block draws, perfect CSI and zero
        interference — code paths guarded on it consume exactly the draws
        of the unimpaired library, so results reproduce bitwise.
        """
        return (
            self.rx_correlation == 0.0
            and self.tx_correlation == 0.0
            and self.rician_k is None
            and not self.temporal_correlation
            and self.csi_error_variance == 0.0
            and self.interference_power == 0.0
        )

    @property
    def has_spatial_structure(self) -> bool:
        """Whether sampling must colour draws (correlation or LoS present)."""
        has_correlation = self.rx_correlation != 0.0 or self.tx_correlation != 0.0
        return has_correlation or self.rician_k is not None

    @staticmethod
    def neighbour_load_scale(
        own_cell: int,
        cell_load_factors: Sequence[float],
        neighbours: Optional[Sequence[int]] = None,
    ) -> float:
        """Mean load factor of the cells interfering with ``own_cell``.

        The single source of the inter-cell coupling rule: interference
        comes from *other* cells' transmissions, so their mean load scales
        the nominal power.  Without ``neighbours`` every other cell
        interferes (the legacy fully coupled layout; a single-cell layout
        has no interferers and yields 0).  With a topology's neighbour set,
        only the adjacent cells couple — distant cells in a city-scale
        layout do not raise this cell's noise floor.  The serving layer
        applies the same rule to scenario intensities at each arrival
        instant.
        """
        factors = tuple(cell_load_factors)
        if not 0 <= own_cell < len(factors):
            raise ConfigurationError(f"own_cell {own_cell} outside {len(factors)} cells")
        if neighbours is None:
            others = [factor for cell, factor in enumerate(factors) if cell != own_cell]
        else:
            others = []
            for cell in neighbours:
                if not 0 <= cell < len(factors):
                    raise ConfigurationError(
                        f"neighbour {cell} outside {len(factors)} cells"
                    )
                if cell == own_cell:
                    raise ConfigurationError(
                        f"own_cell {own_cell} listed among its neighbours"
                    )
                others.append(factors[cell])
        if not others:
            return 0.0
        return float(np.mean(others))


# --------------------------------------------------------------------- #
# Channel models under impairments
# --------------------------------------------------------------------- #


class FadingChannel(ChannelModel):
    """Spatially structured fading: Kronecker correlation plus Rician LoS.

    Draws an i.i.d. realisation from ``base_model`` (Rayleigh scattering by
    default) and shapes it: receive/transmit colouring by the exponential
    correlation roots, then Rician mixing with the steering-vector LoS
    matrix.  With identity impairments the shaping is skipped entirely, so
    samples are bitwise-identical to the base model's.
    """

    def __init__(
        self,
        impairments: ChannelImpairments,
        base_model: Optional[ChannelModel] = None,
    ) -> None:
        if not isinstance(impairments, ChannelImpairments):
            raise ConfigurationError(
                f"impairments must be a ChannelImpairments, got {type(impairments).__name__}"
            )
        self.impairments = impairments
        self.base_model = base_model if base_model is not None else RayleighFadingChannel()

    def sample(
        self,
        receive_antennas: int,
        transmit_antennas: int,
        rng: RandomState = None,
    ) -> np.ndarray:
        draw = self.base_model.sample(receive_antennas, transmit_antennas, rng)
        return self.shape(draw)

    def shape(self, scattering: np.ndarray) -> np.ndarray:
        """Impose the spatial structure on an i.i.d. scattering draw."""
        impairments = self.impairments
        shaped = np.asarray(scattering, dtype=complex)
        receive_antennas, transmit_antennas = shaped.shape
        if impairments.rx_correlation:
            shaped = correlation_root(receive_antennas, impairments.rx_correlation) @ shaped
        if impairments.tx_correlation:
            shaped = shaped @ correlation_root(transmit_antennas, impairments.tx_correlation).T
        if impairments.rician_k is not None:
            k = impairments.rician_k
            los = los_matrix(
                receive_antennas,
                transmit_antennas,
                impairments.los_aoa_deg,
                impairments.los_aod_deg,
            )
            shaped = math.sqrt(k / (k + 1.0)) * los + math.sqrt(1.0 / (k + 1.0)) * shaped
        return shaped


class FadingProcess:
    """A temporally correlated sequence of channel realisations.

    Successive blocks evolve by the first-order autoregression

        ``W_t = a * W_{t-1} + sqrt(1 - a^2) * V_t``

    in the i.i.d. scattering domain, with ``a`` the Jakes coefficient
    (:attr:`ChannelImpairments.temporal_correlation`); each block's channel
    is the spatially shaped state :meth:`FadingChannel.shape` ``(W_t)``, so
    the LoS component stays static while the scattered component decorrelates
    — physically, the building does not move, the users do.

    One fresh innovation is drawn per :meth:`advance` *regardless of* ``a``
    (at ``a = 1`` it is weighted by zero), so every block consumes the same
    randomness whatever the Doppler: sweeping velocity in an experiment
    never shifts the downstream payload/noise draws of a block.  With
    ``a = 0`` (or ``None``) each block is exactly a fresh base-model draw,
    bitwise-identical to sampling the unimpaired model per block.
    """

    def __init__(
        self,
        receive_antennas: int,
        transmit_antennas: int,
        impairments: Optional[ChannelImpairments] = None,
        base_model: Optional[ChannelModel] = None,
    ) -> None:
        require_positive(receive_antennas, "receive_antennas")
        require_positive(transmit_antennas, "transmit_antennas")
        self.receive_antennas = int(receive_antennas)
        self.transmit_antennas = int(transmit_antennas)
        self.impairments = impairments if impairments is not None else ChannelImpairments()
        self._channel = FadingChannel(self.impairments, base_model)
        self._state: Optional[np.ndarray] = None

    @property
    def temporal_coefficient(self) -> float:
        """The AR(1) coefficient ``a`` (0 when temporal fading is disabled)."""
        return self.impairments.temporal_correlation or 0.0

    def reset(self) -> None:
        """Forget the fading state; the next block starts a fresh coherence run."""
        self._state = None

    def advance(self, rng: RandomState = None) -> np.ndarray:
        """Evolve one block and return its (spatially shaped) channel matrix."""
        generator = ensure_rng(rng)
        innovation = self._channel.base_model.sample(
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
        if self.impairments.has_spatial_structure:
            return self._channel.shape(self._state)
        return self._state
