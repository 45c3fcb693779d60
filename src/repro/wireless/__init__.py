"""Wireless PHY substrate: modulation, channels, and MIMO link simulation.

This package provides the wireless-networking substrate the paper's
evaluation depends on:

* :mod:`repro.wireless.modulation` — Gray-coded BPSK/QPSK/16-QAM/64-QAM
  constellations with bit/symbol mapping.
* :mod:`repro.wireless.channel` — the paper's unit-gain random-phase channel,
  a Rayleigh fading channel, and AWGN.
* :mod:`repro.wireless.fading` — the channel impairment engine the
  robustness study sweeps: Kronecker spatial correlation, Jakes-Doppler
  block fading, pilot-based imperfect CSI, and inter-cell interference.
* :mod:`repro.wireless.mimo` — spatial-multiplexing MIMO link simulation.
* :mod:`repro.wireless.metrics` — BER / SER link metrics.
* :mod:`repro.wireless.traffic` — successive channel-use traffic generation
  for the pipelining study (paper Figure 2).
"""

from repro.wireless.modulation import (
    Modulation,
    get_modulation,
    gray_code,
)
from repro.wireless.channel import (
    ChannelModel,
    UnitGainRandomPhaseChannel,
    RayleighFadingChannel,
    awgn,
    noise_variance_for_snr,
    effective_noise_variance,
)
from repro.wireless.fading import (
    ChannelImpairments,
    FadingProcess,
    estimate_channel,
    exponential_correlation,
    jakes_correlation,
)
from repro.wireless.mimo import (
    MIMOConfig,
    MIMOInstance,
    MIMOTransmission,
    MIMODetectionResult,
    simulate_transmission,
)
from repro.wireless.metrics import bit_error_rate, symbol_error_rate
from repro.wireless.traffic import ChannelUse, TrafficGenerator

__all__ = [
    "Modulation",
    "get_modulation",
    "gray_code",
    "ChannelModel",
    "UnitGainRandomPhaseChannel",
    "RayleighFadingChannel",
    "awgn",
    "noise_variance_for_snr",
    "effective_noise_variance",
    "ChannelImpairments",
    "FadingProcess",
    "estimate_channel",
    "exponential_correlation",
    "jakes_correlation",
    "MIMOConfig",
    "MIMOInstance",
    "MIMOTransmission",
    "MIMODetectionResult",
    "simulate_transmission",
    "bit_error_rate",
    "symbol_error_rate",
    "ChannelUse",
    "TrafficGenerator",
]
