"""Link-level error metrics: BER and SER.

These metrics quantify how well a detector recovered the transmitted payload
and are used by the example applications and the extension benchmarks that
sweep SNR (the paper's headline experiments are noiseless, so there the only
meaningful metric is whether the exact ML solution was found).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["bit_error_rate", "symbol_error_rate"]


def _as_flat_array(values: Sequence, dtype) -> np.ndarray:
    return np.asarray(values, dtype=dtype).ravel()


def bit_error_rate(transmitted_bits: Sequence[int], detected_bits: Sequence[int]) -> float:
    """Fraction of payload bits detected incorrectly."""
    transmitted = _as_flat_array(transmitted_bits, int)
    detected = _as_flat_array(detected_bits, int)
    if transmitted.size != detected.size:
        raise ConfigurationError(
            f"bit vectors differ in length: {transmitted.size} vs {detected.size}"
        )
    if transmitted.size == 0:
        return 0.0
    return float(np.mean(transmitted != detected))


def symbol_error_rate(
    transmitted_symbols: Sequence[complex], detected_symbols: Sequence[complex]
) -> float:
    """Fraction of constellation symbols detected incorrectly.

    Symbols are compared with a 1e-9 tolerance because detected points are
    reconstructed through floating-point arithmetic.
    """
    transmitted = _as_flat_array(transmitted_symbols, complex)
    detected = _as_flat_array(detected_symbols, complex)
    if transmitted.size != detected.size:
        raise ConfigurationError(
            f"symbol vectors differ in length: {transmitted.size} vs {detected.size}"
        )
    if transmitted.size == 0:
        return 0.0
    return float(np.mean(np.abs(transmitted - detected) > 1e-9))
