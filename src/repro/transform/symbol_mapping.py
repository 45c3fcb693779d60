"""Mapping between QUBO variables, QAM amplitudes, and Gray-coded payload bits.

The QuAMax reduction expresses each I/Q amplitude of a transmitted symbol as a
*linear* function of binary variables so that the ML objective stays quadratic:

    amplitude = scale * sum_{j=0}^{m-1} 2^(m-1-j) * (2 * q_j - 1)

with ``m`` bits per dimension (1 for BPSK/QPSK, 2 for 16-QAM, 3 for 64-QAM).
These "transform bits" use a natural binary weighting, whereas the air
interface labels constellation points with *Gray* codes (so adjacent
constellation points differ in one payload bit).  This module provides both
directions of that correspondence, which the decoder needs to report payload
bits and BER after quantum detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import require_binary, require_positive
from repro.wireless.modulation import (
    Modulation,
    gray_code,
    int_to_bits,
    bits_to_int,
)

__all__ = [
    "SymbolBitMapping",
    "transform_bits_to_amplitude",
    "amplitude_to_transform_bits",
    "transform_bits_to_gray_bits",
]


def transform_bits_to_amplitude(bits: Sequence[int], scale: float = 1.0) -> float:
    """Amplitude of one I/Q dimension from its transform bits (MSB first)."""
    bits = list(bits)
    if not bits:
        raise ConfigurationError("at least one transform bit is required per dimension")
    require_binary(bits, "transform bits")
    width = len(bits)
    amplitude = sum(
        (1 << (width - 1 - position)) * (2 * bit - 1) for position, bit in enumerate(bits)
    )
    return float(amplitude) * scale


def amplitude_to_transform_bits(
    amplitude: float, bits_per_dimension: int, scale: float = 1.0
) -> Tuple[int, ...]:
    """Invert :func:`transform_bits_to_amplitude` for an exact grid amplitude."""
    require_positive(bits_per_dimension, "bits_per_dimension")
    count = 1 << bits_per_dimension
    grid_value = amplitude / scale
    natural = (grid_value + (count - 1)) / 2.0
    natural_index = int(round(natural))
    if not 0 <= natural_index < count or abs(natural - natural_index) > 1e-6:
        raise ConfigurationError(
            f"amplitude {amplitude!r} is not on the {bits_per_dimension}-bit grid "
            f"(scale {scale!r})"
        )
    return int_to_bits(natural_index, bits_per_dimension)


def transform_bits_to_gray_bits(bits: Sequence[int]) -> Tuple[int, ...]:
    """Convert one dimension's transform bits into its Gray-coded payload bits."""
    width = len(list(bits))
    natural = bits_to_int(bits)
    return int_to_bits(gray_code(natural), width)


@dataclass(frozen=True)
class SymbolBitMapping:
    """Bit layout of one user's symbol inside the QUBO variable vector.

    The QuAMax convention used throughout this library orders each user's
    variables as ``[I-dimension bits (MSB first), Q-dimension bits (MSB
    first)]``; BPSK has a single in-phase bit and no quadrature bits.

    Attributes
    ----------
    modulation:
        The user's modulation scheme.
    user_index:
        Index of the user (spatial stream) this mapping describes.
    first_variable:
        Index of the user's first QUBO variable.
    """

    modulation: Modulation
    user_index: int
    first_variable: int

    @property
    def bits_per_symbol(self) -> int:
        """Number of QUBO variables representing this user's symbol."""
        return self.modulation.bits_per_symbol

    @property
    def variable_indices(self) -> Tuple[int, ...]:
        """The user's QUBO variable indices, in layout order."""
        return tuple(range(self.first_variable, self.first_variable + self.bits_per_symbol))

    @property
    def in_phase_indices(self) -> Tuple[int, ...]:
        """QUBO variables carrying the in-phase (real) amplitude."""
        if self.modulation.name == "BPSK":
            return self.variable_indices
        half = self.bits_per_symbol // 2
        return self.variable_indices[:half]

    @property
    def quadrature_indices(self) -> Tuple[int, ...]:
        """QUBO variables carrying the quadrature (imaginary) amplitude."""
        if self.modulation.name == "BPSK":
            return ()
        half = self.bits_per_symbol // 2
        return self.variable_indices[half:]

    def symbol_from_bits(self, qubo_bits: Sequence[int]) -> complex:
        """Reconstruct this user's complex symbol from the full QUBO bit vector."""
        qubo_bits = np.asarray(qubo_bits, dtype=int).ravel()
        scale = self.modulation.scale
        in_phase_bits = [int(qubo_bits[i]) for i in self.in_phase_indices]
        real = transform_bits_to_amplitude(in_phase_bits, scale)
        if not self.quadrature_indices:
            return complex(real, 0.0)
        quadrature_bits = [int(qubo_bits[i]) for i in self.quadrature_indices]
        imag = transform_bits_to_amplitude(quadrature_bits, scale)
        return complex(real, imag)

    def bits_from_symbol(self, symbol: complex) -> Tuple[int, ...]:
        """Transform bits (layout order) representing an exact constellation symbol."""
        scale = self.modulation.scale
        bits_per_dim = self.modulation.bits_per_dimension
        in_phase = amplitude_to_transform_bits(symbol.real, bits_per_dim, scale)
        if self.modulation.name == "BPSK":
            if abs(symbol.imag) > 1e-9:
                raise ConfigurationError("BPSK symbols must be real-valued")
            return in_phase
        quadrature = amplitude_to_transform_bits(symbol.imag, bits_per_dim, scale)
        return in_phase + quadrature

    def gray_payload_bits(self, qubo_bits: Sequence[int]) -> Tuple[int, ...]:
        """Gray-coded payload bits of this user's detected symbol.

        These are the bits a real receiver would deliver to the MAC layer;
        they differ from the raw QUBO variables because the air interface
        Gray-codes the constellation.
        """
        qubo_bits = np.asarray(qubo_bits, dtype=int).ravel()
        in_phase_bits = [int(qubo_bits[i]) for i in self.in_phase_indices]
        payload: List[int] = list(transform_bits_to_gray_bits(in_phase_bits))
        if self.quadrature_indices:
            quadrature_bits = [int(qubo_bits[i]) for i in self.quadrature_indices]
            payload.extend(transform_bits_to_gray_bits(quadrature_bits))
        return tuple(payload)
