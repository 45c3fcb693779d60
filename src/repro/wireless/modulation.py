"""Gray-coded digital modulation schemes.

The paper evaluates MIMO detection for BPSK, QPSK, 16-QAM and 64-QAM.  This
module provides those constellations with a Gray bit-to-symbol mapping (used
by the wireless link simulation, BER accounting, and the soft-information
constraint study of paper Figure 4) together with the *natural* per-dimension
amplitude mapping used by the QuAMax QUBO transform.

A :class:`Modulation` instance is immutable and cheap; :func:`get_modulation`
returns a shared instance per scheme name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import require_binary, require_non_negative

__all__ = [
    "Modulation",
    "get_modulation",
    "gray_code",
    "bits_to_int",
    "int_to_bits",
]

#: Canonical modulation names recognised by :func:`get_modulation`.
_CANONICAL_NAMES = {
    "bpsk": "BPSK",
    "qpsk": "QPSK",
    "4qam": "QPSK",
    "4-qam": "QPSK",
    "16qam": "16-QAM",
    "16-qam": "16-QAM",
    "64qam": "64-QAM",
    "64-qam": "64-QAM",
}

#: Bits per complex symbol for each canonical scheme.
_BITS_PER_SYMBOL = {"BPSK": 1, "QPSK": 2, "16-QAM": 4, "64-QAM": 6}


def gray_code(value: int) -> int:
    """Return the Gray code of a non-negative integer."""
    require_non_negative(value, "value")
    return value ^ (value >> 1)


def bits_to_int(bits: Sequence[int]) -> int:
    """Interpret a bit sequence (MSB first) as an unsigned integer."""
    require_binary(bits, "bits")
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return value


def int_to_bits(value: int, width: int) -> Tuple[int, ...]:
    """Expand an unsigned integer into ``width`` bits, MSB first."""
    if value < 0 or value >= (1 << width):
        raise ConfigurationError(f"value {value} does not fit in {width} bits")
    return tuple((value >> shift) & 1 for shift in reversed(range(width)))


def _pam_levels(bits_per_dimension: int) -> np.ndarray:
    """Amplitude levels of a Gray-coded PAM with the given bit width.

    Levels are the odd integers centred on zero, e.g. ``[-3, -1, 1, 3]`` for
    two bits.  Index ``i`` of the returned array is the level whose *Gray*
    label is ``i``.
    """
    count = 1 << bits_per_dimension
    natural_levels = np.arange(count) * 2 - (count - 1)
    levels = np.empty(count, dtype=float)
    for natural_index, amplitude in enumerate(natural_levels):
        levels[gray_code(natural_index)] = amplitude
    return levels


@dataclass(frozen=True)
class Modulation:
    """An immutable Gray-coded modulation scheme.

    Attributes
    ----------
    name:
        Canonical scheme name (``"BPSK"``, ``"QPSK"``, ``"16-QAM"``, ``"64-QAM"``).
    bits_per_symbol:
        Number of bits carried by one complex constellation symbol.

    The odd-integer constellation grid is scaled to unit average symbol
    energy (the paper's "unit gain signal").
    """

    name: str
    bits_per_symbol: int
    _points: np.ndarray = field(repr=False, compare=False, default=None)
    _labels: Dict[Tuple[int, ...], int] = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        points, labels = _build_constellation(self.name, self.bits_per_symbol)
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_labels", labels)

    # ------------------------------------------------------------------ #
    # Basic constellation geometry
    # ------------------------------------------------------------------ #

    @property
    def order(self) -> int:
        """Constellation size ``M = 2**bits_per_symbol``."""
        return 1 << self.bits_per_symbol

    @property
    def points(self) -> np.ndarray:
        """All constellation points, indexed by symbol index (bit label value)."""
        return self._points.copy()

    @property
    def bits_per_dimension(self) -> int:
        """Bits mapped onto each of the I and Q dimensions (0 for BPSK's Q)."""
        if self.name == "BPSK":
            return 1
        return self.bits_per_symbol // 2

    @cached_property
    def scale(self) -> float:
        """Multiplicative factor applied to the integer grid for normalisation.

        Computed once per instance: the transform reads it for every QUBO.
        """
        return float(1.0 / np.sqrt(self._average_grid_energy()))

    def _average_grid_energy(self) -> float:
        raw = _grid_points(self.name, self.bits_per_symbol)
        return float(np.mean(np.abs(raw) ** 2))

    # ------------------------------------------------------------------ #
    # Bit <-> symbol mapping
    # ------------------------------------------------------------------ #

    def modulate_bits(self, bits: Sequence[int]) -> np.ndarray:
        """Map a bit sequence to complex symbols (Gray mapping).

        The bit sequence length must be a multiple of :attr:`bits_per_symbol`.
        """
        bits = np.asarray(bits, dtype=int).ravel()
        if bits.size % self.bits_per_symbol:
            raise ConfigurationError(
                f"bit count {bits.size} is not a multiple of "
                f"bits_per_symbol={self.bits_per_symbol} for {self.name}"
            )
        require_binary(bits, "bits")
        # Each group read MSB first, as bits_to_int does.
        weights = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)
        return self._points[bits.reshape(-1, self.bits_per_symbol) @ weights]

    def random_bits(self, symbol_count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw a random bit sequence for ``symbol_count`` symbols."""
        return rng.integers(0, 2, size=symbol_count * self.bits_per_symbol)

    def average_energy(self) -> float:
        """Mean squared magnitude of the constellation."""
        return float(np.mean(np.abs(self._points) ** 2))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def _grid_points(name: str, bits_per_symbol: int) -> np.ndarray:
    """The raw odd-integer constellation grid, indexed by bit-label integer."""
    order = 1 << bits_per_symbol
    points = np.empty(order, dtype=complex)

    if name == "BPSK":
        points[0] = -1.0
        points[1] = 1.0
    else:
        bits_per_dim = bits_per_symbol // 2
        levels = _pam_levels(bits_per_dim)
        for label in range(order):
            in_phase_label = label >> bits_per_dim
            quadrature_label = label & ((1 << bits_per_dim) - 1)
            points[label] = levels[in_phase_label] + 1j * levels[quadrature_label]
    return points


def _build_constellation(
    name: str, bits_per_symbol: int
) -> Tuple[np.ndarray, Dict[Tuple[int, ...], int]]:
    """Unit-energy constellation points and the bit-label -> index map."""
    points = _grid_points(name, bits_per_symbol)
    energy = float(np.mean(np.abs(points) ** 2))
    points = points / np.sqrt(energy)

    labels = {int_to_bits(index, bits_per_symbol): index for index in range(1 << bits_per_symbol)}
    return points, labels


@lru_cache(maxsize=None)
def _cached_modulation(name: str) -> Modulation:
    return Modulation(name=name, bits_per_symbol=_BITS_PER_SYMBOL[name])


def get_modulation(name: str) -> Modulation:
    """Return the shared :class:`Modulation` instance for a scheme name.

    Accepts case-insensitive aliases such as ``"16qam"`` and ``"16-QAM"``.
    """
    key = name.strip().lower().replace(" ", "")
    if key not in _CANONICAL_NAMES:
        raise ConfigurationError(
            f"unknown modulation {name!r}; available: {sorted(set(_CANONICAL_NAMES.values()))}"
        )
    return _cached_modulation(_CANONICAL_NAMES[key])
