"""The QuAMax reduction: MIMO maximum-likelihood detection to QUBO form.

The ML detection objective is ``||y - H x||^2`` minimised over constellation
vectors ``x``.  Writing each symbol's I/Q amplitudes as linear functions of
binary variables (see :mod:`repro.transform.symbol_mapping`) gives

    x = A q + b,          A in C^{Nt x N},  b in C^{Nt},

and substituting into the objective yields an exactly equivalent QUBO

    E(q) = q^T Re(G^H G) q - 2 Re(y_eff^H G) q        (+ constant),

with ``G = H A`` and ``y_eff = y - H b``.  Following the QuAMax convention the
constant ``||y_eff||^2`` is *not* included in the QUBO (it is recorded in the
encoding), so ground-state energies are negative and the paper's ΔE% metric is
well defined.

:func:`mimo_to_qubo` builds the QUBO together with a :class:`MIMOQuboEncoding`
that can decode any QUBO bitstring back into detected symbols and Gray-coded
payload bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.qubo.model import OPTIMUM_TOLERANCE, QUBOModel
from repro.utils.validation import require_binary
from repro.wireless.mimo import MIMODetectionResult, MIMOInstance
from repro.wireless.modulation import Modulation, get_modulation
from repro.transform.symbol_mapping import SymbolBitMapping

__all__ = [
    "MIMOQuboEncoding",
    "mimo_to_qubo",
    "is_optimum",
]

#: Most (modulation, user count) layouts :func:`_amplitude_map` keeps; a
#: study uses a handful, the bound only caps memory.
_LAYOUT_CACHE_SIZE = 64


@dataclass(frozen=True)
class MIMOQuboEncoding:
    """A MIMO detection instance together with its QUBO encoding.

    Attributes
    ----------
    instance:
        The original detection instance (channel, received vector, modulation).
    qubo:
        The equivalent QUBO (constant term excluded, per QuAMax convention).
    constant:
        The excluded constant ``||y_eff||^2``; ``qubo.energy(q) + constant``
        equals the ML objective ``||y - H x(q)||^2`` exactly.
    mappings:
        Per-user bit layout descriptors.
    """

    instance: MIMOInstance
    qubo: QUBOModel
    constant: float
    mappings: Tuple[SymbolBitMapping, ...]

    @property
    def num_variables(self) -> int:
        """Number of QUBO variables (payload bits per channel use)."""
        return self.qubo.num_variables

    @property
    def modulation(self) -> Modulation:
        """The modulation scheme of the encoded instance."""
        return self.instance.modulation_scheme

    def noiseless_ground_energy(self, transmission) -> "float | None":
        """Exact ground energy of the encoded QUBO, if analytically known.

        In the paper's noiseless protocol the transmitted vector *is* the ML
        solution, so its QUBO energy is the ground energy.  With noise or
        interference on the received vector, or with imperfect CSI (the QUBO
        is built from a channel *estimate*, so even a noiseless received
        vector does not lie in the estimate's column space), the ground
        energy is unknown and ``None`` is returned — robustness studies must
        establish it with an exhaustive QUBO solve instead.
        """
        if transmission.noise_variance != 0.0:
            return None
        if transmission.csi_error_variance != 0.0 or not transmission.has_perfect_csi:
            return None
        if transmission.interference_power != 0.0:
            return None
        bits = self.symbols_to_bits(transmission.transmitted_symbols)
        return float(self.qubo.energy(bits))

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #

    def bits_to_symbols(self, qubo_bits: Sequence[int]) -> np.ndarray:
        """Reconstruct the complex symbol vector encoded by a QUBO bitstring."""
        bits = self._validate_bits(qubo_bits)
        return np.asarray(
            [mapping.symbol_from_bits(bits) for mapping in self.mappings], dtype=complex
        )

    def symbols_to_bits(self, symbols: Sequence[complex]) -> np.ndarray:
        """QUBO bitstring encoding an exact constellation symbol vector."""
        symbols = np.asarray(symbols, dtype=complex).ravel()
        if symbols.size != len(self.mappings):
            raise ConfigurationError(
                f"expected {len(self.mappings)} symbols, got {symbols.size}"
            )
        bits: List[int] = []
        for mapping, symbol in zip(self.mappings, symbols):
            bits.extend(mapping.bits_from_symbol(complex(symbol)))
        return np.asarray(bits, dtype=np.int8)

    def payload_bits(self, qubo_bits: Sequence[int]) -> np.ndarray:
        """Gray-coded payload bits (what the MAC layer receives) for a bitstring."""
        bits = self._validate_bits(qubo_bits)
        payload: List[int] = []
        for mapping in self.mappings:
            payload.extend(mapping.gray_payload_bits(bits))
        return np.asarray(payload, dtype=np.int8)

    def ml_objective(self, qubo_bits: Sequence[int]) -> float:
        """Exact ML objective ``||y - H x(q)||^2`` of a QUBO bitstring."""
        return self.qubo.energy(qubo_bits) + self.constant

    def detection_result(
        self, qubo_bits: Sequence[int], algorithm: str = "qubo"
    ) -> MIMODetectionResult:
        """Package a QUBO bitstring as a :class:`MIMODetectionResult`."""
        bits = self._validate_bits(qubo_bits)
        symbols = self.bits_to_symbols(bits)
        return MIMODetectionResult(
            symbols=symbols,
            bits=self.payload_bits(bits),
            objective_value=self.ml_objective(bits),
            algorithm=algorithm,
            metadata={"qubo_bits": np.asarray(bits, dtype=np.int8)},
        )

    def _validate_bits(self, qubo_bits: Sequence[int]) -> np.ndarray:
        bits = np.asarray(qubo_bits, dtype=int).ravel()
        if bits.size != self.num_variables:
            raise ConfigurationError(
                f"expected {self.num_variables} QUBO bits, got {bits.size}"
            )
        require_binary(bits, "QUBO bits")
        return bits


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _amplitude_map(
    modulation_name: str, num_users: int
) -> Tuple[np.ndarray, np.ndarray, Tuple[SymbolBitMapping, ...], Tuple[str, ...]]:
    """The linear map ``x = A q + b``, the per-user bit layouts and variable names.

    A pure function of the modulation and the user count, so it is memoised
    (every channel use of a configuration shares it); the arrays are
    read-only.
    """
    modulation = get_modulation(modulation_name)
    bits_per_symbol = modulation.bits_per_symbol
    bits_per_dim = modulation.bits_per_dimension
    scale = modulation.scale
    total_bits = num_users * bits_per_symbol

    amplitude_matrix = np.zeros((num_users, total_bits), dtype=complex)
    amplitude_offset = np.zeros(num_users, dtype=complex)
    mappings: List[SymbolBitMapping] = []

    for user in range(num_users):
        first = user * bits_per_symbol
        mapping = SymbolBitMapping(modulation=modulation, user_index=user, first_variable=first)
        mappings.append(mapping)

        # In-phase bits: amplitude = scale * sum 2^(m-1-j) (2 q_j - 1)
        for position, variable in enumerate(mapping.in_phase_indices):
            weight = scale * (1 << (bits_per_dim - 1 - position))
            amplitude_matrix[user, variable] += 2.0 * weight
            amplitude_offset[user] -= weight
        # Quadrature bits contribute to the imaginary part (absent for BPSK).
        for position, variable in enumerate(mapping.quadrature_indices):
            weight = scale * (1 << (bits_per_dim - 1 - position))
            amplitude_matrix[user, variable] += 2.0j * weight
            amplitude_offset[user] -= 1.0j * weight

    names = tuple(
        f"u{mapping.user_index}b{offset_index}"
        for mapping in mappings
        for offset_index in range(bits_per_symbol)
    )
    amplitude_matrix.flags.writeable = False
    amplitude_offset.flags.writeable = False
    return amplitude_matrix, amplitude_offset, tuple(mappings), names


def mimo_to_qubo(instance: MIMOInstance) -> MIMOQuboEncoding:
    """Reduce a MIMO detection instance to an exactly equivalent QUBO.

    The returned encoding satisfies, for every QUBO bitstring ``q``::

        encoding.qubo.energy(q) + encoding.constant
            == || instance.received - instance.channel_matrix @ x(q) ||^2

    where ``x(q)`` is the symbol vector decoded by ``encoding.bits_to_symbols``.
    """
    amplitude_matrix, amplitude_offset, mappings, names = _amplitude_map(
        instance.modulation, instance.num_users
    )
    channel = instance.channel_matrix
    received = instance.received

    effective_matrix = channel @ amplitude_matrix  # G = H A, shape (Nr, N)
    effective_received = received - channel @ amplitude_offset  # y_eff = y - H b

    gram = np.real(np.conjugate(effective_matrix.T) @ effective_matrix)
    linear_correlation = np.real(np.conjugate(effective_received) @ effective_matrix)

    # Q_ii = G_ii - 2 c_i and Q_ij = 2 G_ij above the diagonal, zero below.
    coefficients = np.triu(2.0 * gram, 1)
    np.fill_diagonal(coefficients, np.diagonal(gram) - 2.0 * linear_correlation)

    constant = float(np.real(np.vdot(effective_received, effective_received)))

    qubo = QUBOModel(coefficients=coefficients, offset=0.0, variable_names=names)
    return MIMOQuboEncoding(
        instance=instance,
        qubo=qubo,
        constant=constant,
        mappings=mappings,
    )


def is_optimum(best_energy: float, ground_energy: "float | None") -> "bool | None":
    """The shared optimum-detection rule: best within tolerance of ground.

    Returns ``None`` when the ground energy is unknown (noisy protocol).
    """
    if ground_energy is None:
        return None
    return bool(best_energy <= ground_energy + OPTIMUM_TOLERANCE)
