"""Ising model and the exact QUBO -> Ising conversion.

Quantum annealers physically implement the Ising Hamiltonian

    E(s) = sum_i h_i s_i + sum_{i<j} J_ij s_i s_j,    s_i in {-1, +1},

which is equivalent to the QUBO form of paper Eq. 1 under the substitution
``q_i = (1 + s_i) / 2``.  The conversion implemented here is exact
(including the constant offset), so energies agree to floating-point
precision on every assignment — a property the test suite checks with
hypothesis against the inverse conversion in ``tests/qubo_fixtures.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.qubo.model import QUBOModel, _fold_upper
from repro.utils.validation import require_binary

__all__ = ["IsingModel", "qubo_to_ising", "bits_to_spins"]


def bits_to_spins(bits: Sequence[int]) -> np.ndarray:
    """Map 0/1 bits to +/-1 spins using ``s = 2q - 1``."""
    bits = np.asarray(bits, dtype=int).ravel()
    require_binary(bits, "bits")
    return (2 * bits - 1).astype(np.int8)


@dataclass(frozen=True)
class IsingModel:
    """An immutable Ising instance with local fields h and couplings J.

    The coupling matrix is stored strictly upper-triangular; any square input
    is folded upward (and its diagonal is rejected, since ``s_i^2 = 1`` terms
    belong in the offset).
    """

    fields: np.ndarray
    couplings: np.ndarray
    offset: float = 0.0

    def __post_init__(self) -> None:
        fields = np.asarray(self.fields, dtype=float).ravel()
        couplings = np.asarray(self.couplings, dtype=float)
        if couplings.ndim != 2 or couplings.shape[0] != couplings.shape[1]:
            raise ConfigurationError(
                f"couplings must form a square matrix, got shape {couplings.shape}"
            )
        if couplings.shape[0] != fields.size:
            raise ConfigurationError(
                f"{fields.size} fields supplied for {couplings.shape[0]} spins"
            )
        diagonal = np.diagonal(couplings)
        extra_offset = float(np.sum(diagonal))
        upper = _fold_upper(couplings, False)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "couplings", upper)
        object.__setattr__(self, "offset", float(self.offset) + extra_offset)

    @property
    def num_spins(self) -> int:
        """Number of spin variables."""
        return int(self.fields.size)

    def energy(self, spins: Sequence[int]) -> float:
        """Energy of a +/-1 spin assignment, including the offset."""
        vector = np.asarray(spins, dtype=float).ravel()
        if vector.size != self.num_spins:
            raise ConfigurationError(
                f"assignment has {vector.size} spins, expected {self.num_spins}"
            )
        return float(self.fields @ vector + vector @ self.couplings @ vector + self.offset)

    def energies(self, assignments: np.ndarray) -> np.ndarray:
        """Vectorised energies for a batch of spin assignments (rows)."""
        batch = np.atleast_2d(np.asarray(assignments, dtype=float))
        if batch.shape[1] != self.num_spins:
            raise ConfigurationError(
                f"assignments have {batch.shape[1]} columns, expected {self.num_spins}"
            )
        quadratic = np.einsum("bi,ij,bj->b", batch, self.couplings, batch)
        return batch @ self.fields + quadratic + self.offset

    def max_abs_coefficient(self) -> float:
        """Largest absolute field or coupling (used for hardware rescaling)."""
        candidates = [np.max(np.abs(self.fields)) if self.fields.size else 0.0]
        if self.num_spins:
            candidates.append(float(np.max(np.abs(self.couplings))))
        return float(max(candidates))


def qubo_to_ising(qubo: QUBOModel) -> IsingModel:
    """Convert a QUBO to the exactly equivalent Ising model.

    With ``q = (1 + s) / 2`` the QUBO energy becomes an Ising energy with

    * J_ij = Q_ij / 4 for i < j,
    * h_i  = Q_ii / 2 + (sum_j Q_ij + Q_ji) / 4 over off-diagonal couplings,
    * offset = sum_i Q_ii / 2 + sum_{i<j} Q_ij / 4 + original offset.

    The loop runs on python floats read out with ``tolist()``: the same
    IEEE-754 divisions and additions in the same order as on numpy scalars,
    without a numpy scalar per coefficient.
    """
    rows = qubo.coefficients.tolist()
    n = len(rows)
    fields = [0.0] * n
    couplings = [[0.0] * n for _ in range(n)]
    offset = qubo.offset

    for i, row in enumerate(rows):
        linear = row[i]
        fields[i] += linear / 2.0
        offset += linear / 2.0
        for j in range(i + 1, n):
            quad = row[j]
            if quad == 0.0:
                continue
            quarter = quad / 4.0
            couplings[i][j] += quarter
            fields[i] += quarter
            fields[j] += quarter
            offset += quarter

    return IsingModel(
        fields=np.array(fields, dtype=float),
        couplings=np.array(couplings, dtype=float).reshape(n, n),
        offset=offset,
    )
