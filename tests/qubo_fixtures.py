"""QUBO / Ising fixtures and reference conversions shared by the tests.

No study needs these, so they live beside the tests that use them:

* :func:`spins_to_bits` and :func:`ising_to_qubo` invert
  :func:`repro.qubo.ising.bits_to_spins` and
  :func:`repro.qubo.ising.qubo_to_ising`, so round trips through the
  production conversions can be checked exactly;
* :func:`random_ising` draws a structure-free spin glass;
* :func:`planted_solution_qubo` builds a QUBO whose unique ground state is
  known by construction, which verifies samplers and solvers without
  exhaustive search;
* :func:`lift_assignment` rebuilds a full assignment from a solution of a
  :func:`repro.qubo.preprocessing.simplify_qubo` reduction, the oracle that
  checks preprocessing never raises the minimum.
"""

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.qubo.ising import IsingModel, bits_to_spins
from repro.qubo.model import QUBOModel
from repro.qubo.preprocessing import PreprocessingReport
from repro.utils.rng import RandomState, ensure_rng

__all__ = [
    "spins_to_bits",
    "ising_to_qubo",
    "random_ising",
    "planted_solution_qubo",
    "lift_assignment",
]


def spins_to_bits(spins: Sequence[int]) -> np.ndarray:
    """Map +/-1 spins to 0/1 bits using ``q = (1 + s) / 2``."""
    spins = np.asarray(spins, dtype=int).ravel()
    if spins.size and not np.all(np.isin(spins, (-1, 1))):
        raise ValueError("spins must be -1 or +1")
    return ((spins + 1) // 2).astype(np.int8)


def ising_to_qubo(ising: IsingModel) -> QUBOModel:
    """Convert an Ising model to the exactly equivalent QUBO.

    Uses ``s = 2q - 1``; the resulting coefficients are

    * Q_ij = 4 J_ij for i < j,
    * Q_ii = 2 h_i - 2 * sum_j (J_ij + J_ji),
    * offset = sum_{i<j} J_ij - sum_i h_i + original offset.
    """
    n = ising.num_spins
    matrix = np.zeros((n, n))
    offset = ising.offset

    for i in range(n):
        matrix[i, i] += 2.0 * ising.fields[i]
        offset -= ising.fields[i]
        for j in range(i + 1, n):
            coupling = ising.couplings[i, j]
            if coupling == 0.0:
                continue
            matrix[i, j] += 4.0 * coupling
            matrix[i, i] -= 2.0 * coupling
            matrix[j, j] -= 2.0 * coupling
            offset += coupling

    return QUBOModel(coefficients=matrix, offset=offset)


def random_ising(
    num_spins: int,
    density: float = 1.0,
    coupling_scale: float = 1.0,
    field_scale: float = 0.5,
    rng: RandomState = None,
) -> IsingModel:
    """Draw a random Ising spin glass with Gaussian fields and couplings."""
    if num_spins < 0:
        raise ConfigurationError(f"num_spins must be non-negative, got {num_spins}")
    if not 0.0 <= density <= 1.0:
        raise ConfigurationError(f"density must lie in [0, 1], got {density}")

    generator = ensure_rng(rng)
    fields = generator.normal(0.0, field_scale, size=num_spins)
    couplings = np.zeros((num_spins, num_spins))
    for i in range(num_spins):
        for j in range(i + 1, num_spins):
            if generator.random() < density:
                couplings[i, j] = generator.normal(0.0, coupling_scale)
    return IsingModel(fields=fields, couplings=couplings)


def planted_solution_qubo(
    planted_bits: Sequence[int],
    coupling_strength: float = 1.0,
    field_strength: float = 0.25,
    density: float = 1.0,
    rng: RandomState = None,
) -> QUBOModel:
    """Construct a QUBO whose unique ground state is ``planted_bits``.

    The construction plants a ferromagnetic-like Ising model aligned with the
    planted spin configuration: every included coupling ``J_ij`` is negative
    along ``s_i s_j`` (i.e. ``J_ij * s_i * s_j = -|J|``), and every spin gets a
    small field aligned with it.  Any disagreement with the planted state
    strictly increases the energy, so the planted state is the unique ground
    state for any positive strengths.
    """
    bits = np.asarray(planted_bits, dtype=int).ravel()
    if bits.size == 0:
        raise ConfigurationError("planted_bits must be non-empty")
    if not np.all(np.isin(bits, (0, 1))):
        raise ConfigurationError("planted_bits must contain only 0/1 values")
    if coupling_strength < 0 or field_strength < 0:
        raise ConfigurationError("strengths must be non-negative")
    if coupling_strength == 0 and field_strength == 0:
        raise ConfigurationError("at least one of the strengths must be positive")
    if not 0.0 <= density <= 1.0:
        raise ConfigurationError(f"density must lie in [0, 1], got {density}")

    generator = ensure_rng(rng)
    spins = bits_to_spins(bits).astype(float)
    n = bits.size

    fields = -field_strength * spins
    couplings = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if generator.random() < density:
                couplings[i, j] = -coupling_strength * spins[i] * spins[j]

    ising = IsingModel(fields=fields, couplings=couplings)
    qubo = ising_to_qubo(ising)
    return qubo


def lift_assignment(report: PreprocessingReport, reduced_assignment: np.ndarray) -> np.ndarray:
    """Combine a solution of the reduced QUBO with the fixed variables.

    Returns a full-length assignment over the original variable indices.
    """
    reduced_assignment = np.asarray(reduced_assignment, dtype=int).ravel()
    remaining = [
        index
        for index in range(report.original_num_variables)
        if index not in report.fixed_assignments
    ]
    if reduced_assignment.size != len(remaining):
        raise ValueError(
            f"reduced assignment has {reduced_assignment.size} entries, "
            f"expected {len(remaining)}"
        )
    full = np.zeros(report.original_num_variables, dtype=np.int8)
    for index, value in report.fixed_assignments.items():
        full[index] = value
    for position, index in enumerate(remaining):
        full[index] = reduced_assignment[position]
    return full
