"""Exact (brute-force) QUBO minimisation.

The paper's metrics (ΔE%, success probability, TTS) are all defined relative
to the *ground-state* energy of each QUBO instance, which for the studied
sizes (up to ~48 variables at full scale, up to ~24 in the default benchmark
configurations) we obtain exactly.  :func:`brute_force_minimum` enumerates the
space in vectorised blocks so that 20–24 variable instances remain fast in
pure numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.qubo.model import QUBOModel
from repro.utils.validation import require_non_negative

__all__ = [
    "brute_force_minimum",
    "BruteForceResult",
    "enumerate_assignments",
]

#: Hard ceiling on exhaustive enumeration (2**28 states ~ 268M evaluations).
_MAX_EXHAUSTIVE_VARIABLES = 28

#: Number of assignments evaluated per vectorised block.
_BLOCK_BITS = 16

#: Energies within this absolute tolerance of the minimum count as
#: degenerate ground states.
_TIE_TOLERANCE = 1e-9


def enumerate_assignments(
    num_variables: int, block_bits: int = _BLOCK_BITS
) -> Iterator[np.ndarray]:
    """Yield all 0/1 assignments of ``num_variables`` variables in blocks.

    Each yielded array has shape (block, num_variables).  Enumeration order is
    the natural binary order of the assignment integer with variable 0 as the
    least-significant bit.
    """
    require_non_negative(num_variables, "num_variables")
    total = 1 << num_variables
    block_size = 1 << min(block_bits, num_variables)
    bit_weights = 1 << np.arange(num_variables, dtype=np.int64)
    for start in range(0, total, block_size):
        stop = min(start + block_size, total)
        integers = np.arange(start, stop, dtype=np.int64)
        yield ((integers[:, None] & bit_weights[None, :]) > 0).astype(np.int8)


@dataclass(frozen=True)
class BruteForceResult:
    """Exact minimisation result.

    Attributes
    ----------
    assignment:
        A ground-state 0/1 assignment (the first found in enumeration order).
    energy:
        The minimum energy, including the model offset.
    ground_state_count:
        Number of assignments achieving the minimum (degeneracy), counted
        with an absolute tolerance of 1e-9 in energy.
    evaluated:
        Total number of assignments evaluated (always ``2**num_variables``).
    """

    assignment: np.ndarray
    energy: float
    ground_state_count: int
    evaluated: int


def brute_force_minimum(
    qubo: QUBOModel, max_variables: int = _MAX_EXHAUSTIVE_VARIABLES
) -> BruteForceResult:
    """Exhaustively find the ground state of a QUBO.

    Parameters
    ----------
    qubo:
        The model to minimise.
    max_variables:
        Guard against accidental exponential blow-ups; raise explicitly to go
        beyond the default of 28 variables.
    """
    n = qubo.num_variables
    if n > max_variables:
        raise ConfigurationError(
            f"brute force over {n} variables exceeds max_variables={max_variables}"
        )
    if n == 0:
        return BruteForceResult(
            assignment=np.zeros(0, dtype=np.int8),
            energy=qubo.offset,
            ground_state_count=1,
            evaluated=1,
        )

    best_energy = np.inf
    best_assignment: Optional[np.ndarray] = None
    ground_count = 0

    for block in enumerate_assignments(n):
        energies = qubo.energies(block)
        block_min_index = int(np.argmin(energies))
        block_min = float(energies[block_min_index])
        if block_min < best_energy - _TIE_TOLERANCE:
            best_energy = block_min
            best_assignment = block[block_min_index].copy()
            ground_count = int(np.sum(np.isclose(energies, block_min, atol=_TIE_TOLERANCE)))
        elif abs(block_min - best_energy) <= _TIE_TOLERANCE:
            ground_count += int(np.sum(np.isclose(energies, best_energy, atol=_TIE_TOLERANCE)))

    assert best_assignment is not None
    return BruteForceResult(
        assignment=best_assignment.astype(np.int8),
        energy=float(best_energy),
        ground_state_count=ground_count,
        evaluated=1 << n,
    )
