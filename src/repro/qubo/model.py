"""The QUBO model container (paper Eq. 1).

A QUBO instance is an upper-triangular real matrix ``Q``; the objective is

    E(q) = sum_{i <= j} Q[i, j] * q_i * q_j,      q_i in {0, 1}.

:class:`QUBOModel` normalises arbitrary square coefficient matrices to the
upper-triangular convention (symmetric or lower-triangular input is folded
upward), evaluates energies for single assignments and batches, and supports
the algebraic operations the rest of the library needs: fixing variables,
adding constraint terms, scaling, and conversion to the Ising form
(through :mod:`repro.qubo.ising`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import require_binary

__all__ = ["OPTIMUM_TOLERANCE", "QUBOModel"]

#: Energy tolerance within which a solution counts as having reached the
#: ground energy.  Every hit rate (sample sets, the transform's
#: :func:`~repro.transform.mimo_to_qubo.is_optimum`, the ablation studies)
#: reads it, so the evaluation rule cannot drift.
OPTIMUM_TOLERANCE = 1e-6

#: Most matrix sizes :func:`_triangle_masks` keeps masks for.  Problems come
#: in a handful of sizes; the bound only caps memory.
_TRIANGLE_MASK_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_TRIANGLE_MASK_CACHE_SIZE)
def _triangle_masks(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(strictly_lower, lower)`` boolean masks of an ``n x n`` matrix.

    The masks ``np.tri`` builds for ``np.tril(m, -1)`` / ``np.triu(m)`` and
    ``np.triu(m, 1)``, memoised: every QUBO and Ising model folds its
    matrix, and building the masks cost more than the fold itself.
    """
    strictly_lower = np.tri(n, k=-1, dtype=bool)
    lower = np.tri(n, dtype=bool)
    strictly_lower.flags.writeable = False
    lower.flags.writeable = False
    return strictly_lower, lower


def _fold_upper(matrix: np.ndarray, keep_diagonal: bool) -> np.ndarray:
    """``np.triu(m, k) + np.tril(m, -1).T`` with ``k = 0`` or ``1``, bit for bit.

    The same ``np.where`` selections ``np.triu``/``np.tril`` make, on
    memoised masks.  Each upper entry is ``m[i, j] + m[j, i]`` (so a
    ``-0.0`` comes out ``+0.0`` unless both are ``-0.0``), a kept diagonal
    entry is ``m[i, i] + 0.0`` and every other entry ``+0.0``.
    """
    strictly_lower, lower = _triangle_masks(matrix.shape[0])
    upper = np.where(strictly_lower if keep_diagonal else lower, 0.0, matrix)
    upper += np.where(strictly_lower, matrix, 0.0).T
    return upper


def _to_upper_triangular(matrix: np.ndarray) -> np.ndarray:
    """Fold a square coefficient matrix into the upper-triangular convention."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ConfigurationError(
            f"QUBO coefficients must form a square matrix, got shape {matrix.shape}"
        )
    return _fold_upper(matrix, True)


@dataclass(frozen=True)
class QUBOModel:
    """An immutable QUBO instance.

    Parameters
    ----------
    coefficients:
        Square matrix of QUBO coefficients.  Any square matrix is accepted;
        entries below the diagonal are folded onto their transpose position so
        the stored matrix is always upper-triangular.
    offset:
        Constant added to every energy (arises when variables are fixed or
        when converting from Ising form).
    variable_names:
        Optional labels (defaults to ``q0..qN-1``); used by the MIMO transform
        to record which payload bit each variable represents.
    """

    coefficients: np.ndarray
    offset: float = 0.0
    variable_names: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        matrix = _to_upper_triangular(self.coefficients)
        object.__setattr__(self, "coefficients", matrix)
        object.__setattr__(self, "offset", float(self.offset))
        names = tuple(self.variable_names) if self.variable_names else tuple(
            f"q{i}" for i in range(matrix.shape[0])
        )
        if len(names) != matrix.shape[0]:
            raise ConfigurationError(
                f"{len(names)} variable names supplied for {matrix.shape[0]} variables"
            )
        object.__setattr__(self, "variable_names", names)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, num_variables: int) -> "QUBOModel":
        """An all-zero QUBO on ``num_variables`` variables."""
        return cls(coefficients=np.zeros((num_variables, num_variables)))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_variables(self) -> int:
        """Number of binary variables."""
        return int(self.coefficients.shape[0])

    @property
    def linear(self) -> np.ndarray:
        """Diagonal (linear) coefficients as a copy."""
        return np.diagonal(self.coefficients).copy()

    @property
    def quadratic(self) -> Dict[Tuple[int, int], float]:
        """Sparse mapping of strictly-upper-triangular nonzero couplings."""
        couplings: Dict[Tuple[int, int], float] = {}
        rows, cols = np.nonzero(np.triu(self.coefficients, k=1))
        for i, j in zip(rows.tolist(), cols.tolist()):
            couplings[(i, j)] = float(self.coefficients[i, j])
        return couplings

    def density(self) -> float:
        """Fraction of possible off-diagonal couplings that are nonzero."""
        n = self.num_variables
        if n < 2:
            return 0.0
        possible = n * (n - 1) / 2
        return len(self.quadratic) / possible

    def max_abs_coefficient(self) -> float:
        """Largest absolute coefficient (sets the classical SA solver's start temperature)."""
        if self.num_variables == 0:
            return 0.0
        return float(np.max(np.abs(self.coefficients)))

    # ------------------------------------------------------------------ #
    # Energy evaluation
    # ------------------------------------------------------------------ #

    def energy(self, assignment: Sequence[int]) -> float:
        """Energy of one 0/1 assignment (including the offset)."""
        vector = np.asarray(assignment, dtype=float).ravel()
        if vector.size != self.num_variables:
            raise ConfigurationError(
                f"assignment has {vector.size} entries, expected {self.num_variables}"
            )
        return float(vector @ self.coefficients @ vector + self.offset)

    def energies(self, assignments: np.ndarray) -> np.ndarray:
        """Vectorised energies for a batch of assignments (rows)."""
        batch = np.atleast_2d(np.asarray(assignments, dtype=float))
        if batch.shape[1] != self.num_variables:
            raise ConfigurationError(
                f"assignments have {batch.shape[1]} columns, expected {self.num_variables}"
            )
        return np.einsum("bi,ij,bj->b", batch, self.coefficients, batch) + self.offset

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #

    def add(self, other: "QUBOModel") -> "QUBOModel":
        """Sum of two QUBOs on the same variable set."""
        if other.num_variables != self.num_variables:
            raise ConfigurationError(
                f"cannot add QUBOs with {self.num_variables} and {other.num_variables} variables"
            )
        return QUBOModel(
            coefficients=self.coefficients + other.coefficients,
            offset=self.offset + other.offset,
            variable_names=self.variable_names,
        )

    def scale(self, factor: float) -> "QUBOModel":
        """Multiply every coefficient (and the offset) by ``factor``."""
        return QUBOModel(
            coefficients=self.coefficients * factor,
            offset=self.offset * factor,
            variable_names=self.variable_names,
        )

    def fix_variables(self, assignments: Mapping[int, int]) -> "QUBOModel":
        """Return the reduced QUBO obtained by fixing some variables.

        Fixing ``q_i = v`` removes variable ``i``; its contributions move into
        the offset (constant part) and into the linear terms of the remaining
        variables it coupled to.  Variable names of surviving variables are
        preserved.
        """
        for index, value in assignments.items():
            if not 0 <= index < self.num_variables:
                raise IndexError(f"variable index {index} out of range")
            require_binary(value, f"fixed value for variable {index}")

        keep = [i for i in range(self.num_variables) if i not in assignments]
        new_size = len(keep)
        new_matrix = np.zeros((new_size, new_size), dtype=float)
        new_offset = self.offset
        position = {old: new for new, old in enumerate(keep)}

        for i in range(self.num_variables):
            for j in range(i, self.num_variables):
                value = self.coefficients[i, j]
                if value == 0.0:
                    continue
                i_fixed = i in assignments
                j_fixed = j in assignments
                if i_fixed and j_fixed:
                    new_offset += value * assignments[i] * assignments[j]
                elif i_fixed:
                    new_matrix[position[j], position[j]] += value * assignments[i]
                elif j_fixed:
                    new_matrix[position[i], position[i]] += value * assignments[j]
                else:
                    new_matrix[position[i], position[j]] += value

        names = tuple(self.variable_names[i] for i in keep)
        return QUBOModel(coefficients=new_matrix, offset=new_offset, variable_names=names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QUBOModel):
            return NotImplemented
        return (
            self.num_variables == other.num_variables
            and np.allclose(self.coefficients, other.coefficients)
            and np.isclose(self.offset, other.offset)
            and self.variable_names == other.variable_names
        )

    def __hash__(self) -> int:
        return hash((self.num_variables, round(self.offset, 12), self.variable_names))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QUBOModel(num_variables={self.num_variables}, "
            f"couplings={len(self.quadratic)}, offset={self.offset:.4g})"
        )
