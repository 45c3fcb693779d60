"""Soft-information constraint augmentation (paper Figure 4).

Section 3.1 of the paper explores using *soft information* — wireless-layer
pre-knowledge that certain transmitted bits are very likely to take a
particular value — to narrow the annealer's search space.  The scheme adds
penalty terms to the QUBO that raise the energy of assignments disagreeing
with the pre-knowledge, ideally without disturbing the global optimum.

The paper's example for a 16-QAM symbol believed to be ``1111`` adds the pair
terms ``C1 * (q1 - 1) * (q2 - 1)`` and ``C2 * (q3 - 1) * (q4 - 1)``: each term
is zero as soon as either bit of the pair agrees with the belief and positive
(= C) only when both bits contradict it.  This module generalises that
construction to arbitrary target bit values, single-bit biases, and batches of
constraints, and keeps everything strictly quadratic so the augmented model
remains a QUBO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.qubo.model import QUBOModel
from repro.utils.validation import require_binary, require_positive

__all__ = [
    "SoftConstraint",
    "add_soft_constraints",
]


@dataclass(frozen=True)
class SoftConstraint:
    """A quadratic penalty encouraging some variables to match target values.

    Attributes
    ----------
    variables:
        Indices of the constrained variables (one or two of them; larger
        groups must be decomposed into pairs to stay quadratic).
    targets:
        Believed values (0/1), one per constrained variable.
    strength:
        Penalty magnitude C (> 0).  Larger values narrow the search harder but
        risk distorting the landscape on an analog device — exactly the
        difficulty the paper reports.
    """

    variables: Tuple[int, ...]
    targets: Tuple[int, ...]
    strength: float

    def __post_init__(self) -> None:
        if len(self.variables) not in (1, 2):
            raise ConfigurationError(
                "soft constraints support 1 or 2 variables per term; decompose "
                f"larger groups into pairs (got {len(self.variables)})"
            )
        if len(self.variables) != len(self.targets):
            raise ConfigurationError("variables and targets must have equal length")
        if len(set(self.variables)) != len(self.variables):
            raise ConfigurationError("constraint variables must be distinct")
        require_binary(self.targets, "targets")
        require_positive(self.strength, "strength")

    def penalty_qubo(self, num_variables: int) -> QUBOModel:
        """Materialise this constraint as a QUBO penalty on ``num_variables``.

        The penalty is ``C * prod_i (q_i - (1 - t_i))`` up to sign, arranged so
        that it equals ``C`` only when *every* constrained bit contradicts its
        target, and 0 otherwise — the conservative construction of Figure 4.
        """
        for index in self.variables:
            if not 0 <= index < num_variables:
                raise ConfigurationError(
                    f"constraint variable {index} out of range for {num_variables}-variable model"
                )
        matrix = np.zeros((num_variables, num_variables))
        offset = 0.0

        if len(self.variables) == 1:
            (index,), (target,) = self.variables, self.targets
            # Penalise q != target: C * (q - target)^2 == C*q - 2C*t*q + C*t^2
            # which for binary q simplifies to a linear term plus constant.
            matrix[index, index] += self.strength * (1.0 - 2.0 * target)
            offset += self.strength * (target ** 2)
            return QUBOModel(coefficients=matrix, offset=offset)

        (i, j) = self.variables
        (ti, tj) = self.targets
        # Term C * (q_i - (1 - ti)) * (q_j - (1 - tj)) * sign, with the sign
        # chosen so the product is +C exactly when both bits are wrong.
        # Let a = 1 - ti, b = 1 - tj (the "wrong" values). The product
        # (q_i - a)(q_j - b) evaluates to:
        #   (ti - a)(tj - b) = (2ti-1)(2tj-1) when both bits are right,
        #   0 when exactly one is right... only if the right bit hits its
        #   subtracted constant. We instead expand explicitly below.
        sign_i = 1.0 - 2.0 * ti  # +1 if target 0, -1 if target 1
        sign_j = 1.0 - 2.0 * tj
        # f(q_i, q_j) = C * (sign_i * q_i + ti) * (sign_j * q_j + tj)
        #   equals C when q_i != ti and q_j != tj, and 0 whenever either
        #   variable matches its target (check: sign*q + t is 1 for the wrong
        #   value and 0 for the right one).
        low, high = (i, j) if i < j else (j, i)
        sign_low, sign_high = (sign_i, sign_j) if i < j else (sign_j, sign_i)
        t_low, t_high = (ti, tj) if i < j else (tj, ti)
        matrix[low, high] += self.strength * sign_low * sign_high
        matrix[low, low] += self.strength * sign_low * t_high
        matrix[high, high] += self.strength * sign_high * t_low
        offset += self.strength * t_low * t_high
        return QUBOModel(coefficients=matrix, offset=offset)


def add_soft_constraints(qubo: QUBOModel, constraints: Iterable[SoftConstraint]) -> QUBOModel:
    """Return a new QUBO with all penalty terms added to the original model."""
    augmented = qubo
    for constraint in constraints:
        augmented = augmented.add(constraint.penalty_qubo(qubo.num_variables))
    return augmented
