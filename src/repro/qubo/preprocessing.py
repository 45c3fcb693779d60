"""Classical QUBO simplification by variable prefixing (paper Figure 3).

Section 3.1 of the paper evaluates a pre-processing scheme, following Lewis &
Glover's QUBO preprocessing rules, in which a cheap classical pass fixes the
value of some binary variables before quantum processing: each fixed variable
halves the search space the annealer must explore.

For a *minimisation* QUBO with coefficients ``Q`` the one-pass rules are:

* if ``Q_ii + sum of negative couplings touching i >= 0`` then the best-case
  contribution of setting ``q_i = 1`` is non-negative, so ``q_i = 0`` is
  optimal in some ground state — fix it to 0;
* if ``Q_ii + sum of positive couplings touching i <= 0`` then the worst-case
  contribution of setting ``q_i = 1`` is non-positive, so ``q_i = 1`` is
  optimal in some ground state — fix it to 1.

(The paper's prose states the rule with the roles of 0/1 swapped; the
implementation here follows the mathematically sound direction for
minimisation, which is also what reproduces the paper's empirical finding:
the rules stop firing entirely once MIMO QUBOs exceed roughly 32–40
variables.)

The pass is applied repeatedly on the reduced problem until no further
variable can be fixed (a fixpoint), which matches the iterated usage in the
preprocessing literature the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.qubo.model import QUBOModel

__all__ = ["PreprocessingReport", "find_fixable_variables", "simplify_qubo"]


@dataclass(frozen=True)
class PreprocessingReport:
    """Outcome of :func:`simplify_qubo`.

    Attributes
    ----------
    original_num_variables:
        Variable count before simplification.
    fixed_assignments:
        Mapping from original variable index to the value (0/1) it was fixed
        to, across all fixpoint iterations.
    reduced_qubo:
        The remaining QUBO on the unfixed variables (coefficients folded into
        linear terms and offset as appropriate).
    iterations:
        Number of passes performed (the final, empty pass included).
    """

    original_num_variables: int
    fixed_assignments: Dict[int, int]
    reduced_qubo: QUBOModel
    iterations: int

    @property
    def num_fixed(self) -> int:
        """Number of variables removed by preprocessing."""
        return len(self.fixed_assignments)

    @property
    def was_simplified(self) -> bool:
        """Whether at least one variable could be fixed."""
        return self.num_fixed > 0


def find_fixable_variables(qubo: QUBOModel) -> Dict[int, int]:
    """One pass of the prefixing rules; returns {variable index: fixed value}.

    Only inspects the model as given (no iteration); :func:`simplify_qubo`
    applies this repeatedly on the reduced problem.
    """
    fixable: Dict[int, int] = {}
    n = qubo.num_variables
    matrix = qubo.coefficients
    for i in range(n):
        linear = matrix[i, i]
        couplings = np.concatenate([matrix[i, i + 1 :], matrix[:i, i]])
        negative_sum = float(np.sum(couplings[couplings < 0]))
        positive_sum = float(np.sum(couplings[couplings > 0]))
        if linear + negative_sum >= 0.0:
            fixable[i] = 0
        elif linear + positive_sum <= 0.0:
            fixable[i] = 1
    return fixable


def simplify_qubo(qubo: QUBOModel) -> PreprocessingReport:
    """Iterate the prefixing rules to a fixpoint and return the report.

    Passes are capped at the variable count (at least one), which is always
    sufficient since each productive pass removes at least one variable.
    """
    original_n = qubo.num_variables
    limit = max(original_n, 1)

    # Track the mapping from current (reduced) indices back to original ones.
    current = qubo
    index_map = list(range(original_n))
    fixed: Dict[int, int] = {}
    iterations = 0

    while iterations < limit:
        iterations += 1
        fixable = find_fixable_variables(current)
        if not fixable:
            break
        for reduced_index, value in fixable.items():
            fixed[index_map[reduced_index]] = value
        current = current.fix_variables(fixable)
        index_map = [
            original for position, original in enumerate(index_map) if position not in fixable
        ]

    return PreprocessingReport(
        original_num_variables=original_n,
        fixed_assignments=fixed,
        reduced_qubo=current,
        iterations=iterations,
    )
