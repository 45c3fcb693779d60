"""Greedy Search (GS): the paper's classical module (Sec. 4.1).

GS is "a very simple deterministic QUBO solver featuring linear complexity":

1. Every bit starts with its marginal energy: the QUBO energy change of
   setting it to 1 while every other bit is 0, i.e. its diagonal coefficient
   ``Q_ii``.
2. The first bit fixed is the one with the largest ``|Q_ii|`` (the lowest
   index on a tie); it is assigned 1 if its marginal is negative and 0
   otherwise.
3. "The procedure is iterated recursively on the remaining variables": a bit
   fixed to 1 adds its coupling ``Q_ij`` (upper-triangular entry) to the
   marginal of every unset bit ``j``, a bit fixed to 0 changes nothing, and
   the next bit fixed is again the unset one whose marginal has the largest
   magnitude, assigned by the same sign rule.

The scores are these QUBO marginals, not the Ising local fields
``1/2 Q_ii + 1/4 (sum_{k<i} Q_ki + sum_{k>i} Q_ik)``: the first pick ignores
the couplings.

The solution is usually not the global optimum but is a good, essentially free
initial state for reverse annealing — which is exactly how the paper's hybrid
prototype uses it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.classical.base import QuboSolution, QuboSolver, timed_call
from repro.qubo.model import QUBOModel
from repro.utils.rng import BatchRandomState, RandomState

__all__ = ["GreedySearchSolver", "greedy_search"]

#: Modelled GS compute time per variable (see :class:`GreedySearchSolver`).
_MODELLED_TIME_PER_VARIABLE_US = 0.01


def greedy_search(qubo: QUBOModel) -> np.ndarray:
    """Run the paper's greedy search and return the 0/1 assignment.

    Every unset bit's marginal energy is re-evaluated after each assignment,
    and the bit whose marginal has the largest magnitude is fixed next.  This
    is the recursive reading of the paper's description ("the procedure is
    iterated recursively on the remaining variables") and reproduces the
    paper's observation that GS solutions typically score ΔE_IS% <= 10%.
    """
    rows = qubo.coefficients.tolist()
    n = len(rows)
    # marginal[i] = energy change of setting q_i = 1 given the bits fixed
    # to 1 so far (couplings to bits fixed to 0 contribute nothing).  Python
    # floats carry the same IEEE-754 sums as numpy scalars would.
    marginal = [row[i] for i, row in enumerate(rows)]
    assignment = [0] * n
    remaining = list(range(n))
    while remaining:
        # np.argmax's rule: the first largest |marginal|, or the first NaN.
        best = remaining[0]
        largest = abs(marginal[best])
        for candidate in remaining[1:]:
            if largest != largest:
                break
            size = abs(marginal[candidate])
            if size > largest or size != size:
                best, largest = candidate, size
        remaining.remove(best)
        if marginal[best] < 0:
            assignment[best] = 1
            row = rows[best]
            for other in remaining:
                marginal[other] += row[other] if best < other else rows[other][best]
    return np.array(assignment, dtype=np.int8)


class GreedySearchSolver(QuboSolver):
    """The paper's Greedy Search packaged behind the :class:`QuboSolver` API.

    The pipeline simulator charges GS a deterministic, linear-in-N compute
    time; the paper describes GS as requiring "nearly negligible computation
    time", and 0.01 us per variable keeps it far below the microsecond-scale
    anneal times while staying non-zero.
    """

    name = "greedy-search"

    def solve(self, qubo: QUBOModel, rng: RandomState = None) -> QuboSolution:
        """Run GS on one QUBO (a batch of one; GS draws nothing from ``rng``)."""
        return self.solve_batch([qubo], rng)[0]

    def solve_batch(
        self, qubos: Sequence[QUBOModel], rng: BatchRandomState = None
    ) -> List[QuboSolution]:
        """Solve a batch of QUBOs; GS is deterministic so no children are spawned.

        One wall-clock measurement covers the whole batch (apportioned evenly
        into each solution's ``measured_wall_time_us``); the modelled compute
        time stays per-instance and linear in N.
        """
        assignments, measured_us = timed_call(
            lambda: [greedy_search(qubo) for qubo in qubos]
        )
        per_instance_us = measured_us / max(len(qubos), 1)
        return [
            QuboSolution(
                assignment=assignment,
                energy=qubo.energy(assignment),
                solver_name=self.name,
                compute_time_us=_MODELLED_TIME_PER_VARIABLE_US * qubo.num_variables,
                iterations=qubo.num_variables,
                metadata={"measured_wall_time_us": per_instance_us, "order": "adaptive"},
            )
            for qubo, assignment in zip(qubos, assignments)
        ]
