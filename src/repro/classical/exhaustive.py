"""Exhaustive (brute-force) QUBO solver.

Used to establish the exact ground-state energy E_g that every paper metric
(ΔE%, success probability, TTS) is defined against.  For the instance sizes
the paper studies this is feasible; the solver refuses to enumerate beyond
28 variables, the guard of :func:`~repro.qubo.energy.brute_force_minimum`.
"""

from __future__ import annotations

from repro.classical.base import QuboSolution, QuboSolver, timed_call
from repro.qubo.energy import brute_force_minimum
from repro.qubo.model import QUBOModel
from repro.utils.rng import RandomState

__all__ = ["ExhaustiveSolver"]


class ExhaustiveSolver(QuboSolver):
    """Enumerate every assignment and return the exact optimum."""

    name = "exhaustive"

    def solve(self, qubo: QUBOModel, rng: RandomState = None) -> QuboSolution:
        """Return the exact ground state (first one in enumeration order)."""
        result, measured_us = timed_call(brute_force_minimum, qubo)
        return QuboSolution(
            assignment=result.assignment,
            energy=result.energy,
            solver_name=self.name,
            compute_time_us=measured_us,
            iterations=result.evaluated,
            metadata={
                "ground_state_count": result.ground_state_count,
                "evaluated": result.evaluated,
            },
        )
