"""Classical simulated annealing over QUBO assignments.

Simulated annealing (SA) is the conventional classical baseline for
QUBO/Ising heuristics and one of the "classical approximate solvers" the
paper's conclusion lists as candidates for richer hybrid designs.  The solver
converts each QUBO to Ising form and runs the sequential single-flip
Metropolis kernel of :mod:`repro.annealing.kernels` (the module whose rotor
kernel powers the anneal backend) under a geometric temperature schedule,
tracking the best state seen over all sweeps with exact incremental energy
bookkeeping.

Both the single-instance :meth:`SimulatedAnnealingSolver.solve` and the
batched :meth:`SimulatedAnnealingSolver.solve_batch` run the same kernel: the
single path is literally a batch of one, so a batched solve over per-instance
child generators is bitwise-identical to the sequential loop regardless of
how instances are grouped.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.annealing import kernels
from repro.classical.base import QuboSolution, QuboSolver
from repro.qubo.ising import qubo_to_ising
from repro.qubo.model import QUBOModel
from repro.utils.rng import BatchRandomState, RandomState, ensure_rng, ensure_rng_batch
from repro.utils.validation import require_positive

__all__ = ["SimulatedAnnealingSolver"]

#: Modelled compute time charged per sweep for pipeline accounting.
_TIME_PER_SWEEP_US = 0.1


class SimulatedAnnealingSolver(QuboSolver):
    """Single-flip Metropolis simulated annealing.

    Parameters
    ----------
    num_sweeps:
        Number of full sweeps (each sweep proposes one flip per variable).
        Each sweep is charged 0.1 us of modelled compute time for pipeline
        accounting.
    final_temperature:
        End point of the geometric cooling schedule, in energy units.  The
        schedule starts at the model's largest absolute coefficient (at
        least 1) so acceptance starts near 1.

    Every anneal starts from a uniformly random assignment.
    """

    name = "simulated-annealing"

    def __init__(self, num_sweeps: int = 200, final_temperature: float = 0.01) -> None:
        require_positive(num_sweeps, "num_sweeps")
        require_positive(final_temperature, "final_temperature")
        self.num_sweeps = int(num_sweeps)
        self.final_temperature = float(final_temperature)

    def _temperature_schedule(self, qubo: QUBOModel) -> np.ndarray:
        start = max(qubo.max_abs_coefficient(), 1.0)
        if start < self.final_temperature:
            start = self.final_temperature
        return np.geomspace(start, self.final_temperature, self.num_sweeps)

    def solve(self, qubo: QUBOModel, rng: RandomState = None) -> QuboSolution:
        """Anneal once and return the best assignment seen over all sweeps."""
        return self._anneal_batch([qubo], [ensure_rng(rng)])[0]

    def solve_batch(
        self, qubos: Sequence[QUBOModel], rng: BatchRandomState = None
    ) -> List[QuboSolution]:
        """Anneal a batch of independent QUBOs as one vectorised computation.

        All instances sweep in lock-step over a common padded size; instance
        ``b`` draws exclusively from per-instance child generator ``b``, so
        the result list is bitwise-identical to calling :meth:`solve` once per
        instance with those children.
        """
        return self._anneal_batch(list(qubos), ensure_rng_batch(rng, len(qubos)))

    def _anneal_batch(
        self, qubos: List[QUBOModel], children: List[np.random.Generator]
    ) -> List[QuboSolution]:
        batch = len(qubos)
        if batch == 0:
            return []
        sizes = np.array([qubo.num_variables for qubo in qubos], dtype=int)
        max_size = int(sizes.max())
        temperatures = np.stack(
            [self._temperature_schedule(qubo) for qubo in qubos]
        )  # (B, num_sweeps)

        if max_size == 0:
            return [self._empty_solution(qubo) for qubo in qubos]

        # Ising-space replica state, one read per instance: spins (B, N, 1)
        # with trailing padding lanes at +1, which zero fields and couplings
        # never flip.
        state = np.ones((batch, max_size, 1))
        padded_fields = np.zeros((batch, max_size))
        symmetric = np.zeros((batch, max_size, max_size))
        for index, qubo in enumerate(qubos):
            n = int(sizes[index])
            if n == 0:
                continue
            bits = children[index].integers(0, 2, size=n, dtype=np.int8)
            state[index, :n, 0] = bits.astype(float) * 2.0 - 1.0
            ising = qubo_to_ising(qubo)
            padded_fields[index, :n] = ising.fields
            symmetric[index, :n, :n] = ising.couplings + ising.couplings.T

        local = kernels.initial_local_fields(padded_fields, symmetric, state)
        # Bare Ising energies E = h.s + 1/2 s.J.s = (s.local + s.h) / 2;
        # the kernel advances them exactly and keeps per-read minima.
        energies = 0.5 * (
            np.einsum("bnr,bnr->br", state, local)
            + np.einsum("bnr,bn->br", state, padded_fields)
        )
        best_state = state.copy()
        best_energies = energies.copy()

        # One read per instance, so the parallelism comes from the batch
        # axis: sequential fixed-order Metropolis, vectorised across
        # instances, with one temperature row per sweep.
        kernels.sa_sweeps(
            state,
            local,
            symmetric,
            sizes,
            children,
            temperatures.T,
            energies=energies,
            best_spins=best_state,
            best_energies=best_energies,
        )

        solutions = []
        for index, qubo in enumerate(qubos):
            n = int(sizes[index])
            if n == 0:
                solutions.append(self._empty_solution(qubo))
                continue
            bits = ((best_state[index, :n, 0] + 1.0) / 2.0).astype(np.int8)
            solutions.append(
                QuboSolution(
                    assignment=bits,
                    # Recomputed from scratch so the reported value is exact
                    # (the tracked Ising energies drop the constant offset).
                    energy=float(qubo.energy(bits)),
                    solver_name=self.name,
                    compute_time_us=_TIME_PER_SWEEP_US * self.num_sweeps,
                    iterations=self.num_sweeps,
                    metadata={
                        "final_temperature": float(temperatures[index, -1]),
                        "initial_temperature": float(temperatures[index, 0]),
                    },
                )
            )
        return solutions

    def _empty_solution(self, qubo: QUBOModel) -> QuboSolution:
        return QuboSolution(
            assignment=np.zeros(0, dtype=np.int8),
            energy=qubo.offset,
            solver_name=self.name,
        )
