"""Classical simulated annealing over QUBO assignments.

Simulated annealing (SA) is the conventional classical baseline for
QUBO/Ising heuristics and one of the "classical approximate solvers" the
paper's conclusion lists as candidates for richer hybrid designs.  The solver
converts each QUBO to Ising form and runs the shared replica-parallel
single-flip Metropolis kernel of :mod:`repro.annealing.kernels` — the same
array program that powers the anneal backends — under a geometric temperature
schedule, tracking the best state seen over all sweeps with exact incremental
energy bookkeeping.

Both the single-instance :meth:`SimulatedAnnealingSolver.solve` and the
batched :meth:`SimulatedAnnealingSolver.solve_batch` run the same kernel: the
single path is literally a batch of one, so a batched solve over per-instance
child generators is bitwise-identical to the sequential loop regardless of
how instances are grouped.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.annealing import kernels
from repro.classical.base import QuboSolution, QuboSolver
from repro.exceptions import ConfigurationError
from repro.qubo.ising import qubo_to_ising
from repro.qubo.model import QUBOModel
from repro.utils.rng import BatchRandomState, RandomState, ensure_rng, ensure_rng_batch

__all__ = ["SimulatedAnnealingSolver"]


class SimulatedAnnealingSolver(QuboSolver):
    """Single-flip Metropolis simulated annealing.

    Parameters
    ----------
    num_sweeps:
        Number of full sweeps (each sweep proposes one flip per variable).
    initial_temperature / final_temperature:
        End points of the geometric cooling schedule, in energy units.  If
        ``initial_temperature`` is ``None`` it is auto-scaled to the model's
        largest absolute coefficient so acceptance starts near 1.
    initial_state:
        Optional starting assignment (defaults to uniformly random), allowing
        SA to be used as a refinement stage like RA.
    time_per_sweep_us:
        Modelled compute time charged per sweep for pipeline accounting.
    """

    name = "simulated-annealing"

    def __init__(
        self,
        num_sweeps: int = 200,
        initial_temperature: Optional[float] = None,
        final_temperature: float = 0.01,
        initial_state: Optional[Sequence[int]] = None,
        time_per_sweep_us: float = 0.1,
    ) -> None:
        if num_sweeps <= 0:
            raise ConfigurationError(f"num_sweeps must be positive, got {num_sweeps}")
        if final_temperature <= 0:
            raise ConfigurationError(
                f"final_temperature must be positive, got {final_temperature}"
            )
        if initial_temperature is not None and initial_temperature <= 0:
            raise ConfigurationError(
                f"initial_temperature must be positive, got {initial_temperature}"
            )
        self.num_sweeps = int(num_sweeps)
        self.initial_temperature = initial_temperature
        self.final_temperature = float(final_temperature)
        self.initial_state = (
            np.asarray(initial_state, dtype=np.int8).copy() if initial_state is not None else None
        )
        self.time_per_sweep_us = float(time_per_sweep_us)

    def _temperature_schedule(self, qubo: QUBOModel) -> np.ndarray:
        start = self.initial_temperature
        if start is None:
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

    def _initial_bits(self, qubo_size: int, child: np.random.Generator) -> np.ndarray:
        if self.initial_state is not None:
            if self.initial_state.size != qubo_size:
                raise ConfigurationError(
                    f"initial_state has {self.initial_state.size} bits, expected {qubo_size}"
                )
            return self.initial_state
        return child.integers(0, 2, size=qubo_size, dtype=np.int8)

    def _anneal_batch(
        self, qubos: List[QUBOModel], children: List[np.random.Generator]
    ) -> List[QuboSolution]:
        batch = len(qubos)
        if batch == 0:
            return []
        sizes = np.array([qubo.num_variables for qubo in qubos], dtype=int)
        max_size = int(sizes.max()) if batch else 0
        temperatures = np.stack(
            [self._temperature_schedule(qubo) for qubo in qubos]
        )  # (B, num_sweeps)

        if max_size == 0:
            return [self._empty_solution(qubo) for qubo in qubos]

        # Ising-space replica state, one read per instance: spins (B, N, 1)
        # with trailing padding lanes frozen at +1 by the kernel mask.
        state = np.ones((batch, max_size, 1))
        padded_fields = np.zeros((batch, max_size))
        symmetric = np.zeros((batch, max_size, max_size))
        mask = np.zeros((batch, max_size), dtype=bool)
        for index, qubo in enumerate(qubos):
            n = int(sizes[index])
            if n == 0:
                continue
            bits = self._initial_bits(n, children[index])
            state[index, :n, 0] = bits.astype(float) * 2.0 - 1.0
            ising = qubo_to_ising(qubo)
            padded_fields[index, :n] = ising.fields
            symmetric[index, :n, :n] = ising.couplings + ising.couplings.T
            mask[index, :n] = True

        local = kernels.initial_local_fields(padded_fields, symmetric, state)
        # Bare Ising energies E = h.s + 1/2 s.J.s = (s.local + s.h) / 2;
        # the kernel advances them exactly and keeps per-read minima.
        energies = 0.5 * (
            np.einsum("bnr,bnr->br", state, local)
            + np.einsum("bnr,bn->br", state, padded_fields)
        )
        best_state = state.copy()
        best_energies = energies.copy()

        settings = [
            (1.0, 0.0, temperatures[:, sweep], 1.0) for sweep in range(self.num_sweeps)
        ]
        # Classical SA runs one read per instance at full activity, so its
        # parallelism comes from the batch axis, not replicas.  Dense MIMO
        # QUBOs oscillate under whole-chunk synchronous flips (strongly
        # coupled pairs flip together on stale fields and never settle), so
        # update one spin per chunk: sequential fixed-order Metropolis, the
        # textbook dynamics, still vectorised across instances.
        kernels.sa_sweeps(
            state,
            local,
            symmetric,
            mask,
            sizes,
            children,
            settings,
            spins_per_step=1,
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
                    compute_time_us=self.time_per_sweep_us * self.num_sweeps,
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
