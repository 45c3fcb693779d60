"""Spin-vector Monte Carlo (SVMC) backend.

SVMC is a widely used classical surrogate for transverse-field quantum
annealing dynamics (Shin et al., and the "spin-vector" models in the quantum
annealing benchmarking literature): each qubit is replaced by a classical
planar rotor with angle ``theta_i``; the transverse field pulls rotors toward
``theta = pi/2`` (the "superposition" direction) with strength A(s) while the
problem Hamiltonian pulls the projections ``cos(theta_i)`` toward the Ising
minimum with strength B(s).  Metropolis updates of the angles at the device
temperature evolve the system along the anneal schedule; at the end of the
schedule each rotor is projected onto a classical spin.

The surrogate reproduces the qualitative behaviour the paper's experiments
depend on: a reverse anneal initialised near the optimum performs a *refined
local search* around it (fluctuations strong enough to repair a few wrong
bits but not strong enough to erase the state), while pushing the switch point
``s_p`` too low erases the initialisation and pushing it too high freezes the
dynamics entirely.

Paper linkage
-------------
SVMC is the higher-fidelity of the two device surrogates and the default
backend of :class:`repro.annealing.QuantumAnnealerSimulator`.  It models the
transverse-field mechanism behind the paper's Figure 5 schedules and the
Figure 6/8 reverse-annealing band structure (success over a window of
``s_p``, collapse on both sides).  Like the schedule-driven backend it
implements the batched engine contract: both entry points advance through
the replica-parallel rotor kernels of :mod:`repro.annealing.kernels` — one
array program over ``(batch, spins, reads)`` per sweep — with per-instance
child generators so batched and sequential results are bitwise-identical
and independent of batch grouping (see ``docs/kernels.md``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.annealing import kernels
from repro.annealing.backend import (
    AnnealingBackend,
    prepare_anneal_batch,
    schedule_scales,
)
from repro.annealing.device import AnnealingFunctions
from repro.annealing.schedule import AnnealSchedule
from repro.exceptions import ConfigurationError
from repro.utils.rng import BatchRandomState, ensure_rng

__all__ = ["SpinVectorMonteCarloBackend"]


class SpinVectorMonteCarloBackend(AnnealingBackend):
    """Schedule-aware spin-vector Monte Carlo.

    Parameters
    ----------
    sweeps_per_microsecond:
        Number of full Metropolis sweeps executed per microsecond of schedule
        time; it controls how thoroughly the rotor system equilibrates at each
        point of the schedule.
    proposal_width:
        Standard deviation (radians) of the Gaussian angle proposals; a full
        uniform re-draw is mixed in with probability ``uniform_fraction``.
    uniform_fraction:
        Probability of proposing an entirely new uniform angle instead of a
        local Gaussian perturbation (helps escape frozen rotors).
    freeze_scale:
        Transverse-field scale (relative to B(1)) below which the single-spin
        dynamics freeze out.  Physical annealers relax only while quantum
        fluctuations are appreciable; once A(s) drops well below the problem
        scale the state is essentially read-only.  Each spin update is
        attempted with probability ``min(1, A(s)/B(1)/freeze_scale)`` (floored
        at ``residual_activity``), which reproduces the hardware behaviour the
        paper's Figure 6 depends on: a reverse anneal from a *random* state
        cannot be rescued by the final ramp, so its samples stay poor.
    residual_activity:
        Floor on the attempt probability, modelling the weak residual thermal
        relaxation near s = 1.
    """

    name = "spin-vector-monte-carlo"

    def __init__(
        self,
        sweeps_per_microsecond: float = 48.0,
        proposal_width: float = 0.6,
        uniform_fraction: float = 0.05,
        freeze_scale: float = 0.15,
        residual_activity: float = 0.02,
    ) -> None:
        if sweeps_per_microsecond <= 0:
            raise ConfigurationError(
                f"sweeps_per_microsecond must be positive, got {sweeps_per_microsecond}"
            )
        if not 0 < proposal_width < np.inf:
            raise ConfigurationError(
                f"proposal_width must be positive and finite, got {proposal_width}"
            )
        if not 0.0 <= uniform_fraction <= 1.0:
            raise ConfigurationError(
                f"uniform_fraction must lie in [0, 1], got {uniform_fraction}"
            )
        if freeze_scale <= 0:
            raise ConfigurationError(f"freeze_scale must be positive, got {freeze_scale}")
        if not 0.0 <= residual_activity <= 1.0:
            raise ConfigurationError(
                f"residual_activity must lie in [0, 1], got {residual_activity}"
            )
        self.sweeps_per_microsecond = float(sweeps_per_microsecond)
        self.proposal_width = float(proposal_width)
        self.uniform_fraction = float(uniform_fraction)
        self.freeze_scale = float(freeze_scale)
        self.residual_activity = float(residual_activity)

    # ------------------------------------------------------------------ #

    def run(
        self,
        fields: np.ndarray,
        couplings: np.ndarray,
        schedule: AnnealSchedule,
        num_reads: int,
        annealing_functions: AnnealingFunctions,
        relative_temperature: float,
        initial_spins: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Run the SVMC dynamics along the schedule; see the backend interface.

        Implemented as a batch of one: the same rotor kernel serves both entry
        points, so a single run is bitwise-identical to the corresponding lane
        of any batched run seeded with the same generator.
        """
        generator = ensure_rng(rng)
        return self.run_batch(
            [np.asarray(fields, dtype=float).ravel()],
            [np.asarray(couplings, dtype=float)],
            schedule,
            num_reads,
            annealing_functions,
            relative_temperature,
            initial_spins=None if initial_spins is None else [initial_spins],
            rng=[generator],
        )[0]

    def _sweep_settings(
        self,
        schedule: AnnealSchedule,
        annealing_functions: AnnealingFunctions,
        relative_temperature: float,
    ) -> List[tuple]:
        """Per-sweep ``(problem, transverse, temperature, activity)`` scalars."""
        temperature = max(relative_temperature, 1e-6)
        num_steps = max(2, int(round(schedule.duration_us * self.sweeps_per_microsecond)))
        settings = []
        scales = schedule_scales(schedule, annealing_functions, num_steps)
        for problem, transverse in scales.tolist():
            # Freeze-out: spin updates only happen while quantum fluctuations
            # remain appreciable relative to the problem scale.
            activity = max(min(1.0, transverse / self.freeze_scale), self.residual_activity)
            settings.append((problem, transverse, temperature, activity))
        return settings

    def run_batch(
        self,
        fields: Sequence[np.ndarray],
        couplings: Sequence[np.ndarray],
        schedule: AnnealSchedule,
        num_reads: int,
        annealing_functions: AnnealingFunctions,
        relative_temperature: float,
        initial_spins: Optional[Sequence[Optional[np.ndarray]]] = None,
        rng: BatchRandomState = None,
    ) -> List[np.ndarray]:
        """Vectorised multi-instance SVMC kernel; see the backend interface.

        All B rotor systems evolve through the shared schedule as one
        replica-parallel array computation (see
        :mod:`repro.annealing.kernels`), padded to a common size, with
        instance ``b`` drawing exclusively from child generator ``b`` — so
        results are independent of how a workload is grouped into batches.
        """
        prepared = prepare_anneal_batch(fields, couplings, schedule, num_reads, initial_spins, rng)
        if prepared is None:
            return [np.zeros((num_reads, 0), dtype=np.int8) for _ in fields]
        children, padded_fields, symmetric, mask, sizes, initials = prepared
        settings = self._sweep_settings(schedule, annealing_functions, relative_temperature)

        # The kernels use the spin-major (batch, spins, reads) layout.
        # Padding rotors sit at theta = 0 (cos 1, sin 0) with zero
        # couplings: they cannot influence real spins and the kernel's mask
        # keeps them frozen.
        batch, max_size = padded_fields.shape
        theta = np.zeros((batch, max_size, num_reads))
        for index in range(batch):
            size = int(sizes[index])
            if size == 0:
                continue
            theta[index, :size] = self._initial_angles(
                initials[index], num_reads, size, children[index]
            ).T
        # Padding rotors at theta = 0 land exactly on cos 1 / sin 0.
        cosines = np.cos(theta)
        sines = np.sin(theta)
        local = kernels.initial_local_fields(padded_fields, symmetric, cosines)
        kernels.svmc_sweeps(
            theta,
            cosines,
            sines,
            local,
            symmetric,
            mask,
            sizes,
            children,
            settings,
            proposal_width=self.proposal_width,
            uniform_fraction=self.uniform_fraction,
        )
        return [
            self._project(cosines[index, : int(sizes[index])].T, children[index])
            for index in range(batch)
        ]

    # ------------------------------------------------------------------ #

    def _initial_angles(
        self,
        initial_spins: Optional[np.ndarray],
        num_reads: int,
        num_spins: int,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """Angles for the start of the schedule.

        Reverse anneals start from the programmed classical state (angles 0 or
        pi); forward anneals start in the fully "quantum" configuration where
        every rotor points along the transverse field (pi/2), plus a tiny
        symmetric jitter so reads decorrelate immediately.
        """
        if initial_spins is not None:
            theta = np.where(initial_spins > 0, 0.0, np.pi).astype(float)
            return theta
        jitter = generator.normal(0.0, 1e-3, size=(num_reads, num_spins))
        return np.full((num_reads, num_spins), np.pi / 2.0) + jitter

    @staticmethod
    def _project(cosines: np.ndarray, generator: np.random.Generator) -> np.ndarray:
        """Project rotor angles onto classical spins at the end of the anneal."""
        spins = np.where(cosines > 0.0, 1, -1).astype(np.int8)
        undecided = np.isclose(cosines, 0.0)
        if np.any(undecided):
            random_spins = generator.choice(
                np.array([-1, 1], dtype=np.int8), size=int(undecided.sum())
            )
            spins[undecided] = random_spins
        return spins
