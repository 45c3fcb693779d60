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
SVMC is the device surrogate behind every study and the default backend of
:class:`repro.annealing.QuantumAnnealerSimulator`.  It models the
transverse-field mechanism behind the paper's Figure 5 schedules and the
Figure 6/8 reverse-annealing band structure (success over a window of
``s_p``, collapse on both sides).  It implements the batched engine
contract: :meth:`~SpinVectorMonteCarloBackend.run_batch` advances through
the replica-parallel rotor kernels of :mod:`repro.annealing.kernels` — one
array program over ``(batch, spins, reads)`` per sweep — with per-instance
child generators so results are bitwise-identical whatever the batch
grouping, and :meth:`~SpinVectorMonteCarloBackend.run` is that call on a
batch of one (see ``docs/kernels.md``).
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
from repro.annealing.schedule import AnnealSchedule
from repro.exceptions import ConfigurationError
from repro.utils.rng import BatchRandomState, ensure_rng

__all__ = ["SpinVectorMonteCarloBackend"]


#: Standard deviation (radians) of the Gaussian angle proposals.
_PROPOSAL_WIDTH = 0.6
#: Probability of proposing an entirely new uniform angle instead of a local
#: Gaussian perturbation (helps escape frozen rotors).
_UNIFORM_FRACTION = 0.05
#: Transverse-field scale (relative to B(1)) below which the single-spin
#: dynamics freeze out.  Physical annealers relax only while quantum
#: fluctuations are appreciable; once A(s) drops well below the problem scale
#: the state is essentially read-only.  Each spin update is attempted with
#: probability ``min(1, A(s)/B(1)/_FREEZE_SCALE)`` (floored at
#: ``_RESIDUAL_ACTIVITY``), which reproduces the hardware behaviour the
#: paper's Figure 6 depends on: a reverse anneal from a *random* state cannot
#: be rescued by the final ramp, so its samples stay poor.
_FREEZE_SCALE = 0.15
#: Floor on the attempt probability, modelling the weak residual thermal
#: relaxation near s = 1.
_RESIDUAL_ACTIVITY = 0.02


class SpinVectorMonteCarloBackend(AnnealingBackend):
    """Schedule-aware spin-vector Monte Carlo.

    Angle proposals are Gaussian with a small uniform re-draw mix, and spin
    updates freeze out as the transverse field fades; the proposal width,
    mix and freeze-out scales are module constants.

    Parameters
    ----------
    sweeps_per_microsecond:
        Number of full Metropolis sweeps executed per microsecond of schedule
        time; it controls how thoroughly the rotor system equilibrates at each
        point of the schedule.
    """

    name = "spin-vector-monte-carlo"

    def __init__(self, sweeps_per_microsecond: float = 48.0) -> None:
        if sweeps_per_microsecond <= 0:
            raise ConfigurationError(
                f"sweeps_per_microsecond must be positive, got {sweeps_per_microsecond}"
            )
        self.sweeps_per_microsecond = float(sweeps_per_microsecond)

    # ------------------------------------------------------------------ #

    def run(
        self,
        fields: np.ndarray,
        couplings: np.ndarray,
        schedule: AnnealSchedule,
        num_reads: int,
        relative_temperature: float,
        initial_spins: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Run ``num_reads`` anneals of one Ising problem: :meth:`run_batch` at B = 1.

        ``fields``/``couplings`` are one instance's normalised coefficients
        and ``initial_spins`` its optional initial state; returns the
        ``(num_reads, num_spins)`` final spins, bitwise-identical to the
        corresponding lane of any batched run seeded with the same generator.
        """
        generator = ensure_rng(rng)
        return self.run_batch(
            [np.asarray(fields, dtype=float).ravel()],
            [np.asarray(couplings, dtype=float)],
            schedule,
            num_reads,
            relative_temperature,
            initial_spins=None if initial_spins is None else [initial_spins],
            rng=[generator],
        )[0]

    def _sweep_settings(
        self,
        schedule: AnnealSchedule,
        relative_temperature: float,
    ) -> List[tuple]:
        """Per-sweep ``(problem, transverse, temperature, activity)`` scalars."""
        temperature = max(relative_temperature, 1e-6)
        num_steps = max(2, int(round(schedule.duration_us * self.sweeps_per_microsecond)))
        settings = []
        scales = schedule_scales(schedule, num_steps)
        for problem, transverse in scales.tolist():
            # Freeze-out: spin updates only happen while quantum fluctuations
            # remain appreciable relative to the problem scale.
            activity = max(min(1.0, transverse / _FREEZE_SCALE), _RESIDUAL_ACTIVITY)
            settings.append((problem, transverse, temperature, activity))
        return settings

    def run_batch(
        self,
        fields: Sequence[np.ndarray],
        couplings: Sequence[np.ndarray],
        schedule: AnnealSchedule,
        num_reads: int,
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
        children, padded_fields, symmetric, sizes, initials = prepared
        settings = self._sweep_settings(schedule, relative_temperature)

        # The kernels use the spin-major (batch, spins, reads) layout.
        # Padding rotors sit at theta = 0 (cos 1, sin 0) with zero
        # couplings: they cannot influence real spins, and their zero accept
        # thresholds keep them frozen.
        theta = self._initial_angles(initials, num_reads, sizes, children)
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
            sizes,
            children,
            settings,
            proposal_width=_PROPOSAL_WIDTH,
            uniform_fraction=_UNIFORM_FRACTION,
        )
        return self._project(cosines, sizes, children)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _initial_angles(
        initials: Sequence[Optional[np.ndarray]],
        num_reads: int,
        sizes: np.ndarray,
        children: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Spin-major ``(batch, max_size, reads)`` angles for the start of the schedule.

        Reverse anneals start from the programmed classical state (angles 0 or
        pi), set for the whole batch by one ``where`` over the stacked
        states; forward anneals start in the fully "quantum" configuration
        where every rotor points along the transverse field (pi/2), plus a
        tiny symmetric jitter, drawn from the instance's child, so reads
        decorrelate immediately.  Padding rotors sit at 0.
        """
        batch = len(initials)
        stacked = np.ones((batch, int(sizes.max()), num_reads), dtype=np.int8)
        forward = []
        for index, (initial, size) in enumerate(zip(initials, sizes.tolist())):
            if initial is not None:
                stacked[index, :size] = initial.T
            elif size:
                forward.append((index, size))
        theta = np.where(stacked > 0, 0.0, np.pi)
        for index, size in forward:
            jitter = children[index].normal(0.0, 1e-3, size=(num_reads, size))
            theta[index, :size] = (np.full((num_reads, size), np.pi / 2.0) + jitter).T
        return theta

    @staticmethod
    def _project(
        cosines: np.ndarray, sizes: np.ndarray, children: Sequence[np.random.Generator]
    ) -> List[np.ndarray]:
        """Project the rotors onto classical spins at the end of the anneal.

        One sign test and one ``isclose`` run on the whole batch block
        (padding cosines are 1, never undecided).  An undecided rotor takes
        a random spin from its instance's child, drawn in (read, spin)
        order.  Each instance gets the ``(reads, size)`` transposed view of
        its rows.
        """
        spins = np.where(cosines > 0.0, 1, -1).astype(np.int8)
        undecided = np.isclose(cosines, 0.0)
        views = [spins[index, :size].T for index, size in enumerate(sizes.tolist())]
        for index in np.flatnonzero(undecided.any(axis=(1, 2))).tolist():
            mask = undecided[index, : int(sizes[index])].T
            views[index][mask] = children[index].choice(
                np.array([-1, 1], dtype=np.int8), size=int(mask.sum())
            )
        return views
