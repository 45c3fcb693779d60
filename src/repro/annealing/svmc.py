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
SVMC is the annealer's one physics backend: every study samples through it
via :class:`repro.annealing.QuantumAnnealerSimulator`.  It models the
transverse-field mechanism behind the paper's Figure 5 schedules and the
Figure 6/8 reverse-annealing band structure (success over a window of
``s_p``, collapse on both sides).
:meth:`~SpinVectorMonteCarloBackend.run_batch` advances through the
replica-parallel rotor kernels of :mod:`repro.annealing.kernels` — one
array program over ``(batch, spins, reads)`` per sweep — with per-instance
child generators so results are bitwise-identical whatever the batch
grouping, and :meth:`~SpinVectorMonteCarloBackend.run` is that call on a
batch of one (see ``docs/kernels.md``).  :func:`check_sampling_call` holds
the rules every sampling call must meet; the sampler runs it before it
draws anything and ``run_batch`` runs it on a direct call.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.annealing import kernels
from repro.annealing.device import relative_problem, relative_transverse
from repro.annealing.schedule import AnnealSchedule
from repro.exceptions import ConfigurationError
from repro.utils.rng import BatchRandomState, ensure_rng, ensure_rng_batch
from repro.utils.validation import require_positive

__all__ = [
    "SpinVectorMonteCarloBackend",
    "broadcast_initial_spins",
    "check_sampling_call",
    "pad_problem_batch",
    "SCHEDULE_SCALES_CACHE_SIZE",
    "schedule_scales",
]


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


#: Most ``(schedule, steps)`` keys :func:`schedule_scales` keeps.
#: A study sweeps a few dozen schedules at most; the bound only caps memory
#: for a long-lived process that builds schedules without end.
SCHEDULE_SCALES_CACHE_SIZE = 128


@functools.lru_cache(maxsize=SCHEDULE_SCALES_CACHE_SIZE)
def schedule_scales(schedule: AnnealSchedule, num_steps: int) -> np.ndarray:
    """Per-sweep ``(problem, transverse)`` energy scales of a discretised schedule.

    A read-only ``(num_steps, 2)`` array of ``B(s)/B(1)`` and ``A(s)/B(1)``
    at the points of ``schedule.discretise(num_steps)``.  A pure function of
    frozen inputs, so it is memoised: a workload that anneals many small
    batches on one schedule builds it once.  The backend derives its
    temperature and activity rows from it per call, so a changed backend
    attribute never meets a stale entry.
    """
    scales = np.array(
        [
            (relative_problem(float(s)), relative_transverse(float(s)))
            for _, s in schedule.discretise(num_steps)
        ]
    )
    scales.flags.writeable = False
    return scales


def check_sampling_call(
    schedule: AnnealSchedule,
    num_reads: int,
    num_instances: int,
    initial_states: Optional[Sequence[object]],
) -> None:
    """Reject a sampling call that breaks one of its three rules.

    ``num_reads`` must be positive, ``initial_states`` (when given) must hold
    one entry per instance, and a schedule that starts at s = 1 needs a
    state for every instance, empty ones included.  It reads only the
    entries' count and ``None``-ness, so it runs before any conversion or
    draw: the sampler calls it first, and :meth:`run_batch` on a direct call.
    """
    require_positive(num_reads, "num_reads")
    if initial_states is not None and len(initial_states) != num_instances:
        raise ConfigurationError(
            f"{len(initial_states)} initial states supplied for a batch of {num_instances}"
        )
    if schedule.requires_initial_state:
        for index in range(num_instances):
            if initial_states is None or initial_states[index] is None:
                raise ConfigurationError(
                    f"schedule {schedule.name!r} starts at s = 1 and requires an "
                    f"initial state (missing for instance {index})"
                )


def broadcast_initial_spins(
    initial_spins: Optional[np.ndarray], num_reads: int, num_spins: int
) -> Optional[np.ndarray]:
    """Normalise an initial-state specification to shape (num_reads, num_spins).

    Accepts ``None`` (no initial state), a single spin vector shared by every
    read, or a per-read matrix; validates that values are +/-1.
    """
    if initial_spins is None:
        return None
    spins = np.asarray(initial_spins, dtype=np.int8)
    if spins.ndim == 1:
        if spins.size != num_spins:
            raise ConfigurationError(
                f"initial state has {spins.size} spins, expected {num_spins}"
            )
        spins = np.broadcast_to(spins, (num_reads, num_spins))
    elif spins.ndim == 2:
        if spins.shape != (num_reads, num_spins):
            raise ConfigurationError(
                f"initial state has shape {spins.shape}, expected {(num_reads, num_spins)}"
            )
    else:
        raise ConfigurationError("initial state must be a vector or a matrix")
    if not ((spins == 1) | (spins == -1)).all():
        raise ConfigurationError("initial spins must be -1 or +1")
    return spins.copy()


def pad_problem_batch(
    fields: Sequence[np.ndarray], couplings: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack variable-size Ising problems into common-size padded arrays.

    Returns ``(padded_fields, padded_symmetric, sizes)`` where
    ``padded_fields`` has shape ``(B, N_max)``, ``padded_symmetric`` has shape
    ``(B, N_max, N_max)`` and holds ``J + J.T`` per instance, and ``sizes``
    records each instance's true spin count.  Padding lanes carry
    zero fields and couplings, so they can never change the energy of — or the
    dynamics on — real spins.
    """
    if len(fields) != len(couplings):
        raise ConfigurationError(
            f"{len(fields)} field vectors supplied for {len(couplings)} coupling matrices"
        )
    batch = len(fields)
    clean_fields = [np.asarray(vector, dtype=float).ravel() for vector in fields]
    clean_couplings = [np.asarray(matrix, dtype=float) for matrix in couplings]
    sizes = np.array([vector.size for vector in clean_fields], dtype=int)
    for index, (vector, matrix) in enumerate(zip(clean_fields, clean_couplings)):
        if matrix.shape != (vector.size, vector.size):
            raise ConfigurationError(
                f"instance {index}: couplings have shape {matrix.shape}, "
                f"expected {(vector.size, vector.size)}"
            )
    max_size = int(sizes.max()) if batch else 0
    padded_fields = np.zeros((batch, max_size))
    padded_symmetric = np.zeros((batch, max_size, max_size))
    for index, (vector, matrix) in enumerate(zip(clean_fields, clean_couplings)):
        size = vector.size
        padded_fields[index, :size] = vector
        padded_symmetric[index, :size, :size] = matrix + matrix.T
    return padded_fields, padded_symmetric, sizes


class SpinVectorMonteCarloBackend:
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
        require_positive(sweeps_per_microsecond, "sweeps_per_microsecond")
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
        """Run one anneal schedule on ``B`` independent Ising problems.

        ``fields`` / ``couplings`` are per-instance normalised coefficients
        (couplings strictly upper triangular), of any sizes; the batch
        shares ``schedule``, ``num_reads`` and the operating temperature
        ``relative_temperature`` (normalised by B(1)).  ``initial_spins``
        holds one state or ``None`` per instance, each a spin vector shared
        by every read or a ``(num_reads, size)`` matrix; a schedule that
        starts at s = 1 needs one for every instance.  ``rng`` is a root
        seed or one generator per instance.

        All B rotor systems evolve through the shared schedule as one
        replica-parallel array computation (see
        :mod:`repro.annealing.kernels`), padded to a common size, with
        instance ``b`` drawing exclusively from child generator ``b`` — so
        results are independent of how a workload is grouped into batches.
        Returns one ``(num_reads, size)`` array of +/-1 spins per instance.
        """
        batch = len(fields)
        check_sampling_call(schedule, num_reads, batch, initial_spins)
        if batch == 0:
            return []
        children = ensure_rng_batch(rng, batch)
        padded_fields, symmetric, sizes = pad_problem_batch(fields, couplings)
        supplied = [None] * batch if initial_spins is None else initial_spins
        initials = [
            broadcast_initial_spins(state, num_reads, size)
            for state, size in zip(supplied, sizes.tolist())
        ]
        if padded_fields.shape[1] == 0:
            return [np.zeros((num_reads, 0), dtype=np.int8) for _ in fields]
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
