"""Backend interface of the annealing simulator's physics surrogate.

A backend executes one anneal *schedule* on a batch of (normalised) Ising
problems for a number of independent reads and returns the final spin
configurations.  The library ships one:
:class:`repro.annealing.svmc.SpinVectorMonteCarloBackend`, which models each
qubit as a classical O(2) spin angle driven by the transverse-field and
problem energy scales A(s), B(s).

It captures the mechanism the paper's experiments rely on: at s = 1 the state
is frozen, at s = 0 it is randomised, and at intermediate s the device
performs a local stochastic search around its current state.
"""

from __future__ import annotations

import abc
import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.annealing.device import relative_problem, relative_transverse
from repro.annealing.schedule import AnnealSchedule
from repro.exceptions import ConfigurationError
from repro.utils.rng import BatchRandomState, ensure_rng_batch

__all__ = [
    "AnnealingBackend",
    "broadcast_initial_spins",
    "pad_problem_batch",
    "prepare_anneal_batch",
    "SCHEDULE_SCALES_CACHE_SIZE",
    "schedule_scales",
]

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
    batches on one schedule builds it once.  The backends derive their
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


def prepare_anneal_batch(
    fields: Sequence[np.ndarray],
    couplings: Sequence[np.ndarray],
    schedule: AnnealSchedule,
    num_reads: int,
    initial_spins: Optional[Sequence[Optional[np.ndarray]]],
    rng: BatchRandomState,
) -> Optional[tuple]:
    """The validating front end of a kernel backend's ``run_batch``.

    Validates the read count and the initial states (a schedule that starts
    at s = 1 needs one for every non-empty instance), spawns the per-instance
    child generators and pads the problems.  Returns ``(children,
    padded_fields, padded_symmetric, sizes, initials)`` — the padded
    arrays as from :func:`pad_problem_batch`, ``initials`` one
    ``(num_reads, size)`` state or ``None`` per instance — or ``None`` when
    the batch holds no spins at all, in which case every instance's result
    is an empty ``(num_reads, 0)`` spin array.
    """
    if num_reads <= 0:
        raise ConfigurationError(f"num_reads must be positive, got {num_reads}")
    batch = len(fields)
    if initial_spins is not None and len(initial_spins) != batch:
        raise ConfigurationError(
            f"{len(initial_spins)} initial states supplied for a batch of {batch}"
        )
    if batch == 0:
        return None
    children = ensure_rng_batch(rng, batch)
    padded_fields, symmetric, sizes = pad_problem_batch(fields, couplings)

    initials: List[Optional[np.ndarray]] = []
    for index in range(batch):
        supplied = None if initial_spins is None else initial_spins[index]
        initial = broadcast_initial_spins(supplied, num_reads, int(sizes[index]))
        if schedule.requires_initial_state and initial is None and sizes[index] > 0:
            raise ConfigurationError(
                f"schedule {schedule.name!r} starts at s = 1 and requires an "
                f"initial state (missing for instance {index})"
            )
        initials.append(initial)

    if padded_fields.shape[1] == 0:
        return None
    return children, padded_fields, symmetric, sizes, initials


class AnnealingBackend(abc.ABC):
    """Executes anneal schedules on normalised Ising problems."""

    #: Backend label recorded in sample-set metadata.
    name: str = "backend"

    @abc.abstractmethod
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

        The batch shares a schedule and temperature; each
        instance keeps its own size, coefficients and (optional) initial
        state.  Instance ``b`` draws exclusively from per-instance child
        generator ``b`` (see :func:`repro.utils.rng.ensure_rng_batch`), so
        results do not depend on how instances are grouped into batches.
        :func:`prepare_anneal_batch` is the shared validating front end.

        Parameters
        ----------
        fields, couplings:
            Per-instance normalised Ising coefficients (couplings strictly
            upper triangular); instances may have different sizes (they are
            padded internally by batched kernels).
        schedule:
            The anneal schedule to follow.
        num_reads:
            Number of independent anneals per instance.
        relative_temperature:
            Operating temperature normalised by B(1).
        initial_spins:
            Optional per-instance initial states (``None`` entries allowed for
            forward schedules), each one vector shared by all reads or a
            per-read matrix; required when the schedule starts at s = 1
            (reverse annealing).
        rng:
            A root seed (spawned into one child per instance) or an explicit
            sequence of per-instance generators.

        Returns
        -------
        list of numpy.ndarray
            One ``(num_reads, num_spins_b)`` array of +/-1 spins per instance.
        """
