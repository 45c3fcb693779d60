"""Schedule-driven simulated annealing backend.

A cruder — but faster — surrogate than spin-vector Monte Carlo: the anneal
fraction s is mapped onto an *effective temperature* for single-spin-flip
Metropolis dynamics.  Quantum fluctuations (strength A(s)) are modelled as an
additional thermal contribution, and the problem Hamiltonian is weighted by
B(s), so:

    T_eff(s)  =  relative_temperature + fluctuation_gain * A(s)/B(1)
    accept    =  exp( - B(s)/B(1) * dE / T_eff(s) )

At s = 1 the dynamics are a near-greedy descent at the device temperature; at
s = 0 flips are essentially free and the state randomises; in between the
backend performs a local stochastic search whose radius grows as s decreases —
the same mechanism the paper's reverse-annealing discussion relies on.

Paper linkage
-------------
This backend is the workhorse surrogate behind the paper's evaluation
(Section 4.2, Figures 6-8): the reverse-anneal schedules of Figure 5 map
directly onto its effective-temperature trajectory, and its freeze-out model
reproduces the "too late to repair a random state" behaviour Figure 6's
RA(random) series depends on.  It is also the backend the batched
multi-instance engine (Figure 2's requirement that many channel uses be in
flight at once) is benchmarked on: both entry points execute through the
replica-parallel sweep kernels of :mod:`repro.annealing.kernels` — one array
program over ``(batch, spins, reads)`` per sweep — while drawing each
instance's randomness from its own child generator, so batched and
sequential results are bitwise-identical and independent of batch grouping.
The ``REPRO_KERNEL`` environment variable selects the kernel implementation
(vectorized / numba); see ``docs/kernels.md``.
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

__all__ = ["ScheduleDrivenAnnealingBackend"]


class ScheduleDrivenAnnealingBackend(AnnealingBackend):
    """Single-flip Metropolis dynamics with a schedule-driven temperature.

    Parameters
    ----------
    sweeps_per_microsecond:
        Metropolis sweeps per microsecond of schedule time.
    fluctuation_gain:
        How strongly the transverse-field scale A(s) contributes to the
        effective temperature; larger values make low-s excursions more
        disruptive.
    freeze_scale / residual_activity:
        Freeze-out model shared with the SVMC backend: spin updates are
        attempted with probability ``min(1, A(s)/B(1)/freeze_scale)`` (floored
        at ``residual_activity``), so the dynamics stall once quantum
        fluctuations vanish instead of behaving like an ideal classical
        quench.
    """

    name = "schedule-driven-annealing"

    def __init__(
        self,
        sweeps_per_microsecond: float = 48.0,
        fluctuation_gain: float = 1.0,
        freeze_scale: float = 0.15,
        residual_activity: float = 0.02,
    ) -> None:
        if sweeps_per_microsecond <= 0:
            raise ConfigurationError(
                f"sweeps_per_microsecond must be positive, got {sweeps_per_microsecond}"
            )
        if fluctuation_gain < 0:
            raise ConfigurationError(
                f"fluctuation_gain must be non-negative, got {fluctuation_gain}"
            )
        if freeze_scale <= 0:
            raise ConfigurationError(f"freeze_scale must be positive, got {freeze_scale}")
        if not 0.0 <= residual_activity <= 1.0:
            raise ConfigurationError(
                f"residual_activity must lie in [0, 1], got {residual_activity}"
            )
        self.sweeps_per_microsecond = float(sweeps_per_microsecond)
        self.fluctuation_gain = float(fluctuation_gain)
        self.freeze_scale = float(freeze_scale)
        self.residual_activity = float(residual_activity)

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
        """Run the Metropolis dynamics along the schedule; see the backend interface.

        Implemented as a batch of one: the same sweep kernel serves both entry
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
        base_temperature = max(relative_temperature, 1e-6)
        num_steps = max(2, int(round(schedule.duration_us * self.sweeps_per_microsecond)))
        settings = []
        scales = schedule_scales(schedule, annealing_functions, num_steps)
        for problem, transverse in scales.tolist():
            temperature = base_temperature + self.fluctuation_gain * transverse
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
        """Vectorised multi-instance Metropolis kernel; see the backend interface.

        All B instances advance through the shared schedule as one
        replica-parallel array computation (see
        :mod:`repro.annealing.kernels`): instances are padded to a common
        size with zero fields/couplings and a validity mask, and instance
        ``b`` draws exclusively from child generator ``b``, so results are
        independent of how a workload is grouped into batches.  The sweep
        implementation is selected by the ``REPRO_KERNEL`` environment
        variable.
        """
        prepared = prepare_anneal_batch(fields, couplings, schedule, num_reads, initial_spins, rng)
        if prepared is None:
            return [np.zeros((num_reads, 0), dtype=np.int8) for _ in fields]
        children, padded_fields, symmetric, mask, sizes, initials = prepared
        settings = self._sweep_settings(schedule, annealing_functions, relative_temperature)

        # The kernels use the spin-major (batch, spins, reads) layout.
        # Padding lanes start at +1 and, having zero couplings, never
        # influence real spins; the kernel's mask suppresses their own flips.
        batch, max_size = padded_fields.shape
        state = np.ones((batch, max_size, num_reads))
        for index in range(batch):
            size = int(sizes[index])
            if size == 0:
                continue
            if initials[index] is not None:
                state[index, :size] = initials[index].astype(float).T
            else:
                state[index, :size] = children[index].choice(
                    [-1.0, 1.0], size=(num_reads, size)
                ).T
        local = kernels.initial_local_fields(padded_fields, symmetric, state)
        kernels.sa_sweeps(
            state,
            local,
            symmetric,
            mask,
            sizes,
            children,
            settings,
            implementation=kernels.active_kernel_name(),
        )
        return [
            state[index, : int(sizes[index])].T.astype(np.int8) for index in range(batch)
        ]
