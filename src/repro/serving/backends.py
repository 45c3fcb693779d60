"""Processing backends of the RAN serving plant.

The paper's hybrid plant mixes *quantum* processing units (reverse-annealing
hardware fed through the batched engine) with *classical* processing units
(software solvers that are slower per unit of solution quality but always
available and deadline-predictable).  Each backend exposes two faces to the
serving simulator:

* a **timing model** — :meth:`ServingBackend.service_time_us` maps a batch of
  jobs to the wall-clock the backend occupies a worker for, used by the
  discrete-event scheduler; and
* a **solution path** — :meth:`ServingBackend.solve` actually computes
  detection solutions through the batched kernels, consuming one child
  generator per job so results never depend on how the scheduler happened to
  group jobs into batches.

The annealer backend models multi-instance tiling: the device processes up to
``lanes`` same-shape instances side by side per anneal shot sequence, which is
where batching buys throughput (the batched `run_batch` kernels are the
software counterpart).  The classical backend is a sequential software solver
whose service time is linear in the submitted problem volume.

Layering note: the annealer backend solves through
:class:`repro.hybrid.solver.HybridQuboSolver`, and the hybrid pipeline
simulator imports :mod:`repro.serving.events`.  This module therefore imports
the :mod:`repro.hybrid.solver` module, never the :mod:`repro.hybrid` package
root, and ``repro.hybrid.solver`` must not import :mod:`repro.serving`; with
that, ``import repro.hybrid`` and ``import repro.serving`` each work first.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.classical.simulated_annealing import SimulatedAnnealingSolver
from repro.hybrid.solver import HybridQuboSolver
from repro.transform.mimo_to_qubo import is_optimum, mimo_to_qubo
from repro.serving.workload import ServingJob
from repro.utils.validation import require_positive

__all__ = [
    "JobSolution",
    "ServingBackend",
    "AnnealerServingBackend",
    "ClassicalServingBackend",
]

#: Programming/IO overhead an annealer worker pays once per submitted batch.
_PROGRAMMING_OVERHEAD_US = 5.0
#: Modelled classical initialisation cost per QUBO variable, charged per job.
_INIT_TIME_PER_VARIABLE_US = 0.01


@dataclass(frozen=True)
class JobSolution:
    """Detection outcome of one job when solutions are evaluated.

    ``detected_optimum`` is only available for noiseless transmissions,
    where the transmitted vector is the exact ML solution (the paper's
    evaluation protocol).
    """

    job_id: int
    best_energy: float
    detected_optimum: Optional[bool]


def _solution(job: ServingJob, encoding, best_energy: float) -> JobSolution:
    ground = encoding.noiseless_ground_energy(job.channel_use.transmission)
    return JobSolution(
        job_id=job.job_id,
        best_energy=float(best_energy),
        detected_optimum=is_optimum(best_energy, ground),
    )


class ServingBackend(abc.ABC):
    """One processing unit type the backend pool can instantiate workers of."""

    #: Human-readable backend name used in reports.
    name: str = "serving-backend"

    #: ``"annealer"`` or ``"classical"`` — drives scheduling/demotion policy.
    kind: str = "annealer"

    @abc.abstractmethod
    def service_time_us(self, jobs: Sequence[ServingJob]) -> float:
        """Modelled wall-clock the backend needs to process ``jobs`` as one batch.

        Must be a pure timing query: a deterministic function of the
        :attr:`~repro.serving.workload.ServingJob.shape_key` of each job in
        the batch, with no side effects.  The simulator relies on this — it
        times one solo job per shape once per run and reuses the answer for
        every queued job of that shape in every admission and autoscaling
        pressure query.
        """

    @abc.abstractmethod
    def solve(
        self, jobs: Sequence[ServingJob], children: Sequence[np.random.Generator]
    ) -> List[JobSolution]:
        """Compute detection solutions for ``jobs`` (child ``b`` serves job ``b``)."""


class AnnealerServingBackend(ServingBackend):
    """A reverse-annealing QPU worker fed through the batched engine.

    Parameters
    ----------
    sampler:
        Annealer simulator executing the reads (shared between workers is
        fine: all randomness flows through per-job child generators).
    num_reads:
        Reverse-annealing reads; each anneal is seeded by the paper's
        Greedy Search, turns back at s_p = 0.41 and pauses for 1 us.
    lanes:
        Multi-instance tiling capacity: how many same-shape instances the
        device processes side by side per shot sequence.  A batch of ``B``
        jobs costs ``ceil(B / lanes)`` shot sequences.

    A shot sequence costs pure anneal time (no per-read readout or delay).
    Each batch is charged a programming/IO overhead of 5 us, and each job a
    modelled initialisation cost of 0.01 us per QUBO variable (decoupled from
    wall-clock measurements so the timing model is deterministic).
    """

    kind = "annealer"
    name = "annealer"

    def __init__(
        self,
        sampler: Optional[QuantumAnnealerSimulator] = None,
        num_reads: int = 50,
        lanes: int = 8,
    ) -> None:
        self.solver = HybridQuboSolver(sampler=sampler, num_reads=num_reads)
        require_positive(lanes, "lanes")
        self.lanes = int(lanes)

    @property
    def shot_time_us(self) -> float:
        """Wall-clock of one full read sequence (all ``num_reads`` anneals)."""
        return self.solver.schedule.duration_us * self.solver.num_reads

    def service_time_us(self, jobs: Sequence[ServingJob]) -> float:
        """Batch service time: programming + init + tiled shot sequences."""
        if not jobs:
            return 0.0
        init_us = _INIT_TIME_PER_VARIABLE_US * sum(job.num_variables for job in jobs)
        sequences = math.ceil(len(jobs) / self.lanes)
        return _PROGRAMMING_OVERHEAD_US + init_us + sequences * self.shot_time_us

    def solve(
        self, jobs: Sequence[ServingJob], children: Sequence[np.random.Generator]
    ) -> List[JobSolution]:
        """Initialise and reverse-anneal the batch through the hybrid solver."""
        encodings = [mimo_to_qubo(job.channel_use.transmission.instance) for job in jobs]
        results = self.solver.solve_batch([encoding.qubo for encoding in encodings], list(children))
        return [
            _solution(job, encoding, result.best_energy)
            for job, encoding, result in zip(jobs, encodings, results)
        ]


class ClassicalServingBackend(ServingBackend):
    """A classical-fallback worker running a software QUBO solver.

    Deadline-pressured jobs are demoted here by admission control: the solver
    (60-sweep simulated annealing) is fast and predictable but offers no
    quantum refinement.  Service time is sequential and linear in submitted
    problem volume.
    """

    kind = "classical"
    name = "classical"

    def __init__(self, time_per_variable_us: float = 0.2) -> None:
        require_positive(time_per_variable_us, "time_per_variable_us")
        self.solver = SimulatedAnnealingSolver(num_sweeps=60)
        self.time_per_variable_us = float(time_per_variable_us)

    def service_time_us(self, jobs: Sequence[ServingJob]) -> float:
        """Sequential software solve: cost accumulates across the batch."""
        return self.time_per_variable_us * sum(job.num_variables for job in jobs)

    def solve(
        self, jobs: Sequence[ServingJob], children: Sequence[np.random.Generator]
    ) -> List[JobSolution]:
        """Solve the batch with the wrapped software solver."""
        encodings = [mimo_to_qubo(job.channel_use.transmission.instance) for job in jobs]
        qubos = [encoding.qubo for encoding in encodings]
        results = self.solver.solve_batch(qubos, list(children))
        return [
            _solution(job, encoding, result.energy)
            for job, encoding, result in zip(jobs, encodings, results)
        ]
