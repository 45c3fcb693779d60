"""Quantum annealing simulator substrate.

The paper prototypes on a D-Wave 2000Q analog quantum annealer.  Real quantum
hardware is not available to this library, so — per the substitution note in
DESIGN.md — this package provides a *software* annealer with the same
programming surface:

* :mod:`repro.annealing.schedule` — the FA / RA / FR anneal schedules of paper
  Section 4.1, expressed as piecewise-linear ``[time (us), s]`` waypoints.
* :mod:`repro.annealing.sampleset` — Ocean-SDK-style sample containers.
* :mod:`repro.annealing.topology` — the Chimera hardware graph of the 2000Q.
* :mod:`repro.annealing.embedding` — clique minor-embedding, chain strength,
  and chain-break resolution.
* :mod:`repro.annealing.device` — device timing constants, control-error
  (ICE-like) noise, and annealing energy scales A(s)/B(s).
* :mod:`repro.annealing.kernels` — the replica-parallel Metropolis sweep
  kernels shared by both backends and the classical SA solver.
* :mod:`repro.annealing.svmc` — a schedule-aware spin-vector Monte Carlo
  backend (the default physics surrogate).
* :mod:`repro.annealing.sa_backend` — a schedule-driven simulated annealing
  backend (a faster, cruder surrogate).
* :mod:`repro.annealing.sampler` — the :class:`QuantumAnnealerSimulator`
  front-end that ties schedules, device model and backends together.
"""

from repro.annealing.schedule import (
    AnnealSchedule,
    SchedulePoint,
    forward_anneal_schedule,
    reverse_anneal_schedule,
    forward_reverse_anneal_schedule,
)
from repro.annealing.sampleset import SampleRecord, SampleSet
from repro.annealing.topology import chimera_graph, ChimeraCoordinates
from repro.annealing.embedding import (
    Embedding,
    find_clique_embedding,
    embed_ising,
    unembed_sampleset,
    resolve_chain_breaks,
)
from repro.annealing.device import DeviceModel, AnnealingFunctions
from repro.annealing.backend import AnnealingBackend, pad_problem_batch
from repro.annealing.svmc import SpinVectorMonteCarloBackend
from repro.annealing.sa_backend import ScheduleDrivenAnnealingBackend
from repro.annealing.sampler import QuantumAnnealerSimulator

__all__ = [
    "AnnealSchedule",
    "SchedulePoint",
    "forward_anneal_schedule",
    "reverse_anneal_schedule",
    "forward_reverse_anneal_schedule",
    "SampleRecord",
    "SampleSet",
    "chimera_graph",
    "ChimeraCoordinates",
    "Embedding",
    "find_clique_embedding",
    "embed_ising",
    "unembed_sampleset",
    "resolve_chain_breaks",
    "DeviceModel",
    "AnnealingFunctions",
    "AnnealingBackend",
    "pad_problem_batch",
    "SpinVectorMonteCarloBackend",
    "ScheduleDrivenAnnealingBackend",
    "QuantumAnnealerSimulator",
]
