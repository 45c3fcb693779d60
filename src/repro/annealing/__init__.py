"""Quantum annealing simulator substrate.

The paper prototypes on a D-Wave 2000Q analog quantum annealer.  Real quantum
hardware is not available to this library, so this package provides a
*software* annealer with the same programming surface:

* :mod:`repro.annealing.schedule` — the FA / RA / FR anneal schedules of paper
  Section 4.1, expressed as piecewise-linear ``[time (us), s]`` waypoints.
* :mod:`repro.annealing.sampleset` — Ocean-SDK-style sample containers.
* :mod:`repro.annealing.device` — device timing constants, control-error
  (ICE-like) noise, and annealing energy scales A(s)/B(s).
* :mod:`repro.annealing.kernels` — the replica-parallel sweep kernels of the
  SVMC backend and the classical SA solver.
* :mod:`repro.annealing.svmc` — a schedule-aware spin-vector Monte Carlo
  backend, the physics surrogate every study samples through.
* :mod:`repro.annealing.sampler` — the :class:`QuantumAnnealerSimulator`
  front-end that ties schedules, device model and backend together.
"""

from repro.annealing.schedule import (
    AnnealSchedule,
    SchedulePoint,
    forward_anneal_schedule,
    reverse_anneal_schedule,
    forward_reverse_anneal_schedule,
)
from repro.annealing.sampleset import SampleRecord, SampleSet
from repro.annealing.device import DeviceModel, AnnealingFunctions
from repro.annealing.backend import AnnealingBackend, pad_problem_batch
from repro.annealing.svmc import SpinVectorMonteCarloBackend
from repro.annealing.sampler import QuantumAnnealerSimulator

__all__ = [
    "AnnealSchedule",
    "SchedulePoint",
    "forward_anneal_schedule",
    "reverse_anneal_schedule",
    "forward_reverse_anneal_schedule",
    "SampleRecord",
    "SampleSet",
    "DeviceModel",
    "AnnealingFunctions",
    "AnnealingBackend",
    "pad_problem_batch",
    "SpinVectorMonteCarloBackend",
    "QuantumAnnealerSimulator",
]
