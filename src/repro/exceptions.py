"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so downstream users can catch the whole family with a
single ``except`` clause while still distinguishing configuration mistakes
from runtime solver failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "DimensionError",
    "ModulationError",
    "ScheduleError",
    "SolverError",
    "TransformError",
    "PipelineError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A user-supplied configuration value is invalid or inconsistent."""


class DimensionError(ReproError):
    """Array/matrix dimensions do not match what an operation requires."""


class ModulationError(ReproError):
    """An unknown or unsupported modulation scheme was requested."""


class ScheduleError(ReproError):
    """An annealing schedule is malformed (non-monotone time, s out of range)."""


class SolverError(ReproError):
    """A solver failed to produce a solution for the given problem."""


class TransformError(ReproError):
    """A problem transformation (e.g. MIMO -> QUBO) received invalid input."""


class PipelineError(ReproError):
    """The classical-quantum pipeline simulator was misconfigured."""
