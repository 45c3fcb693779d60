"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so downstream users can catch the whole family with a
single ``except`` clause.  There are two kinds: a bad argument value or
shape, from any entry point, is a :class:`ConfigurationError`; a solver
that cannot produce a solution for a well-formed problem raises
:class:`SolverError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SolverError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """An argument or configuration value is invalid: a bad value, an
    inconsistent combination, or an array of the wrong shape."""


class SolverError(ReproError):
    """A solver failed to produce a solution for the given problem."""
