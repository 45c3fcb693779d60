"""Argument validation helpers used throughout the public API.

Every bad argument, from any entry point, raises
:class:`repro.exceptions.ConfigurationError` (rather than a bare
``ValueError``), so applications can tell "the caller configured the
library wrong" from genuine solver failures.  Each rule has one
implementation here; the comparisons are written so that NaN fails them.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "require",
    "require_positive",
    "require_positive_fields",
    "require_non_negative",
    "require_open_unit",
    "require_binary",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` if condition fails."""
    if not condition:
        raise ConfigurationError(message)


def require_positive(value: Any, name: str) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


def require_positive_fields(config: Any, *names: str) -> None:
    """Require ``config.<name> > 0`` for every named field."""
    for name in names:
        require_positive(getattr(config, name), name)


def require_non_negative(value: Any, name: str) -> None:
    """Require ``value >= 0``."""
    if not value >= 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")


def require_open_unit(value: Any, name: str) -> None:
    """Require ``0 < value < 1`` (a switch, pause or turning point s)."""
    if not 0.0 < value < 1.0:
        raise ConfigurationError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def require_binary(values: Any, name: str) -> None:
    """Require every entry of ``values`` (a scalar or an array) to be 0 or 1."""
    array = np.asarray(values)
    bad = (array != 0) & (array != 1)
    if bad.any():
        raise ConfigurationError(f"{name} must be 0 or 1, got {array[bad].tolist()[0]!r}")
