"""Argument validation helpers used throughout the public API.

Raising :class:`repro.exceptions.ConfigurationError` (rather than a bare
``ValueError``) lets applications distinguish "the caller configured the
library wrong" from genuine numerical or solver failures.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import ConfigurationError

__all__ = [
    "require",
    "require_positive",
    "require_positive_fields",
    "require_non_negative",
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
