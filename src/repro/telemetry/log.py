"""Structured logging for the library: one configuration entry point.

Replaces the ad-hoc ``print``/``warnings`` progress output scattered through
the experiment drivers with loggers that render ``event key=value ...``
lines.  Verbosity maps onto the CLI flags:

====================  =========  =============================
verbosity argument    CLI        effective level
====================  =========  =============================
``-1``                ``-q``     ERROR (only failures)
``0`` (default)       (none)     WARNING
``1``                 ``-v``     INFO (per-study progress)
``2`` or more         ``-vv``    DEBUG (per-shard / per-point)
====================  =========  =============================

Handlers attach to the ``"repro"`` root logger only; library imports never
configure logging on their own (no side effects at import time), so embedding
applications keep full control until :func:`configure_logging` is called.
"""

from __future__ import annotations

import logging
from typing import Any

__all__ = ["configure_logging", "get_logger", "StructuredLogger", "ROOT_LOGGER_NAME"]

ROOT_LOGGER_NAME = "repro"

_LEVELS = {
    -1: logging.ERROR,
    0: logging.WARNING,
    1: logging.INFO,
    2: logging.DEBUG,
}


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    return f'"{text}"' if " " in text else text


class StructuredLogger:
    """A thin wrapper rendering ``event key=value ...`` log lines.

    Keeps stdlib ``logging`` underneath (level filtering, handler routing,
    ``caplog`` in tests) while giving call sites a structured surface:
    ``log.info("shard.done", key=shard.key, seconds=1.25)``.
    """

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    @staticmethod
    def _render(event: str, fields: dict) -> str:
        if not fields:
            return event
        rendered = " ".join(f"{key}={_format_value(value)}" for key, value in fields.items())
        return f"{event} {rendered}"

    def debug(self, event: str, **fields: Any) -> None:
        if self._logger.isEnabledFor(logging.DEBUG):
            self._logger.debug(self._render(event, fields))

    def info(self, event: str, **fields: Any) -> None:
        if self._logger.isEnabledFor(logging.INFO):
            self._logger.info(self._render(event, fields))

    def warning(self, event: str, **fields: Any) -> None:
        if self._logger.isEnabledFor(logging.WARNING):
            self._logger.warning(self._render(event, fields))

    def error(self, event: str, **fields: Any) -> None:
        if self._logger.isEnabledFor(logging.ERROR):
            self._logger.error(self._render(event, fields))

    @property
    def raw(self) -> logging.Logger:
        """The underlying stdlib logger (for tests and handler surgery)."""
        return self._logger


def get_logger(name: str) -> StructuredLogger:
    """A structured logger under the ``repro`` hierarchy.

    ``name`` may be a module ``__name__`` (already rooted at ``repro``) or a
    bare suffix like ``"cache"``.
    """
    if name != ROOT_LOGGER_NAME and not name.startswith(ROOT_LOGGER_NAME + "."):
        name = f"{ROOT_LOGGER_NAME}.{name}"
    return StructuredLogger(logging.getLogger(name))


def configure_logging(verbosity: int = 0) -> None:
    """Install (or reconfigure) the library's log handler, writing to stderr.

    Idempotent: repeated calls replace the handler installed by earlier
    calls rather than stacking duplicates.  Only the ``repro`` root logger
    is touched.
    """
    level = _LEVELS.get(max(-1, min(2, int(verbosity))), logging.WARNING)
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_telemetry_handler", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler()
    handler._repro_telemetry_handler = True
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(level)
    # Without this, records would also bubble to the (possibly pytest-owned)
    # global root logger and print twice.
    root.propagate = False
