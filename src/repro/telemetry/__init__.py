"""In-process telemetry: metrics registry, sim-time tracing, exporters.

The subsystem is dependency-free (stdlib only) and built around one
invariant: **instrumentation can never change results**.  Recording a span
or bumping a counter touches no RNG and no experiment float arithmetic, so
every golden-regression and kernel-equivalence test passes bitwise-identically
with telemetry enabled or disabled.

Disabled is the default and costs almost nothing: there is no session object
at all (``active()`` returns ``None``) and every instrumented call site is
guarded::

    tel = telemetry.active()
    if tel is not None:
        tel.registry.counter("repro_jobs_total").inc()

Enable for a run with :func:`enable` / :func:`disable`, or scoped (the form
tests use) with the :func:`session` context manager::

    with telemetry.session() as tel:
        report = simulator.run(jobs)
        assert any(span.name == "serving.job" for span in tel.tracer.records)

The CLI wires this up via ``--telemetry[=DIR]``, exporting the trace
(JSONL), a Prometheus metrics snapshot, and a human-readable summary at
process exit; see ``docs/telemetry.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.telemetry.registry import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_LATENCY_BUCKETS_US,
)
from repro.telemetry.tracing import CLOCK_SIM, CLOCK_WALL, Span, Tracer  # noqa: F401

__all__ = [
    "TelemetrySession",
    "active",
    "enable",
    "disable",
    "session",
    "emit_progress",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "CLOCK_SIM",
    "CLOCK_WALL",
    "DEFAULT_LATENCY_BUCKETS_US",
]


class TelemetrySession:
    """One enabled telemetry scope: a registry, a tracer, and run numbering.

    ``next_run_index()`` hands out a deterministic, monotonically increasing
    index to each instrumented simulator/driver run so trace consumers can
    tell runs apart without any timestamp or RNG involvement.
    """

    __slots__ = ("registry", "tracer", "_run_counter")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self._run_counter = 0

    def next_run_index(self) -> int:
        index = self._run_counter
        self._run_counter += 1
        return index


#: The process-wide session, or ``None`` when telemetry is disabled.
_session: Optional[TelemetrySession] = None


def active() -> Optional[TelemetrySession]:
    """The enabled session, or ``None`` — THE guard every call site checks.

    Kept deliberately trivial (one global read) so that disabled-mode
    overhead is a single attribute lookup and ``is None`` test per
    instrumented operation.
    """
    return _session


def enable() -> TelemetrySession:
    """Turn telemetry on process-wide; returns the (possibly existing) session.

    Idempotent: enabling while already enabled keeps the current session and
    its accumulated data.
    """
    global _session
    if _session is None:
        _session = TelemetrySession()
    return _session


def disable() -> Optional[TelemetrySession]:
    """Turn telemetry off; returns the final session (for late export), if any."""
    global _session
    final, _session = _session, None
    return final


def emit_progress(experiment: str, point: object, **attrs: object) -> None:
    """Record one ``experiment.point`` progress event (no-op when disabled).

    The one-line guard every experiment driver uses to mark a completed
    sweep point without repeating the ``active()`` dance.
    """
    tel = active()
    if tel is not None:
        tel.tracer.event("experiment.point", experiment=experiment, point=str(point), **attrs)


@contextmanager
def session() -> Iterator[TelemetrySession]:
    """Scoped enablement: telemetry is on inside the ``with``, restored after.

    If a session is already active it is reused (and left active on exit),
    so nesting composes; otherwise a fresh session is created and torn down.
    """
    global _session
    created = _session is None
    tel = enable()
    try:
        yield tel
    finally:
        if created:
            _session = None
