"""Sim-time-aware spans with parent/child nesting and a bounded buffer.

A *span* is one named interval with attributes; an *event* is a
zero-duration point record.  Both carry a ``clock`` tag that says which
timeline their timestamps live on:

``"sim"``
    Simulated microseconds — the discrete-event serving layer records job
    lifecycles (arrival → queue → solve → complete) on the simulation
    clock, so a trace reconstructs *modelled* latency exactly, independent
    of how fast the host machine ran the simulation.
``"wall"``
    Host microseconds from ``time.perf_counter`` — compute work (kernel
    calls, experiment shards) records real elapsed time, the basis of
    "where did the wall time go" breakdowns.

Sim-time spans are recorded after the fact via :meth:`Tracer.record_span`
(the simulator knows a job's whole timeline once it completes); wall-time
spans use the :meth:`Tracer.span` context manager, which maintains a nesting
stack so children automatically point at their enclosing span.

The buffer is bounded: once ``max_records`` spans are held, new records are
counted in :attr:`Tracer.dropped` and discarded (keeping the *earliest*
records preserves parents over orphaned children).  Nothing here touches
any RNG, so tracing can never perturb experiment results.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.exceptions import ConfigurationError
from repro.utils.validation import require_positive

__all__ = ["Span", "Tracer", "CLOCK_SIM", "CLOCK_WALL"]

CLOCK_SIM = "sim"
CLOCK_WALL = "wall"
_CLOCKS = (CLOCK_SIM, CLOCK_WALL)


@dataclass
class Span:
    """One trace record: a named interval (or point event) with attributes."""

    span_id: int
    parent_id: Optional[int]
    name: str
    clock: str
    start_us: float
    end_us: float
    kind: str = "span"  # "span" | "event"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


class Tracer:
    """Collects spans and events into a bounded in-memory buffer."""

    def __init__(self, max_records: int = 200_000) -> None:
        require_positive(max_records, "max_records")
        self.max_records = int(max_records)
        self.records: List[Span] = []
        self.dropped = 0
        self._next_id = 0
        self._stack: List[int] = []

    # ------------------------------------------------------------------ #

    def _admit(self, span: Span) -> Span:
        if len(self.records) >= self.max_records:
            self.dropped += 1
        else:
            self.records.append(span)
        return span

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @staticmethod
    def _check_clock(clock: str) -> None:
        if clock not in _CLOCKS:
            raise ConfigurationError(f"clock must be one of {_CLOCKS}, got {clock!r}")

    # ------------------------------------------------------------------ #

    def record_span(
        self,
        name: str,
        start_us: float,
        end_us: float,
        clock: str = CLOCK_SIM,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Record a completed interval (typically on the simulation clock).

        Returns the new span's id so callers can attach children to it.
        """
        self._check_clock(clock)
        span = Span(
            span_id=self._new_id(),
            parent_id=parent_id,
            name=name,
            clock=clock,
            start_us=float(start_us),
            end_us=float(end_us),
            attrs=attrs,
        )
        self._admit(span)
        return span.span_id

    def event(
        self,
        name: str,
        time_us: Optional[float] = None,
        clock: str = CLOCK_SIM,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Record a zero-duration point event.

        ``time_us`` defaults to the wall clock (and forces ``clock="wall"``)
        when omitted.
        """
        if time_us is None:
            time_us = time.perf_counter() * 1e6
            clock = CLOCK_WALL
        self._check_clock(clock)
        if parent_id is None and clock == CLOCK_WALL and self._stack:
            parent_id = self._stack[-1]
        span = Span(
            span_id=self._new_id(),
            parent_id=parent_id,
            name=name,
            clock=clock,
            start_us=float(time_us),
            end_us=float(time_us),
            kind="event",
            attrs=attrs,
        )
        self._admit(span)
        return span.span_id

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """A wall-clock span covering the ``with`` body, nested automatically.

        The yielded :class:`Span` is live: the body may add attributes
        (``span.attrs["batch"] = n``) and they are kept in the record.
        """
        record = Span(
            span_id=self._new_id(),
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            clock=CLOCK_WALL,
            start_us=time.perf_counter() * 1e6,
            end_us=0.0,
            attrs=attrs,
        )
        # Admitted on entry (end_us patched at exit) so parents always precede
        # their children in the buffer — a full buffer then drops whole
        # subtrees rather than orphaning children.
        self._admit(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end_us = time.perf_counter() * 1e6

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.records)
