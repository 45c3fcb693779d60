"""Discrete-event primitives shared by the serving and pipeline simulators.

Both simulators in this library model processing resources as FIFO servers:
a job that becomes ready at time ``t`` on a server that frees up at time
``f`` starts at ``max(t, f)`` and occupies the server for its service time.
:class:`FifoServer` packages that advance rule (plus busy-time accounting for
utilisation reports) so the Figure-2 pipeline simulator and the RAN serving
simulator share one implementation instead of each re-deriving the
``start = max(arrival, free_at)`` arithmetic.

:class:`EventQueue` is a deterministic time-ordered event heap for
simulations whose control flow is event-driven rather than trace-ordered
(the serving simulator reacts to job arrivals and worker-free events in
timestamp order).  Ties are broken by insertion order, so simulation runs
are exactly reproducible.

:data:`TIME_EPS` is the one tolerance of simulation-time comparisons: a
server, worker or event within it of ``now`` counts as due at ``now``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.exceptions import ConfigurationError

__all__ = ["StageTiming", "FifoServer", "EventQueue"]

#: Tolerance (us) of simulation-time comparisons: a server free at most this
#: long after ``now`` is idle at ``now``, and the serving simulator handles
#: events this close together as one group.
TIME_EPS = 1e-12


@dataclass(frozen=True)
class StageTiming:
    """When one processing stage started and finished serving a job."""

    start_us: float
    finish_us: float

    @property
    def service_us(self) -> float:
        """Service duration of the stage."""
        return self.finish_us - self.start_us


class FifoServer:
    """A single work-conserving FIFO server.

    Tracks when the server next becomes free and how much cumulative busy
    time it has accrued; :meth:`serve` applies the canonical discrete-event
    advance rule and returns the resulting :class:`StageTiming`.
    """

    __slots__ = ("free_at_us", "busy_us", "jobs_served")

    def __init__(self) -> None:
        self.free_at_us = 0.0
        self.busy_us = 0.0
        self.jobs_served = 0

    def serve(self, ready_us: float, service_us: float) -> StageTiming:
        """Occupy the server for ``service_us`` starting no earlier than ``ready_us``."""
        if service_us < 0:  # per dispatched batch: kept inline
            raise ConfigurationError(f"service_us must be non-negative, got {service_us}")
        start = max(ready_us, self.free_at_us)
        finish = start + service_us
        self.free_at_us = finish
        self.busy_us += service_us
        self.jobs_served += 1
        return StageTiming(start_us=start, finish_us=finish)

    def idle_at(self, now_us: float) -> bool:
        """Whether the server is free at (or before) ``now_us``."""
        return self.free_at_us <= now_us + TIME_EPS

    def utilization(self, makespan_us: float) -> float:
        """Busy time as a fraction of the observation window."""
        return self.busy_us / max(makespan_us, 1e-12)


class EventQueue:
    """A time-ordered event heap with deterministic FIFO tie-breaking.

    Events are arbitrary payloads pushed with a timestamp; :meth:`pop`
    returns them in non-decreasing time order, and events that share a
    timestamp come back in insertion order (the payloads themselves are
    never compared, so they need not be orderable).  :attr:`earliest_us` is
    the earliest scheduled timestamp, ``inf`` while the queue is empty.
    """

    __slots__ = ("_heap", "_sequence", "earliest_us")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        self._sequence = 0
        self.earliest_us = math.inf

    def push(self, time_us: float, payload: Any) -> None:
        """Schedule ``payload`` at ``time_us``.

        ``time_us`` must be finite and non-negative: a NaN timestamp
        compares false against everything and silently corrupts the heap
        invariant (events then pop in arbitrary order), and negative or
        infinite times have no meaning on the simulation clock.
        """
        time_us = float(time_us)
        if not math.isfinite(time_us) or time_us < 0.0:
            raise ConfigurationError(
                f"event timestamps must be finite and non-negative, got {time_us}"
            )
        heapq.heappush(self._heap, (time_us, self._sequence, payload))
        self._sequence += 1
        if time_us < self.earliest_us:
            self.earliest_us = time_us

    def pop(self) -> Tuple[float, Any]:
        """Remove and return the earliest ``(time_us, payload)`` pair."""
        heap = self._heap
        if not heap:
            raise IndexError("pop from an empty EventQueue")
        time_us, _, payload = heapq.heappop(heap)
        self.earliest_us = heap[0][0] if heap else math.inf
        return time_us, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
