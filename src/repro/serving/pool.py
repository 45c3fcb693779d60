"""The heterogeneous backend pool: workers wrapping serving backends.

A :class:`BackendPool` holds K workers, each binding one
:class:`~repro.serving.backends.ServingBackend` to one
:class:`~repro.serving.events.FifoServer`.  Several workers may share a
backend object (K identical QPUs); the pool only cares about each worker's
availability timeline and per-worker statistics.  Workers are dispatched in
index order, which keeps simulation runs deterministic.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.exceptions import ConfigurationError
from repro.serving.backends import (
    AnnealerServingBackend,
    ClassicalServingBackend,
    ServingBackend,
)
from repro.serving.events import FifoServer

__all__ = ["Worker", "BackendPool", "build_pool"]


class Worker:
    """One schedulable processing unit: a backend plus its availability timeline.

    ``active`` and ``available_from_us`` support elastic pools (see
    :class:`repro.serving.autoscale.ElasticBackendPool`): a parked worker
    (``active=False``) never receives work, and a freshly activated worker is
    warming up until ``available_from_us``.  Static pools leave both at their
    defaults (always active, available from t=0).  A worker can accept a
    batch at ``now`` when it is active and both ``available_from_us`` and its
    server's ``free_at_us`` lie within
    :data:`~repro.serving.events.TIME_EPS` of ``now`` or before; the serving
    simulator keeps that readiness in a table it refreshes as workers change.
    """

    __slots__ = (
        "backend",
        "index",
        "server",
        "batches",
        "batch_sizes",
        "active",
        "available_from_us",
    )

    def __init__(self, backend: ServingBackend, index: int) -> None:
        self.backend = backend
        self.index = index
        self.server = FifoServer()
        self.batches = 0
        self.batch_sizes: List[int] = []
        self.active = True
        self.available_from_us = 0.0

    @property
    def name(self) -> str:
        """Unique worker name: ``<backend>#<index>``."""
        return f"{self.backend.name}#{self.index}"

    @property
    def kind(self) -> str:
        """The worker's backend kind (``annealer`` or ``classical``)."""
        return self.backend.kind

    def record_batch(self, size: int) -> None:
        """Track one dispatched batch for occupancy statistics."""
        self.batches += 1
        self.batch_sizes.append(size)

    def reset(self) -> None:
        """Fresh timeline and statistics (used between simulation runs)."""
        self.server = FifoServer()
        self.batches = 0
        self.batch_sizes = []
        self.active = True
        self.available_from_us = 0.0


class BackendPool:
    """An ordered collection of workers the scheduler dispatches onto."""

    def __init__(self, backends: Sequence[ServingBackend]) -> None:
        if not backends:
            raise ConfigurationError("the backend pool must contain at least one backend")
        self.workers = [Worker(backend, index) for index, backend in enumerate(backends)]

    @property
    def annealer_workers(self) -> List[Worker]:
        """Workers backed by annealer (quantum) processing units."""
        return [worker for worker in self.workers if worker.kind == "annealer"]

    @property
    def classical_workers(self) -> List[Worker]:
        """Workers backed by classical-fallback processing units."""
        return [worker for worker in self.workers if worker.kind == "classical"]

    @property
    def active_annealer_workers(self) -> List[Worker]:
        """Annealer workers currently part of the schedulable pool.

        In a static pool this is every annealer worker; an elastic pool
        excludes parked workers (warming workers count as active — they are
        committed capacity, just not dispatchable yet).
        """
        return [worker for worker in self.annealer_workers if worker.active]

    def reset(self) -> None:
        """Clear every worker's timeline and statistics between runs."""
        for worker in self.workers:
            worker.reset()


def build_pool() -> BackendPool:
    """The default pool: two annealer workers and one classical fallback.

    Both annealer workers share one backend object (identical devices).
    """
    return BackendPool([AnnealerServingBackend()] * 2 + [ClassicalServingBackend()])
