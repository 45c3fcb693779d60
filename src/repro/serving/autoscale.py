"""Adaptive worker-pool autoscaling for the RAN serving plant.

Time-varying scenarios (:mod:`repro.serving.scenarios`) make a statically
sized backend pool the wrong answer at every instant: provisioned for the
flash-crowd peak it idles all day, provisioned for the average it melts
during the spike.  This module adds the missing control loop:

* :class:`ElasticBackendPool` — a :class:`~repro.serving.pool.BackendPool`
  whose annealer workers can be *parked* and *activated* at simulation time.
  A newly activated worker warms up for a configurable latency (device
  programming, calibration) before it becomes dispatchable, modelling the
  fact that capacity cannot appear instantaneously.
* :class:`AutoscaleController` — a periodic controller (driven by autoscale
  events on the serving simulator's event queue) that observes queue depth
  per active worker and deadline-miss pressure, and scales the active worker
  count up or down between configured bounds, with a cooldown between
  actions.

Every decision is a deterministic function of simulation state, so
autoscaled runs inherit the serving layer's exact reproducibility.
The control loop and its parameters are documented in ``docs/scenarios.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.serving.backends import (
    AnnealerServingBackend,
    ClassicalServingBackend,
    ServingBackend,
)
from repro.serving.pool import BackendPool, Worker
from repro.serving.workload import ServingJob
from repro.utils.validation import require_non_negative, require_positive

__all__ = [
    "AutoscaleConfig",
    "AutoscaleEvent",
    "ElasticBackendPool",
    "AutoscaleController",
]

#: Scale up when queued jobs per active annealer worker exceed this.
_SCALE_UP_QUEUE_PER_WORKER = 3.0

#: Scale up when more than this fraction of queued deadline-carrying jobs
#: would already miss their deadline on the best annealer.
_PRESSURE_FRACTION = 0.1


@dataclass(frozen=True)
class AutoscaleConfig:
    """Tuning knobs of the autoscaling control loop.

    Attributes
    ----------
    interval_us:
        Control-loop period: how often the controller observes the system.
    warmup_us:
        Latency before a newly activated worker becomes dispatchable.
    min_workers / max_workers:
        Bounds on the active annealer worker count.  ``max_workers=None``
        means "every annealer worker the elastic pool holds".
    scale_down_queue_per_worker:
        Scale down when queued jobs per active annealer worker fall below
        this (and no job is deadline-pressured); it must lie below the
        scale-up threshold of 3 queued jobs per worker.
    cooldown_us:
        Minimum simulated time between two scaling actions, preventing
        thrash around a threshold.
    """

    interval_us: float = 250.0
    warmup_us: float = 500.0
    min_workers: int = 1
    max_workers: Optional[int] = None
    scale_down_queue_per_worker: float = 0.5
    cooldown_us: float = 500.0

    def __post_init__(self) -> None:
        require_positive(self.interval_us, "interval_us")
        require_non_negative(self.warmup_us, "warmup_us")
        if self.min_workers < 1:
            raise ConfigurationError(
                f"min_workers must be at least 1, got {self.min_workers}"
            )
        if self.max_workers is not None and self.max_workers < self.min_workers:
            raise ConfigurationError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})"
            )
        if self.scale_down_queue_per_worker >= _SCALE_UP_QUEUE_PER_WORKER:
            raise ConfigurationError(
                "scale_down_queue_per_worker must lie below the scale-up threshold "
                f"{_SCALE_UP_QUEUE_PER_WORKER}, got {self.scale_down_queue_per_worker}"
            )
        require_non_negative(self.scale_down_queue_per_worker, "scale_down_queue_per_worker")
        require_non_negative(self.cooldown_us, "cooldown_us")


@dataclass(frozen=True)
class AutoscaleEvent:
    """One scaling action taken by the controller."""

    time_us: float
    action: str  # "scale-up" or "scale-down"
    worker: str
    active_after: int
    queue_depth: int
    reason: str


class ElasticBackendPool(BackendPool):
    """A backend pool whose annealer worker count flexes at simulation time.

    The pool is built with ``max_annealer_workers`` annealer workers (all
    sharing one backend object — identical devices) plus the classical
    fallbacks; workers beyond ``initial_annealer_workers`` start *parked*
    and are activated/parked by the :class:`AutoscaleController`.
    """

    def __init__(
        self,
        annealer: Optional[AnnealerServingBackend] = None,
        max_annealer_workers: int = 4,
        initial_annealer_workers: int = 1,
        num_classical_workers: int = 1,
    ) -> None:
        if max_annealer_workers < 1:
            raise ConfigurationError(
                f"max_annealer_workers must be at least 1, got {max_annealer_workers}"
            )
        if not 1 <= initial_annealer_workers <= max_annealer_workers:
            raise ConfigurationError(
                f"initial_annealer_workers must lie in [1, {max_annealer_workers}], "
                f"got {initial_annealer_workers}"
            )
        require_non_negative(num_classical_workers, "num_classical_workers")
        annealer_backend = annealer if annealer is not None else AnnealerServingBackend()
        backends: List[ServingBackend] = [annealer_backend] * max_annealer_workers
        if num_classical_workers:
            backends.extend([ClassicalServingBackend()] * num_classical_workers)
        super().__init__(backends)
        self.max_annealer_workers = int(max_annealer_workers)
        self.initial_annealer_workers = int(initial_annealer_workers)
        self._park_to_initial()

    def _park_to_initial(self) -> None:
        for position, worker in enumerate(self.annealer_workers):
            worker.active = position < self.initial_annealer_workers
            worker.available_from_us = 0.0

    def reset(self) -> None:
        """Fresh timelines and the initial active-worker layout."""
        super().reset()
        self._park_to_initial()

    @property
    def active_annealer_count(self) -> int:
        """Number of active (including warming) annealer workers."""
        return len(self.active_annealer_workers)

    @property
    def parked_annealer_workers(self) -> List[Worker]:
        """Annealer workers currently outside the schedulable pool."""
        return [worker for worker in self.annealer_workers if not worker.active]

    def activate_worker(self, now_us: float, warmup_us: float) -> Optional[Worker]:
        """Activate the lowest-index parked worker; dispatchable after warm-up."""
        parked = self.parked_annealer_workers
        if not parked:
            return None
        worker = parked[0]
        worker.active = True
        worker.available_from_us = now_us + warmup_us
        return worker

    def deactivate_worker(self, now_us: float) -> Optional[Worker]:
        """Park the *idlest* active annealer worker; never one that is busy.

        A worker whose server frees up in the future (``free_at_us`` beyond
        ``now_us``) is mid-batch: parking it would silently strand its
        in-flight work, so busy workers are never candidates.  Among the
        idle workers the one idle longest (smallest ``free_at_us``, ties
        broken toward the highest index for determinism) is parked — it is
        the least likely to be warm-path capacity.  If every active worker
        is occupied the scale-down is skipped and the controller retries on
        a later tick.
        """
        idle = [
            worker
            for worker in self.active_annealer_workers
            if worker.server.idle_at(now_us)
        ]
        if not idle:
            return None
        worker = min(idle, key=lambda candidate: (candidate.server.free_at_us, -candidate.index))
        worker.active = False
        return worker


class AutoscaleController:
    """The periodic scale-up/scale-down decision loop.

    The serving simulator schedules an autoscale event every
    ``config.interval_us`` and hands the controller the current queue and
    pool; the controller observes two signals —

    * **queue depth per active annealer worker** (backlog), and
    * **deadline pressure**: the fraction of queued deadline-carrying jobs
      that would miss even if served next on the best annealer —

    and activates or parks one worker per tick within
    ``[min_workers, max_workers]``, honouring the cooldown.  Scaling events
    are recorded for reporting, and :meth:`average_active_workers` yields
    the time-weighted mean active worker count (the basis of the
    equal-average-capacity comparison in ``benchmarks/bench_scenarios.py``).
    """

    def __init__(self, config: Optional[AutoscaleConfig] = None) -> None:
        self.config = config if config is not None else AutoscaleConfig()
        self.events: List[AutoscaleEvent] = []
        self._trace: List[Tuple[float, int]] = []
        self._last_action_us = -float("inf")

    def reset(self) -> None:
        """Clear recorded events and the active-count trace between runs."""
        self.events = []
        self._trace = []
        self._last_action_us = -float("inf")

    def begin(self, start_us: float, pool: ElasticBackendPool) -> None:
        """Record the initial active-worker count at the start of a run."""
        if not isinstance(pool, ElasticBackendPool):
            raise ConfigurationError(
                "AutoscaleController requires an ElasticBackendPool, got "
                f"{type(pool).__name__}"
            )
        self._trace = [(start_us, pool.active_annealer_count)]

    def step(
        self,
        now_us: float,
        queue: Sequence[ServingJob],
        pool: ElasticBackendPool,
        pressured_count: int,
    ) -> Optional[AutoscaleEvent]:
        """Observe the system at ``now_us`` and take at most one scaling action."""
        config = self.config
        active = pool.active_annealer_count
        ceiling = pool.max_annealer_workers
        if config.max_workers is not None:
            ceiling = min(ceiling, config.max_workers)
        depth = len(queue)
        per_worker = depth / max(active, 1)
        deadline_jobs = sum(1 for job in queue if job.deadline_us is not None)
        pressure = pressured_count / deadline_jobs if deadline_jobs else 0.0
        if now_us - self._last_action_us < config.cooldown_us - 1e-9:
            return None

        event: Optional[AutoscaleEvent] = None
        if active < ceiling and (
            per_worker > _SCALE_UP_QUEUE_PER_WORKER or pressure > _PRESSURE_FRACTION
        ):
            worker = pool.activate_worker(now_us, config.warmup_us)
            if worker is not None:
                if pressure > _PRESSURE_FRACTION:
                    reason = "deadline-pressure"
                else:
                    reason = "queue-depth"
                event = AutoscaleEvent(
                    time_us=now_us,
                    action="scale-up",
                    worker=worker.name,
                    active_after=pool.active_annealer_count,
                    queue_depth=depth,
                    reason=reason,
                )
        elif (
            active > config.min_workers
            and pressured_count == 0
            and per_worker < config.scale_down_queue_per_worker
        ):
            worker = pool.deactivate_worker(now_us)
            if worker is not None:
                event = AutoscaleEvent(
                    time_us=now_us,
                    action="scale-down",
                    worker=worker.name,
                    active_after=pool.active_annealer_count,
                    queue_depth=depth,
                    reason="idle",
                )

        if event is not None:
            self.events.append(event)
            self._trace.append((event.time_us, event.active_after))
            self._last_action_us = now_us
        return event

    def average_active_workers(self, end_us: float) -> float:
        """Time-weighted mean active annealer workers over ``[start, end_us]``."""
        if not self._trace:
            raise ConfigurationError(
                "no trace recorded; run a simulation with this controller first"
            )
        start_us = self._trace[0][0]
        if end_us <= start_us:
            return float(self._trace[0][1])
        weighted = 0.0
        boundaries = list(self._trace[1:]) + [(end_us, 0)]
        for (time_us, active), (next_us, _) in zip(self._trace, boundaries):
            span = min(next_us, end_us) - time_us
            if span > 0:
                weighted += span * active
        return weighted / (end_us - start_us)
