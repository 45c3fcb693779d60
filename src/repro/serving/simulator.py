"""The deadline-aware RAN serving simulator.

This is the Figure-2 "centralised RAN" layer: timestamped detection jobs from
many users stream into a plant of heterogeneous workers (annealer QPUs plus
classical fallbacks), a deadline-aware policy (EDF or FIFO) picks what runs
next, compatible jobs are coalesced into batches for the batched kernels, and
admission control demotes jobs that would blow their turnaround deadline
waiting for an annealer onto the fast classical path.

The simulation is event-driven (arrivals and worker-free events through
:class:`~repro.serving.events.EventQueue`) and work-conserving: no worker
idles while an eligible job is queued.  Batch occupancy therefore adapts to
load — light traffic is served solo with minimal latency, heavy traffic
queues and rides the batched engine's throughput.

Reproducibility follows the library-wide child-generator discipline: when
solutions are evaluated, job ``j`` draws exclusively from child generator
``j`` (keyed by job id).  For a fixed job-to-backend assignment — an
annealer-only pool, or admission control disabled — detection outcomes are
therefore identical for every batch ceiling and scheduling order; only the
*timing* changes.  With admission control enabled, scheduling decides
*which backend* serves a deadline-pressured job, so the demoted set (and
those jobs' solutions) legitimately responds to timing knobs.  Every run is
exactly reproducible from its seeds either way, and jobs that miss their
deadline are counted in the report, never dropped.

Deadline pressure — the admission and autoscaling signal — is answered from
an incremental :class:`_PressureIndex` rather than by re-timing every queued
job on every annealer at every query (see ``docs/serving.md``).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.network.topology import NetworkTopology
from repro.serving.autoscale import AutoscaleController, ElasticBackendPool
from repro.serving.events import EventQueue
from repro.serving.pool import BackendPool, Worker, build_pool
from repro.serving.qos import DEFAULT_CLASS, ServiceClass
from repro.serving.report import (
    BackendUtilization,
    JobOutcome,
    ServingReport,
    build_serving_report,
)
from repro.serving.scheduler import EdfPolicy, SchedulingPolicy, resolve_policy, select_batch
from repro.serving.workload import ServingJob
from repro.utils.rng import BatchRandomState, ensure_rng_batch

__all__ = ["RANServingSimulator"]

_ARRIVAL = "arrival"
_WORKER_FREE = "worker-free"
_AUTOSCALE = "autoscale"
_WARMUP_DONE = "warmup-done"
_TIME_EPS = 1e-12


def _service_class_of(job: ServingJob) -> ServiceClass:
    """The job's service class; duck-typed jobs default to the legacy class."""
    return getattr(job, "service_class", DEFAULT_CLASS)


def _deadline_order(job: ServingJob) -> Tuple[float, int]:
    return (job.deadline_us, job.job_id)


def _slack_deadline(job: ServingJob) -> float:
    return job.deadline_us + 1e-9


class _PressureIndex:
    """Queued deadline-carrying jobs, grouped for O(groups) pressure queries.

    A queued job is *deadline-pressured* at ``now`` when even its best solo
    completion over the active annealer workers,
    ``min(max(now, free_at_us, available_from_us) + solo_us)``, lands after
    its deadline — waiting for an annealer already blows it.

    Each job's solo service time on every annealer worker is computed once,
    when it joins the queue; that tuple is its *service profile*.  Jobs
    sharing a profile live in one list ordered by ``(deadline_us, job_id)``,
    so a query computes one best completion per profile and the pressured
    jobs are the list prefix whose deadlines fall short of it.  This relies
    on :meth:`~repro.serving.backends.ServingBackend.service_time_us` being a
    pure function of the batch.
    """

    def __init__(self, annealer_workers: Sequence[Worker]) -> None:
        self._workers = list(annealer_workers)
        self._groups: Dict[Tuple[float, ...], List[ServingJob]] = {}
        self._profile_of: Dict[int, Tuple[float, ...]] = {}

    def add(self, job: ServingJob) -> None:
        """Index a newly queued job; deadline-free jobs are never pressured."""
        if job.deadline_us is None:
            return
        profile = tuple(worker.backend.service_time_us([job]) for worker in self._workers)
        self._profile_of[job.job_id] = profile
        bisect.insort(self._groups.setdefault(profile, []), job, key=_deadline_order)

    def discard(self, jobs: Sequence[ServingJob]) -> None:
        """Drop dispatched jobs from the index."""
        for job in jobs:
            profile = self._profile_of.pop(job.job_id, None)
            if profile is None:
                continue
            group = self._groups[profile]
            del group[bisect.bisect_left(group, _deadline_order(job), key=_deadline_order)]

    def pressured(self, now: float) -> List[ServingJob]:
        """Every indexed job whose deadline is already blown at ``now``.

        Parked workers are no capacity; warming workers count from the moment
        they become dispatchable.  With no active annealer at all, every
        deadline-carrying job is pressured.
        """
        starts = [
            (position, max(now, worker.server.free_at_us, worker.available_from_us))
            for position, worker in enumerate(self._workers)
            if worker.active
        ]
        if not starts:
            return [job for group in self._groups.values() for job in group]
        pressured: List[ServingJob] = []
        for profile, group in self._groups.items():
            completion = min(start + profile[position] for position, start in starts)
            pressured.extend(group[: bisect.bisect_left(group, completion, key=_slack_deadline)])
        return pressured


class RANServingSimulator:
    """Discrete-event simulation of the multi-user hybrid serving plant.

    Parameters
    ----------
    pool:
        The worker pool; defaults to :func:`repro.serving.pool.build_pool`'s
        two annealer workers plus one classical fallback.
    policy:
        ``"edf"``, ``"fifo"`` or a :class:`SchedulingPolicy` instance.
    max_batch_size:
        Ceiling on coalesced batch size (``None`` = unbounded; the annealer's
        lane count still bounds how much a large batch helps).
    admission_control:
        When true, a queued job whose deadline would be missed even if it were
        served *next* on the earliest-free annealer is eligible for demotion
        to an idle classical worker.  When false, classical workers serve only
        if the pool contains no annealers at all.
    evaluate_solutions:
        When true each dispatched batch is actually solved through the
        batched kernels (slower; enables quality metrics).  When false only
        the timing model runs — the mode for long load sweeps.
    autoscaler:
        Optional :class:`~repro.serving.autoscale.AutoscaleController`.
        Requires ``pool`` to be an
        :class:`~repro.serving.autoscale.ElasticBackendPool`; the simulator
        then schedules periodic autoscale events on the event queue and the
        controller flexes the active annealer worker count from observed
        queue depth and deadline pressure.
    topology:
        Optional :class:`~repro.network.topology.NetworkTopology` the
        workload's cells live on.  Job cell ids are validated against it,
        it is recorded in the report metadata.  Omitting it changes nothing
        about the simulation.
    class_aware:
        When true (default) scheduling honours service classes: EDF order
        is prefixed by class priority, batches never cross the degradation
        boundary, and admission control follows the class ladder — only
        *demotable* pressured jobs move to the classical path, and
        *sheddable* lower classes may be offloaded pre-emptively to relieve
        a pressured higher class.  With a single-default-class workload all
        of this collapses to the legacy behaviour bitwise.  ``False``
        forces the legacy class-blind semantics even on multi-class
        workloads (the "classless baseline" arm of the QoS study).
    """

    def __init__(
        self,
        pool: Optional[BackendPool] = None,
        policy: Union[str, SchedulingPolicy] = "edf",
        max_batch_size: Optional[int] = 16,
        admission_control: bool = True,
        evaluate_solutions: bool = False,
        autoscaler: Optional[AutoscaleController] = None,
        topology: Optional[NetworkTopology] = None,
        class_aware: bool = True,
    ) -> None:
        if max_batch_size is not None and max_batch_size <= 0:
            raise ConfigurationError(
                f"max_batch_size must be positive or None, got {max_batch_size}"
            )
        self.pool = pool if pool is not None else build_pool()
        self.policy = resolve_policy(policy)
        self.class_aware = bool(class_aware)
        if not self.class_aware and isinstance(self.policy, EdfPolicy):
            self.policy = EdfPolicy(class_aware=False)
        self.max_batch_size = max_batch_size
        self.admission_control = bool(admission_control)
        self.evaluate_solutions = bool(evaluate_solutions)
        if autoscaler is not None and not isinstance(self.pool, ElasticBackendPool):
            raise ConfigurationError(
                "an autoscaler requires an ElasticBackendPool, got "
                f"{type(self.pool).__name__}"
            )
        self.autoscaler = autoscaler
        self.topology = topology
        self._pressure: Optional[_PressureIndex] = None

    # ------------------------------------------------------------------ #

    def run(self, jobs: Sequence[ServingJob], rng: BatchRandomState = None) -> ServingReport:
        """Serve a workload and return the aggregate :class:`ServingReport`."""
        if not jobs:
            raise ConfigurationError("jobs must not be empty")
        ordered = sorted(jobs, key=lambda job: (job.arrival_us, job.job_id))
        ids = [job.job_id for job in ordered]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("jobs must carry unique job_ids")
        if self.topology is not None:
            for job in ordered:
                if not 0 <= job.cell_id < self.topology.num_cells:
                    raise ConfigurationError(
                        f"job {job.job_id} sits in cell {job.cell_id}, outside the "
                        f"topology's {self.topology.num_cells}-cell layout"
                    )
        # One lookup per run; job-lifecycle spans are emitted post-hoc from
        # the outcomes, so the event loop below carries no per-job telemetry
        # cost and disabled mode is equivalent to the uninstrumented loop.
        tel = telemetry.active()

        # Child generator j belongs to job j (keyed by sorted job id), so
        # solutions are independent of batching and scheduling order.
        child_of: Dict[int, np.random.Generator] = {}
        if self.evaluate_solutions:
            children = ensure_rng_batch(rng, len(ordered))
            for job_id, child in zip(sorted(ids), children):
                child_of[job_id] = child

        self._reset_pool()
        # Pressure is only ever queried by admission control over a mixed
        # pool or by the autoscaler; other runs never time solo jobs.
        pool = self.pool
        self._pressure = None
        if self.autoscaler is not None or (
            self.admission_control and pool.annealer_workers and pool.classical_workers
        ):
            self._pressure = _PressureIndex(pool.annealer_workers)
        events = EventQueue()
        for job in ordered:
            events.push(job.arrival_us, (_ARRIVAL, job))
        if self.autoscaler is not None:
            self.autoscaler.reset()
            start_us = ordered[0].arrival_us
            self.autoscaler.begin(start_us, self.pool)
            events.push(start_us + self.autoscaler.config.interval_us, (_AUTOSCALE, None))

        queue: List[ServingJob] = []
        outcomes: List[JobOutcome] = []
        arrivals_remaining = len(ordered)
        while events:
            now, payload = events.pop()
            pending = [payload]
            while events and events.peek_time() <= now + _TIME_EPS:
                pending.append(events.pop()[1])
            autoscale_tick = False
            for kind, item in pending:
                if kind == _ARRIVAL:
                    queue.append(item)
                    if self._pressure is not None:
                        self._pressure.add(item)
                    arrivals_remaining -= 1
                elif kind == _AUTOSCALE:
                    autoscale_tick = True
            if autoscale_tick and self.autoscaler is not None:
                pressured = len(self._pressured_jobs(queue, now))
                action = self.autoscaler.step(now, queue, self.pool, pressured)
                if tel is not None:
                    active = self.pool.active_annealer_count
                    tel.registry.gauge("repro_serving_queue_depth").set(len(queue))
                    tel.registry.gauge("repro_serving_deadline_pressure").set(pressured)
                    tel.registry.gauge("repro_serving_active_annealers").set(active)
                    tel.tracer.event(
                        "serving.autoscale",
                        time_us=now,
                        clock=telemetry.CLOCK_SIM,
                        queue_depth=len(queue),
                        pressured=pressured,
                        active_annealers=active,
                        action=action.action if action is not None else "hold",
                    )
                if action is not None and action.action == "scale-up":
                    # Wake the dispatcher the instant the warm-up completes;
                    # otherwise the new worker could idle until the next
                    # arrival/tick while pressured jobs queue.
                    events.push(
                        now + self.autoscaler.config.warmup_us, (_WARMUP_DONE, None)
                    )
                # Keep ticking while load can still arrive or is still queued;
                # once both dry up, the remaining worker-free events just
                # drain in-flight batches and no scaling decision is needed.
                if queue or arrivals_remaining:
                    events.push(now + self.autoscaler.config.interval_us, (_AUTOSCALE, None))
            self._dispatch(now, queue, events, outcomes, child_of)

        if queue:  # pragma: no cover - defensive; dispatch drains every queue
            raise ConfigurationError(f"{len(queue)} jobs were never scheduled")

        outcomes.sort(key=lambda outcome: outcome.job_id)
        metadata = {
            "max_batch_size": self.max_batch_size,
            "admission_control": self.admission_control,
            "evaluate_solutions": self.evaluate_solutions,
            "class_aware": self.class_aware,
            "num_annealer_workers": len(self.pool.annealer_workers),
            "num_classical_workers": len(self.pool.classical_workers),
        }
        if self.topology is not None:
            metadata["topology_kind"] = self.topology.kind
            metadata["num_cells"] = self.topology.num_cells
        if self.autoscaler is not None:
            end_us = max(outcome.finish_us for outcome in outcomes)
            metadata.update(
                {
                    "autoscale_events": len(self.autoscaler.events),
                    "autoscale_average_active": self.autoscaler.average_active_workers(
                        end_us
                    ),
                    "autoscale_final_active": self.pool.active_annealer_count,
                }
            )
        report = build_serving_report(
            outcomes,
            policy=self.policy.name,
            backend_utilization=self._utilization(outcomes),
            metadata=metadata,
        )
        if tel is not None:
            _emit_serving_telemetry(tel, report)
        return report

    # ------------------------------------------------------------------ #

    def _reset_pool(self) -> None:
        """Clear worker timelines so consecutive runs are independent."""
        self.pool.reset()

    def _dispatch(
        self,
        now: float,
        queue: List[ServingJob],
        events: EventQueue,
        outcomes: List[JobOutcome],
        child_of: Dict[int, np.random.Generator],
    ) -> None:
        """Work-conserving dispatch of queued jobs onto idle workers at ``now``."""
        has_annealers = bool(self.pool.annealer_workers)
        progress = True
        while progress and queue:
            progress = False
            for worker in self.pool.idle_workers(now, kind="annealer"):
                if not queue:
                    break
                batch = select_batch(
                    queue,
                    self.policy,
                    self.max_batch_size,
                    class_aware=self.class_aware,
                )
                if batch:
                    self._serve(worker, batch, now, events, outcomes, child_of, demoted=False)
                    progress = True
            for worker in self.pool.idle_workers(now, kind="classical"):
                if not queue:
                    break
                if has_annealers and not self.admission_control:
                    break  # fallbacks only activate through admission control
                candidates = (
                    self._degradation_candidates(queue, now) if has_annealers else queue
                )
                if not candidates:
                    continue
                batch = select_batch(
                    queue,
                    self.policy,
                    self.max_batch_size,
                    candidates,
                    class_aware=self.class_aware,
                )
                if batch:
                    self._serve(
                        worker, batch, now, events, outcomes, child_of, demoted=has_annealers
                    )
                    progress = True

    def _degradation_candidates(
        self, queue: List[ServingJob], now: float
    ) -> List[ServingJob]:
        """Jobs eligible for the classical fallback at ``now``.

        Class-blind mode (and the single-default-class identity case, where
        every job is demotable and none sheddable) reduces to the legacy
        rule: every deadline-pressured job.  Class-aware mode follows the
        degradation ladder instead — pressured jobs move only if their class
        is *demotable*, and queued jobs of a *sheddable* class strictly below
        the most critical pressured class may be offloaded pre-emptively to
        free annealer capacity for it.
        """
        pressured = self._pressured_jobs(queue, now)
        if not self.class_aware:
            return pressured
        demotable = [job for job in pressured if _service_class_of(job).demotable]
        if not pressured:
            return demotable
        min_priority = min(_service_class_of(job).priority for job in pressured)
        chosen = {job.job_id for job in demotable}
        shed = [
            job
            for job in queue
            if job.job_id not in chosen
            and _service_class_of(job).sheddable
            and _service_class_of(job).priority > min_priority
        ]
        return demotable + shed

    def _pressured_jobs(self, queue: List[ServingJob], now: float) -> List[ServingJob]:
        """The deadline-pressured jobs of ``queue`` at ``now``, in no set order.

        Answered from the run's pressure index, which mirrors ``queue``'s
        deadline-carrying jobs; candidate order never matters downstream
        because scheduling policies are total orders.
        """
        return self._pressure.pressured(now)

    def _serve(
        self,
        worker: Worker,
        batch: List[ServingJob],
        now: float,
        events: EventQueue,
        outcomes: List[JobOutcome],
        child_of: Dict[int, np.random.Generator],
        demoted: bool,
    ) -> None:
        """Dispatch one batch onto one worker and record per-job outcomes."""
        if self._pressure is not None:
            self._pressure.discard(batch)
        service = worker.backend.service_time_us(batch)
        timing = worker.server.serve(now, service)
        worker.record_batch(len(batch))
        events.push(timing.finish_us, (_WORKER_FREE, worker))

        solutions = None
        if self.evaluate_solutions:
            solutions = worker.backend.solve(batch, [child_of[job.job_id] for job in batch])

        for position, job in enumerate(batch):
            met: Optional[bool] = None
            if job.deadline_us is not None:
                met = bool(timing.finish_us <= job.deadline_us + 1e-9)
            best_energy = detected = None
            if solutions is not None:
                best_energy = solutions[position].best_energy
                detected = solutions[position].detected_optimum
            outcomes.append(
                JobOutcome(
                    job_id=job.job_id,
                    user_id=job.user_id,
                    cell_id=job.cell_id,
                    arrival_us=job.arrival_us,
                    start_us=timing.start_us,
                    finish_us=timing.finish_us,
                    deadline_us=job.deadline_us,
                    met_deadline=met,
                    backend=worker.name,
                    backend_kind=worker.kind,
                    demoted=demoted,
                    batch_size=len(batch),
                    best_energy=best_energy,
                    detected_optimum=detected,
                    service_class=_service_class_of(job).name,
                )
            )

    def _utilization(self, outcomes: Sequence[JobOutcome]) -> List[BackendUtilization]:
        makespan = max(
            max(outcome.finish_us for outcome in outcomes)
            - min(outcome.arrival_us for outcome in outcomes),
            1e-9,
        )
        stats = []
        for worker in self.pool.workers:
            jobs = sum(worker.batch_sizes)
            stats.append(
                BackendUtilization(
                    name=worker.name,
                    kind=worker.kind,
                    jobs=jobs,
                    batches=worker.batches,
                    busy_us=worker.server.busy_us,
                    utilization=worker.server.utilization(makespan),
                    mean_batch_size=(
                        float(np.mean(worker.batch_sizes)) if worker.batch_sizes else 0.0
                    ),
                )
            )
        return stats


def _emit_serving_telemetry(tel: "telemetry.TelemetrySession", report: ServingReport) -> None:
    """Emit per-job lifecycle spans and run-level metrics from a finished run.

    Runs entirely *after* the event loop, on the completed outcome list —
    every timestamp is simulation time already decided by the simulator, so
    emission order cannot perturb scheduling, timing or RNG draws.  Per job:
    a root ``serving.job`` span (arrival → completion) with ``serving.queue``
    (arrival → service start) and ``serving.solve`` (service → completion)
    children, which is exactly the queue→solve breakdown the run summary and
    the acceptance test reconstruct.
    """
    run_index = tel.next_run_index()
    policy = report.policy
    jobs = tel.registry.counter("repro_serving_jobs_total", policy=policy)
    misses = tel.registry.counter("repro_serving_deadline_misses_total", policy=policy)
    demotions = tel.registry.counter("repro_serving_demotions_total", policy=policy)
    latency = tel.registry.histogram("repro_serving_latency_us", policy=policy)
    # Per-cell O&M counters: the KPI stream the network layer's hotspot
    # detector consumes (see repro.network.kpi).
    cell_jobs: Dict[int, object] = {}
    cell_misses: Dict[int, object] = {}
    for outcome in report.outcomes:
        jobs.inc()
        cell = outcome.cell_id
        if cell not in cell_jobs:
            cell_jobs[cell] = tel.registry.counter(
                "repro_serving_cell_jobs_total", cell=str(cell)
            )
            cell_misses[cell] = tel.registry.counter(
                "repro_serving_cell_deadline_misses_total", cell=str(cell)
            )
        cell_jobs[cell].inc()
        latency.observe(outcome.latency_us)
        job_span = tel.tracer.record_span(
            "serving.job",
            outcome.arrival_us,
            outcome.finish_us,
            clock=telemetry.CLOCK_SIM,
            run_index=run_index,
            job_id=outcome.job_id,
            user_id=outcome.user_id,
            cell_id=outcome.cell_id,
            backend=outcome.backend,
            backend_kind=outcome.backend_kind,
            demoted=outcome.demoted,
            batch_size=outcome.batch_size,
            met_deadline=outcome.met_deadline,
        )
        tel.tracer.record_span(
            "serving.queue",
            outcome.arrival_us,
            outcome.start_us,
            clock=telemetry.CLOCK_SIM,
            parent_id=job_span,
            run_index=run_index,
            job_id=outcome.job_id,
        )
        tel.tracer.record_span(
            "serving.solve",
            outcome.start_us,
            outcome.finish_us,
            clock=telemetry.CLOCK_SIM,
            parent_id=job_span,
            run_index=run_index,
            job_id=outcome.job_id,
        )
        if outcome.demoted:
            demotions.inc()
            tel.tracer.event(
                "serving.demotion",
                time_us=outcome.start_us,
                clock=telemetry.CLOCK_SIM,
                parent_id=job_span,
                run_index=run_index,
                job_id=outcome.job_id,
                backend=outcome.backend,
            )
        if outcome.met_deadline is False:
            misses.inc()
            cell_misses[cell].inc()
    # The run event carries the report's own percentiles, so a trace file is
    # self-contained: consumers can check span-derived latencies against the
    # authoritative report without re-running anything.
    end_us = max(outcome.finish_us for outcome in report.outcomes) if report.outcomes else 0.0
    tel.tracer.event(
        "serving.run",
        time_us=end_us,
        clock=telemetry.CLOCK_SIM,
        run_index=run_index,
        policy=policy,
        jobs=report.num_jobs,
        p50_latency_us=report.p50_latency_us,
        p95_latency_us=report.p95_latency_us,
        p99_latency_us=report.p99_latency_us,
        deadline_miss_rate=report.deadline_miss_rate,
        demotion_rate=report.demotion_rate,
    )
