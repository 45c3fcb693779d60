"""The deadline-aware RAN serving simulator.

This is the Figure-2 "centralised RAN" layer: timestamped detection jobs from
many users stream into a plant of heterogeneous workers (annealer QPUs plus
classical fallbacks), a deadline-aware policy (EDF or FIFO) picks what runs
next, compatible jobs are coalesced into batches for the batched kernels, and
admission control demotes jobs that would blow their turnaround deadline
waiting for an annealer onto the fast classical path.

The simulation is event-driven and work-conserving: no worker idles while
an eligible job is queued.  Arrivals are read off the sorted workload and
win ties against an :class:`~repro.serving.events.EventQueue` of
worker-free, autoscale and warm-up events, and a dispatch round runs only
where a decision can change: when some worker that may serve a queued job
is dispatchable.  Batch occupancy therefore adapts to load — light traffic
is served solo with minimal latency, heavy traffic queues and rides the
batched engine's throughput.

The event loop is timing-only: it decides when, on which worker and in
which batch each job is served, and never calls a solver.  When solutions
are evaluated they are computed once the loop ends: the served jobs are
grouped by the backend object that served them and their ``shape_key``, and
each group goes to ``backend.solve`` in slices of at most
:data:`_SOLVE_VARIABLES_PER_CALL` QUBO variables — fewer, wider kernel
calls than one per dispatched batch.

Reproducibility follows the library-wide child-generator discipline: when
solutions are evaluated, job ``j`` draws exclusively from child generator
``j`` (keyed by job id), and a kernel lane's result does not depend on its
batch-mates, so every solution is bitwise the one its dispatched batch
would have produced.  For a fixed job-to-backend assignment — an
annealer-only pool, or admission control disabled — detection outcomes are
therefore identical for every batch ceiling and scheduling order; only the
*timing* changes.  With admission control enabled, scheduling decides
*which backend* serves a deadline-pressured job, so the demoted set (and
those jobs' solutions) legitimately responds to timing knobs.  Every run is
exactly reproducible from its seeds either way, and jobs that miss their
deadline are counted in the report, never dropped.

Which workers can take a batch is read off one :class:`_Readiness` table —
each worker's ``max(free_at_us, available_from_us)`` and the earliest per
kind — refreshed only where a worker changes (a serve, an autoscale action,
the run start), so deciding whether a round is due costs two comparisons
rather than a poll of every worker.  Deadline pressure — the admission and
autoscaling signal — is answered from an incremental :class:`_PressureIndex`
over the same table rather than by re-timing every queued job on every
annealer at every query; its onset bound answers "nothing is pressured yet"
without a query and lets a round whose only idle worker is a fallback be
skipped.  The next batch is popped from per-batch-key :class:`_ReadyQueue`
heaps rather than by scanning the queue (see ``docs/serving.md``).
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.network.topology import NetworkTopology
from repro.serving.autoscale import AutoscaleController, ElasticBackendPool
from repro.serving.backends import JobSolution, ServingBackend
from repro.serving.events import TIME_EPS, EventQueue
from repro.serving.pool import BackendPool, Worker, build_pool
from repro.serving.report import (
    BackendUtilization,
    JobOutcome,
    ServingReport,
    build_serving_report,
)
from repro.serving.scheduler import (
    EdfPolicy,
    SchedulingPolicy,
    _batch_key,
    resolve_policy,
    select_batch,
)
from repro.serving.workload import ServingJob
from repro.utils.rng import BatchRandomState, ensure_rng_batch
from repro.utils.validation import require

__all__ = ["RANServingSimulator"]

_WORKER_FREE = "worker-free"
_AUTOSCALE = "autoscale"
_WARMUP_DONE = "warmup-done"


#: A pressure-index entry's slack deadline, ``deadline_us + 1e-9``.
_SLACK = operator.itemgetter(2)

#: Relative margin of the pressure index's onset bound.  The bound stands in
#: for the test ``fl(now + solo) <= slack``, whose rounding error is a few
#: units in the last place of ``slack`` (every term lies in ``[0, slack]``);
#: ``1e-9 * (1 + |slack|)`` covers it about a million times over.
_ONSET_MARGIN = 1e-9

#: Ceiling on the total QUBO variables of one post-loop ``backend.solve``
#: call.  Larger calls amortise the kernels' per-sweep overhead further but
#: grow their working set with the batch; this keeps peak memory near that
#: of per-dispatch solving.
_SOLVE_VARIABLES_PER_CALL = 256


class _Dispatch(NamedTuple):
    """One batch as the event loop served it: where, when, and whether demoted."""

    worker: Worker
    batch: List[ServingJob]
    start_us: float
    finish_us: float
    demoted: bool


def _ready_time(worker: Worker) -> float:
    """When ``worker`` can next take a batch; ``inf`` while it is parked."""
    if not worker.active:
        return math.inf
    return max(worker.server.free_at_us, worker.available_from_us)


class _Readiness:
    """The worker-readiness table: when each worker can next take a batch.

    A worker's *ready time* is ``max(server.free_at_us, available_from_us)``,
    ``inf`` while it is parked, and the worker can take a batch at ``now``
    exactly when its ready time is at most ``now + TIME_EPS``.
    :attr:`annealer` and :attr:`classical` hold the ready times of the
    pool's annealer and classical workers by position, :attr:`earliest_annealer`
    and :attr:`earliest_classical` the least of each, and
    :attr:`active_annealers` the ``(position, ready time)`` of every active
    annealer, in position order.

    An entry changes only when its worker does, so the simulator refreshes
    it there: :meth:`refresh` after a serve, :meth:`refresh_annealers` after
    an autoscale action; the table is built after the run-start pool reset.
    """

    __slots__ = (
        "annealer",
        "classical",
        "earliest_annealer",
        "earliest_classical",
        "active_annealers",
        "_annealer_workers",
        "_classical_slot",
        "_active_slot",
    )

    def __init__(self, annealers: Sequence[Worker], classical: Sequence[Worker]) -> None:
        self._annealer_workers = annealers
        self.classical = [_ready_time(worker) for worker in classical]
        self.earliest_classical = min(self.classical, default=math.inf)
        #: Worker index -> position among the classical workers.
        self._classical_slot = {worker.index: p for p, worker in enumerate(classical)}
        self.refresh_annealers()

    def refresh(self, worker: Worker) -> None:
        """Re-read the entry of ``worker``, which was just served (so is active)."""
        ready = max(worker.server.free_at_us, worker.available_from_us)
        slot = self._active_slot.get(worker.index)
        if slot is None:
            classical = self.classical
            classical[self._classical_slot[worker.index]] = ready
            self.earliest_classical = min(classical)
            return
        position = self.active_annealers[slot][0]
        self.active_annealers[slot] = (position, ready)
        self.annealer[position] = ready
        self.earliest_annealer = min(self.annealer)

    def refresh_annealers(self) -> None:
        """Re-read every annealer entry: workers were activated or parked."""
        workers = self._annealer_workers
        self.annealer = [_ready_time(worker) for worker in workers]
        self.earliest_annealer = min(self.annealer, default=math.inf)
        self.active_annealers = [
            (position, ready) for position, ready in enumerate(self.annealer) if ready != math.inf
        ]
        #: Worker index -> slot of the active annealer in ``active_annealers``.
        self._active_slot = {
            workers[position].index: slot
            for slot, (position, _) in enumerate(self.active_annealers)
        }


class _PressureIndex:
    """Queued deadline-carrying jobs, grouped for O(groups) pressure queries.

    A queued job is *deadline-pressured* at ``now`` when even its best solo
    completion over the active annealer workers,
    ``min(max(now, free_at_us, available_from_us) + solo_us)``, lands after
    its deadline — waiting for an annealer already blows it.

    A job's solo service time on every annealer worker, its *service
    profile*, is computed once per job shape (``shape_key``) and distinct
    backend object (workers often share one: K identical QPUs), which
    relies on :meth:`~repro.serving.backends.ServingBackend.service_time_us`
    depending on a batch's shapes alone.  Jobs sharing a profile live in one
    list of ``(deadline_us, job_id, deadline_us + 1e-9, job)`` entries,
    sorted, so a query computes one best completion per profile and the
    pressured jobs are the list prefix whose slack deadlines fall short of
    it.

    The annealer timelines are read off the run's :class:`_Readiness`
    table.  :meth:`onset_us` is a lower bound on the earliest ``now`` at
    which any indexed job can be pressured, and a query before it returns
    ``[]`` without a cut; every other query runs the exact cut.  The bound
    depends only on the group heads and the annealer timelines: :meth:`add`
    lowers it, :meth:`invalidate` (a worker was served or the pool was
    rescaled) marks it stale, and the next read recomputes it (see
    ``docs/serving.md``).
    """

    def __init__(self, annealer_workers: Sequence[Worker], readiness: _Readiness) -> None:
        slot_of: Dict[int, int] = {}
        self._slots = [
            slot_of.setdefault(id(worker.backend), len(slot_of)) for worker in annealer_workers
        ]
        self._backends = list({id(w.backend): w.backend for w in annealer_workers}.values())
        self._readiness = readiness
        self._groups: Dict[Tuple[float, ...], List[Tuple[float, int, float, ServingJob]]] = {}
        self._profile_of: Dict[int, Tuple[float, ...]] = {}
        self._profile_of_shape: Dict[Tuple, Tuple[float, ...]] = {}
        self._onset = math.inf
        self._fresh = False

    def add(self, job: ServingJob) -> None:
        """Index a newly queued job; deadline-free jobs are never pressured."""
        deadline = job.deadline_us
        if deadline is None:
            return
        profile = self._profile_of_shape.get(job.shape_key)
        if profile is None:
            solo = [backend.service_time_us([job]) for backend in self._backends]
            profile = tuple(solo[slot] for slot in self._slots)
            self._profile_of_shape[job.shape_key] = profile
        self._profile_of[job.job_id] = profile
        entry = (deadline, job.job_id, deadline + 1e-9, job)
        group = self._groups.setdefault(profile, [])
        bisect.insort(group, entry)
        if self._fresh and group[0] is entry:
            self._onset = min(self._onset, self._head_onset(profile, entry[2]))

    def discard(self, jobs: Sequence[ServingJob]) -> None:
        """Drop dispatched jobs from the index."""
        for job in jobs:
            profile = self._profile_of.pop(job.job_id, None)
            if profile is None:
                continue
            group = self._groups[profile]
            del group[bisect.bisect_left(group, (job.deadline_us, job.job_id))]

    def invalidate(self) -> None:
        """Mark the onset bound stale: an annealer's timeline or activity changed."""
        self._fresh = False

    def onset_us(self) -> float:
        """No indexed job is pressured at any ``now`` below this bound."""
        if not self._fresh:
            self._onset = min(
                (
                    self._head_onset(profile, group[0][2])
                    for profile, group in self._groups.items()
                    if group
                ),
                default=math.inf,
            )
            self._fresh = True
        return self._onset

    def pressured(self, now: float) -> List[ServingJob]:
        """Every indexed job whose deadline is already blown at ``now``.

        Parked workers are no capacity; warming workers count from the moment
        they become dispatchable.  With no active annealer at all, every
        deadline-carrying job is pressured.
        """
        if now < self.onset_us():
            return []
        starts = [
            (position, max(now, ready)) for position, ready in self._readiness.active_annealers
        ]
        if not starts:
            return [entry[3] for group in self._groups.values() for entry in group]
        pressured: List[ServingJob] = []
        for profile, group in self._groups.items():
            if not group:
                continue
            completion = min(start + profile[position] for position, start in starts)
            cut = bisect.bisect_left(group, completion, key=_SLACK)
            pressured.extend(entry[3] for entry in group[:cut])
        return pressured

    def _head_onset(self, profile: Tuple[float, ...], slack: float) -> float:
        """A lower bound on when a job of ``profile`` and ``slack`` is pressured.

        The job is not pressured at ``now`` while some active annealer
        ``w`` has ``max(now, ready_w) + solo_w <= slack``: for every ``w``
        whose ready time already meets the slack, that holds up to
        ``now = slack - solo_w``, less :data:`_ONSET_MARGIN` relative to the
        slack for the rounding of ``now + solo_w``.  ``-inf`` when no active
        annealer can still meet it; ``inf`` for an infinite deadline.
        """
        latest = -math.inf
        for position, ready in self._readiness.active_annealers:
            service = profile[position]
            if ready + service <= slack:
                latest = max(latest, slack - service)
        if not math.isfinite(latest):  # no annealer meets it, or no deadline to meet
            return latest
        return latest - _ONSET_MARGIN * (1.0 + abs(slack))


class _ArrivalKeyedPolicy(SchedulingPolicy):
    """A policy whose keys were computed once, as the jobs arrived."""

    def __init__(self, policy: SchedulingPolicy) -> None:
        self.name = policy.name
        self.keys: Dict[int, Tuple] = {}

    def key(self, job: ServingJob) -> Tuple:
        return self.keys[job.job_id]


class _ReadyQueue:
    """The queued jobs: arrival order for scans, one ready heap per batch key.

    Iterating the queue yields its jobs in arrival order (the order they were
    pushed).  Alongside, each batch key (``compat_key``, or ``shape_key``
    when class-blind) owns a heap of ``(policy key, push sequence, job)``
    entries; the policy key is computed once per job, on arrival.
    :meth:`pop_batch` therefore answers ``select_batch`` over the whole queue
    from the heap heads alone: the head job is the least ``(key, sequence)``
    over the heads — ``min``'s first-in-queue-order tie-break — and its
    companions are the next entries of the same heap, i.e. the compatible
    jobs in policy order with ties in queue order.  Jobs taken by
    :meth:`remove` leave their heap entries behind; a pop skips them.

    A class-aware queue also keeps its queued jobs of *sheddable* classes
    by priority, so the admission ladder finds its shedding candidates
    without walking the queue (:meth:`sheddable_below`).
    """

    __slots__ = (
        "_policy_key", "_class_aware", "_jobs", "_heaps", "_sequence", "_sheddable", "order"
    )

    def __init__(self, policy: SchedulingPolicy, class_aware: bool) -> None:
        self._policy_key = policy.key
        self._class_aware = class_aware
        self._jobs: Dict[int, ServingJob] = {}
        self._heaps: Dict[Tuple, List[Tuple[Tuple, int, ServingJob]]] = {}
        self._sequence = 0
        self._sheddable: Dict[int, Dict[int, ServingJob]] = {}
        #: ``policy`` answered from the keys computed on arrival.
        self.order = _ArrivalKeyedPolicy(policy)

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[ServingJob]:
        return iter(self._jobs.values())

    def push(self, job: ServingJob) -> None:
        """Queue a newly arrived job."""
        self._jobs[job.job_id] = job
        key = self.order.keys[job.job_id] = self._policy_key(job)
        heap = self._heaps.setdefault(_batch_key(job, self._class_aware), [])
        heapq.heappush(heap, (key, self._sequence, job))
        self._sequence += 1
        if self._class_aware:
            service_class = job.service_class
            if service_class.sheddable:
                self._sheddable.setdefault(service_class.priority, {})[job.job_id] = job

    def remove(self, jobs: Sequence[ServingJob]) -> None:
        """Take jobs chosen elsewhere out of the queue."""
        for job in jobs:
            del self._jobs[job.job_id]
        self._forget_sheddable(jobs)

    def sheddable_below(self, priority: int) -> Iterator[ServingJob]:
        """Queued jobs of sheddable classes less critical than ``priority``.

        Always empty on a class-blind queue.
        """
        for level, jobs in self._sheddable.items():
            if level > priority:
                yield from jobs.values()

    def pop_batch(self, max_batch_size: Optional[int]) -> List[ServingJob]:
        """``select_batch`` over the whole queue: pop the head batch."""
        jobs, head = self._jobs, None
        for key, heap in list(self._heaps.items()):
            while heap and heap[0][2].job_id not in jobs:
                heapq.heappop(heap)
            if not heap:
                del self._heaps[key]
            elif head is None or heap[0] < head[0]:
                head = heap
        batch: List[ServingJob] = []
        while head and (max_batch_size is None or len(batch) < max_batch_size):
            job = heapq.heappop(head)[2]
            if jobs.pop(job.job_id, None) is not None:
                batch.append(job)
        self._forget_sheddable(batch)
        return batch

    def _forget_sheddable(self, jobs: Sequence[ServingJob]) -> None:
        if self._sheddable:
            for job in jobs:
                service_class = job.service_class
                if service_class.sheddable:
                    del self._sheddable[service_class.priority][job.job_id]


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
        When true every served job is also solved through the batched
        kernels once the event loop ends, grouped by backend and shape
        (slower; enables quality metrics).  Solutions never feed back into
        timing, so the schedule is the same either way.  When false only
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
        self._readiness: Optional[_Readiness] = None
        self._annealers: List[Worker] = []
        self._classical: List[Worker] = []

    # ------------------------------------------------------------------ #

    def run(self, jobs: Sequence[ServingJob], rng: BatchRandomState = None) -> ServingReport:
        """Serve a workload and return the aggregate :class:`ServingReport`."""
        require(bool(jobs), "jobs must not be empty")
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

        times = []
        for job in ordered:
            arrival = float(job.arrival_us)
            if not math.isfinite(arrival) or arrival < 0.0:
                raise ConfigurationError(
                    f"event timestamps must be finite and non-negative, got {arrival}"
                )
            times.append(arrival)

        self._reset_pool()
        pool = self.pool
        self._annealers = pool.annealer_workers
        self._classical = pool.classical_workers
        # Arrivals are already sorted: they are read off ``ordered`` with a
        # cursor and win ties against the heap, which holds only worker-free,
        # autoscale and warm-up events.
        events = EventQueue()
        if self.autoscaler is not None:
            self.autoscaler.reset()
            start_us = ordered[0].arrival_us
            self.autoscaler.begin(start_us, self.pool)
            events.push(start_us + self.autoscaler.config.interval_us, (_AUTOSCALE, None))
        self._readiness = _Readiness(self._annealers, self._classical)
        # Pressure is only ever queried by admission control over a mixed
        # pool or by the autoscaler; other runs never time solo jobs.
        self._pressure = None
        if self.autoscaler is not None or (
            self.admission_control and self._annealers and self._classical
        ):
            self._pressure = _PressureIndex(self._annealers, self._readiness)

        queue = _ReadyQueue(self.policy, self.class_aware)
        served: List[_Dispatch] = []
        cursor, total = 0, len(ordered)
        while cursor < total or events.earliest_us != math.inf:
            now = events.earliest_us
            if cursor < total and times[cursor] <= now:
                now = times[cursor]
            # Events within TIME_EPS of the first are handled together, at
            # the latest of their times, so no job can start before it arrives.
            group_end = now + TIME_EPS
            while cursor < total and times[cursor] <= group_end:
                job = ordered[cursor]
                queue.push(job)
                if self._pressure is not None:
                    self._pressure.add(job)
                now = max(now, times[cursor])
                cursor += 1
            autoscale_tick = False
            while events.earliest_us <= group_end:
                time_us, (kind, _) = events.pop()
                now = max(now, time_us)
                autoscale_tick = autoscale_tick or kind == _AUTOSCALE
            if autoscale_tick:
                self._autoscale(now, queue, events, cursor < total, tel)
            if queue and self._dispatch_due(now, queue):
                self._dispatch(now, queue, events, served)

        if queue:  # pragma: no cover - defensive; dispatch drains every queue
            raise ConfigurationError(f"{len(queue)} jobs were never scheduled")

        solutions: Dict[int, JobSolution] = {}
        if self.evaluate_solutions:
            # Child generator j belongs to job j (keyed by sorted job id), so
            # solutions are independent of batching and scheduling order.
            children = ensure_rng_batch(rng, len(ordered))
            solutions = _solve_served(served, dict(zip(sorted(ids), children)))
        outcomes = sorted(
            (outcome for dispatch in served for outcome in _outcomes(dispatch, solutions)),
            key=lambda outcome: outcome.job_id,
        )
        metadata = {
            "max_batch_size": self.max_batch_size,
            "admission_control": self.admission_control,
            "evaluate_solutions": self.evaluate_solutions,
            "class_aware": self.class_aware,
            "num_annealer_workers": len(self._annealers),
            "num_classical_workers": len(self._classical),
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

    def _autoscale(
        self,
        now: float,
        queue: _ReadyQueue,
        events: EventQueue,
        arrivals_remaining: bool,
        tel: Optional["telemetry.TelemetrySession"],
    ) -> None:
        """One autoscale tick: observe, let the controller act, schedule the next."""
        pressured = len(self._pressured_jobs(queue, now))
        action = self.autoscaler.step(now, queue, self.pool, pressured)
        if action is not None:  # a worker was activated or parked
            self._readiness.refresh_annealers()
            self._pressure.invalidate()
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
            events.push(now + self.autoscaler.config.warmup_us, (_WARMUP_DONE, None))
        # Keep ticking while load can still arrive or is still queued; once
        # both dry up, the remaining worker-free events just drain in-flight
        # batches and no scaling decision is needed.
        if queue or arrivals_remaining:
            events.push(now + self.autoscaler.config.interval_us, (_AUTOSCALE, None))

    def _dispatch_due(self, now: float, queue: _ReadyQueue) -> bool:
        """Whether a dispatch round at ``now`` can serve anything.

        A round serves a job only through a dispatchable annealer, or a
        dispatchable classical worker that either fronts an annealer-free
        pool or takes admission candidates.  Without a pressured job there
        is no candidate, and none is pressured before the pressure index's
        onset bound — so a round this returns false for serves nothing.
        Worker readiness is read off the run's :class:`_Readiness` table.
        """
        limit = now + TIME_EPS
        readiness = self._readiness
        if readiness.earliest_annealer <= limit:
            return True
        if readiness.earliest_classical > limit:
            return False
        if not self._annealers:
            return True
        return self.admission_control and now >= self._pressure.onset_us()

    def _dispatch(
        self, now: float, queue: _ReadyQueue, events: EventQueue, served: List[_Dispatch]
    ) -> None:
        """Work-conserving dispatch of queued jobs onto idle workers at ``now``.

        A worker that may take any queued job pops the queue's head batch;
        a demotion picks its batch with :func:`select_batch` over the
        admission candidates.
        """
        annealers, classical = self._annealers, self._classical
        readiness = self._readiness
        limit = now + TIME_EPS
        progress = True
        while progress and queue:
            progress = False
            # Serving an annealer leaves every other worker's idleness as
            # it was, so each worker is checked once per pass.
            for position, worker in enumerate(annealers):
                if not queue:
                    break
                if readiness.annealer[position] <= limit:
                    batch = queue.pop_batch(self.max_batch_size)
                    self._serve(worker, batch, now, events, served, demoted=False)
                    progress = True
            if annealers and not self.admission_control:
                continue  # fallbacks only activate through admission control
            for position, worker in enumerate(classical):
                if not queue:
                    break
                if readiness.classical[position] > limit:
                    continue
                if not annealers:
                    batch = queue.pop_batch(self.max_batch_size)
                else:
                    candidates = self._degradation_candidates(queue, now)
                    if not candidates:
                        continue
                    # ``candidates`` is a scratch list, so select_batch may pop from it.
                    batch = select_batch(
                        candidates, queue.order, self.max_batch_size, class_aware=self.class_aware
                    )
                    queue.remove(batch)
                self._serve(worker, batch, now, events, served, demoted=bool(annealers))
                progress = True

    def _degradation_candidates(self, queue: _ReadyQueue, now: float) -> List[ServingJob]:
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
        if not self.class_aware or not pressured:
            return pressured
        demotable = [job for job in pressured if job.service_class.demotable]
        min_priority = min(job.service_class.priority for job in pressured)
        chosen = {job.job_id for job in demotable}
        shed = [job for job in queue.sheddable_below(min_priority) if job.job_id not in chosen]
        return demotable + shed

    def _pressured_jobs(self, queue: _ReadyQueue, now: float) -> List[ServingJob]:
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
        served: List[_Dispatch],
        demoted: bool,
    ) -> None:
        """Dispatch one batch onto one worker and record its timing."""
        if self._pressure is not None:
            self._pressure.discard(batch)
            self._pressure.invalidate()
        service = worker.backend.service_time_us(batch)
        timing = worker.server.serve(now, service)
        worker.record_batch(len(batch))
        self._readiness.refresh(worker)
        events.push(timing.finish_us, (_WORKER_FREE, worker))
        served.append(_Dispatch(worker, batch, timing.start_us, timing.finish_us, demoted))

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


def _solve_served(
    served: Sequence[_Dispatch], child_of: Dict[int, np.random.Generator]
) -> Dict[int, JobSolution]:
    """Solve every served job, keyed by job id, in shape-grouped batches.

    Jobs are grouped by the backend object that served them and their
    :attr:`~repro.serving.workload.ServingJob.shape_key`, in dispatch order,
    and each group goes to ``backend.solve`` in slices of at most
    :data:`_SOLVE_VARIABLES_PER_CALL` variables (at least one job).  Job
    ``j`` draws only from ``child_of[j]`` and a kernel lane does not depend
    on its batch-mates, so each solution is bitwise the one its dispatched
    batch would have produced.
    """
    groups: Dict[Tuple, Tuple[ServingBackend, List[ServingJob]]] = {}
    for dispatch in served:
        backend = dispatch.worker.backend
        for job in dispatch.batch:
            key = (id(backend), job.shape_key)
            groups.setdefault(key, (backend, []))[1].append(job)
    solutions: Dict[int, JobSolution] = {}
    for backend, jobs in groups.values():
        step = max(1, _SOLVE_VARIABLES_PER_CALL // jobs[0].num_variables)
        for begin in range(0, len(jobs), step):
            chunk = jobs[begin : begin + step]
            results = backend.solve(chunk, [child_of[job.job_id] for job in chunk])
            for job, solution in zip(chunk, results):
                solutions[job.job_id] = solution
    return solutions


def _outcomes(dispatch: _Dispatch, solutions: Dict[int, JobSolution]) -> Iterator[JobOutcome]:
    """The per-job outcomes of one served batch (solutions when evaluated).

    Built positionally, in :class:`JobOutcome` field order: keyword
    arguments cost more, and this runs once per served job.
    """
    worker, batch, start_us, finish_us, demoted = dispatch
    name, kind, size = worker.name, worker.kind, len(batch)
    for job in batch:
        deadline = job.deadline_us
        met = None if deadline is None else bool(finish_us <= deadline + 1e-9)
        solution = solutions.get(job.job_id)
        yield JobOutcome(
            job.job_id,
            job.user_id,
            job.cell_id,
            job.arrival_us,
            start_us,
            finish_us,
            deadline,
            met,
            name,
            kind,
            demoted,
            size,
            None if solution is None else solution.best_energy,
            None if solution is None else solution.detected_optimum,
            job.service_class.name,
        )


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
