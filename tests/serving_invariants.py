"""Scheduling invariants every serving run must satisfy, checked post hoc.

:func:`check_serving_invariants` rebuilds what it needs from the workload
and the finished :class:`~repro.serving.ServingReport` alone, so it applies
unchanged to the production simulator and to any oracle variant of it.
:func:`check_work_conservation` checks from the report alone that no
annealer worker of a static pool idles while a job waits.
:func:`check_autoscale_invariants` checks the scaling actions an
:class:`~repro.serving.autoscale.AutoscaleController` recorded in its last
run.  A violated invariant raises ``AssertionError`` naming the job, worker
or scaling event.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

from repro.serving import DEFAULT_CLASS, ServingJob, ServingReport
from repro.serving.autoscale import AutoscaleController, ElasticBackendPool
from repro.serving.events import TIME_EPS
from repro.serving.pool import Worker


def dispatchable_at(worker: Worker, now_us: float) -> bool:
    """Whether ``worker`` can accept a batch at ``now_us``, polled off the worker.

    The per-worker rule the simulator's readiness table answers for: active,
    warmed up and idle, each within ``TIME_EPS`` of ``now_us``.
    """
    return (
        worker.active
        and worker.available_from_us <= now_us + TIME_EPS
        and worker.server.idle_at(now_us)
    )


def check_serving_invariants(jobs: Sequence[ServingJob], report: ServingReport) -> None:
    """Assert the serving invariants of ``report``, the run of ``jobs``.

    * every job is served exactly once, with its own arrival and deadline;
    * arrival <= start <= finish;
    * the batches one worker serves never overlap in time;
    * a class-aware run never demotes a protected (non-demotable) class;
    * demoted jobs run on classical workers only;
    * ``met_deadline`` agrees with the finish time and the deadline.
    """
    by_id = {job.job_id: job for job in jobs}
    served = sorted(outcome.job_id for outcome in report.outcomes)
    assert served == sorted(by_id), "jobs are not served exactly once"

    class_aware = report.metadata.get("class_aware", True)
    batches: Dict[str, Dict[Tuple[float, float], List[int]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for outcome in report.outcomes:
        job = by_id[outcome.job_id]
        assert outcome.arrival_us == job.arrival_us, f"job {job.job_id}: arrival rewritten"
        assert outcome.deadline_us == job.deadline_us, f"job {job.job_id}: deadline rewritten"
        assert outcome.arrival_us <= outcome.start_us <= outcome.finish_us, (
            f"job {job.job_id}: arrival {outcome.arrival_us}, start {outcome.start_us}, "
            f"finish {outcome.finish_us} out of order"
        )
        if outcome.demoted:
            assert outcome.backend_kind == "classical", (
                f"job {job.job_id} demoted onto {outcome.backend_kind} worker {outcome.backend}"
            )
            if class_aware:
                service_class = getattr(job, "service_class", DEFAULT_CLASS)
                assert service_class.demotable, (
                    f"protected job {job.job_id} ({service_class.name}) was demoted"
                )
        if job.deadline_us is None:
            assert outcome.met_deadline is None, f"job {job.job_id} has no deadline to meet"
        else:
            met = outcome.finish_us <= job.deadline_us + 1e-9
            assert outcome.met_deadline is met, f"job {job.job_id}: met_deadline disagrees"
        batches[outcome.backend][(outcome.start_us, outcome.finish_us)].append(outcome.batch_size)

    for worker, intervals in batches.items():
        previous_finish = float("-inf")
        for (start, finish), sizes in sorted(intervals.items()):
            if finish > start:
                # Two batches in one busy interval would merge here; each
                # interval holds exactly one batch of the size it reports.
                assert sizes == [len(sizes)] * len(sizes), (
                    f"{worker}: batches overlap in [{start}, {finish}]"
                )
            assert start >= previous_finish, (
                f"{worker}: a batch starts at {start} before the last one finished "
                f"at {previous_finish}"
            )
            previous_finish = finish


#: How long (us) an annealer may idle while a job waits: event groups are
#: served at the latest of their times, which lie within ``TIME_EPS``.
WORK_CONSERVATION_SLACK_US = 1e-9


def check_work_conservation(report: ServingReport) -> None:
    """Assert that no annealer of a static pool idles while a job waits.

    A job waits over ``[arrival_us, start_us)``.  An annealer worker idles
    before its first batch, between batches and after its last one; no such
    idle stretch may overlap a wait by more than
    :data:`WORK_CONSERVATION_SLACK_US`.  An annealer serves any queued job,
    so a waiting job beside an idle annealer is a dispatch round that did
    not run or a worker the dispatcher wrongly took for busy.  Elastic pools
    are out of scope: their parked and warming workers idle by design.
    """
    assert "autoscale_events" not in report.metadata, "work conservation needs a static pool"
    waits: List[List[float]] = []
    for arrival, start in sorted(
        (outcome.arrival_us, outcome.start_us)
        for outcome in report.outcomes
        if outcome.start_us > outcome.arrival_us
    ):
        if waits and arrival <= waits[-1][1]:
            waits[-1][1] = max(waits[-1][1], start)
        else:
            waits.append([arrival, start])
    wait_starts = [begin for begin, _ in waits]
    busy: Dict[str, Set[Tuple[float, float]]] = defaultdict(set)
    for outcome in report.outcomes:
        busy[outcome.backend].add((outcome.start_us, outcome.finish_us))
    for stats in report.backend_utilization:
        if stats.kind != "annealer":
            continue
        idle_from = -math.inf
        for start, finish in sorted(busy[stats.name]) + [(math.inf, math.inf)]:
            # The worker idles over (idle_from, start); scan the waits that
            # begin before it ends, from the one in progress at idle_from.
            index = max(bisect.bisect_right(wait_starts, idle_from) - 1, 0)
            while index < len(waits) and waits[index][0] < start:
                begin, end = waits[index]
                overlap = min(end, start) - max(begin, idle_from)
                assert overlap <= WORK_CONSERVATION_SLACK_US, (
                    f"{stats.name} idles over [{max(begin, idle_from)}, {min(end, start)}] "
                    "while a job waits"
                )
                index += 1
            idle_from = max(idle_from, finish)


def check_autoscale_invariants(autoscaler: AutoscaleController, pool: ElasticBackendPool) -> None:
    """Assert the invariants of the scaling events ``autoscaler`` recorded on ``pool``.

    * every event leaves the active annealer count within ``[min_workers,
      max_workers]``, ``max_workers`` defaulting to the pool's size;
    * every event comes at least ``cooldown_us`` after the one before it.
    """
    config = autoscaler.config
    ceiling = pool.max_annealer_workers if config.max_workers is None else config.max_workers
    previous = None
    for event in autoscaler.events:
        assert config.min_workers <= event.active_after <= ceiling, (
            f"{event.action} at {event.time_us} leaves {event.active_after} active "
            f"workers, outside [{config.min_workers}, {ceiling}]"
        )
        if previous is not None:
            assert event.time_us - previous.time_us >= config.cooldown_us - 1e-9, (
                f"{event.action} at {event.time_us} follows the one at "
                f"{previous.time_us} within the {config.cooldown_us} us cooldown"
            )
        previous = event
