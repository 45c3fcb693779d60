"""Scheduling invariants every serving run must satisfy, checked post hoc.

:func:`check_serving_invariants` rebuilds what it needs from the workload
and the finished :class:`~repro.serving.ServingReport` alone, so it applies
unchanged to the production simulator and to any oracle variant of it.
:func:`check_autoscale_invariants` checks the scaling actions an
:class:`~repro.serving.autoscale.AutoscaleController` recorded in its last
run.  A violated invariant raises ``AssertionError`` naming the job, worker
or scaling event.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.serving import DEFAULT_CLASS, ServingJob, ServingReport
from repro.serving.autoscale import AutoscaleController, ElasticBackendPool


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
