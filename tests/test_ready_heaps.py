"""The serving simulator's ready heaps against the list-scan dispatch they replace.

The simulator keeps one ready heap per batch key and pops the head batch
from the heap heads.  :class:`ListScanSimulator` is its executable spec:
the original dispatch, which hands the whole arrival-ordered queue to
:func:`~repro.serving.select_batch` for every worker.  Under random mixed
workloads, FIFO and EDF, class-aware and class-blind scheduling, every batch
ceiling and autoscaled elastic pools, both produce the same outcomes, and
both satisfy the serving invariants.  A deterministic case with a tied
policy key pins the tie-break: queue (arrival) order, not job id.  A
two-job case pins the coalesced-event clock: an arrival grouped with an
earlier worker-free event is dispatched at its own arrival time.
"""

from __future__ import annotations

from typing import Tuple

from hypothesis import given

from repro.serving import (
    DEFAULT_CLASS,
    URLLC,
    AnnealerServingBackend,
    BackendPool,
    ClassicalServingBackend,
    RANServingSimulator,
    SchedulingPolicy,
    ServingJob,
    select_batch,
)
from tests.serving_invariants import check_serving_invariants
from tests.test_pressure_index import (
    _CLASSES,
    OracleSimulator,
    _job,
    _settings,
    simulator_kwargs,
    workloads,
)


class ListScanSimulator(RANServingSimulator):
    """Dispatch by scanning the arrival-ordered queue on every selection."""

    def _dispatch(self, now, queue, events, served):
        has_annealers = bool(self.pool.annealer_workers)
        progress = True
        while progress and queue:
            progress = False
            for worker in self.pool.idle_workers(now, kind="annealer"):
                if not queue:
                    break
                batch = select_batch(
                    list(queue), self.policy, self.max_batch_size, class_aware=self.class_aware
                )
                queue.remove(batch)
                self._serve(worker, batch, now, events, served, demoted=False)
                progress = True
            for worker in self.pool.idle_workers(now, kind="classical"):
                if not queue:
                    break
                if has_annealers and not self.admission_control:
                    break
                candidates = (
                    self._degradation_candidates(queue, now) if has_annealers else list(queue)
                )
                if not candidates:
                    continue
                batch = select_batch(
                    candidates, self.policy, self.max_batch_size, class_aware=self.class_aware
                )
                queue.remove(batch)
                self._serve(worker, batch, now, events, served, demoted=has_annealers)
                progress = True


class ListScanOracleSimulator(ListScanSimulator, OracleSimulator):
    """The list scan with admission answered by the pressure scan, in queue order."""


class ArrivalOrderChecked(RANServingSimulator):
    """Asserts the queue handed to the pressure hook iterates in arrival order."""

    def _pressured_jobs(self, queue, now):
        order = [(job.arrival_us, job.job_id) for job in queue]
        assert order == sorted(order)
        return super()._pressured_jobs(queue, now)


class TestReadyHeapsMatchListScan:
    @given(jobs=workloads(), kwargs=simulator_kwargs())
    @_settings
    def test_outcomes_match_and_invariants_hold(self, jobs, kwargs):
        heap_report = RANServingSimulator(**kwargs).run(jobs)
        scan_report = ListScanSimulator(**kwargs).run(jobs)
        oracle_report = ListScanOracleSimulator(**kwargs).run(jobs)
        ordered_report = ArrivalOrderChecked(**kwargs).run(jobs)
        assert heap_report.outcomes == scan_report.outcomes
        assert heap_report.outcomes == oracle_report.outcomes
        assert heap_report.outcomes == ordered_report.outcomes
        check_serving_invariants(jobs, heap_report)
        check_serving_invariants(jobs, oracle_report)


class ShapeOnlyPolicy(SchedulingPolicy):
    """Orders by QUBO size alone, so most queued jobs tie."""

    name = "shape-only"

    def key(self, job: ServingJob) -> Tuple:
        return (job.num_variables,)


class TestTiedPolicyKeys:
    def _jobs(self):
        # Job ids run against arrival order, so a job-id tie-break would
        # visibly reorder service; shapes cycle so batches must skip jobs.
        count = 12
        return [
            _job(count - 1 - i, 2.0 * i, 30.0 if i % 2 else None, i % 3, _CLASSES[i % 4])
            for i in range(count)
        ]

    def test_ties_break_in_queue_order(self):
        jobs = self._jobs()
        kwargs = dict(
            pool=BackendPool([AnnealerServingBackend(num_reads=30, lanes=1)]),
            policy=ShapeOnlyPolicy(),
            max_batch_size=2,
            admission_control=False,
        )
        report = RANServingSimulator(**kwargs).run(jobs)
        assert report.outcomes == ListScanSimulator(**kwargs).run(jobs).outcomes
        check_serving_invariants(jobs, report)
        # Jobs sharing a batch key all tie, so each key's jobs start in
        # arrival order, although their job ids run the other way.
        by_id = {job.job_id: job for job in jobs}
        for key in {job.compat_key for job in jobs}:
            served = sorted(
                (outcome.start_us, by_id[outcome.job_id].arrival_us)
                for outcome in report.outcomes
                if by_id[outcome.job_id].compat_key == key
            )
            arrivals = [arrival for _, arrival in served]
            assert arrivals == sorted(arrivals)

    def test_ties_with_demotion_match_the_list_scan(self):
        jobs = self._jobs() + [_job(100 + i, 1.0 + i, 15.0, i % 3, URLLC) for i in range(6)]
        for class_aware in (True, False):
            kwargs = dict(
                pool=BackendPool(
                    [AnnealerServingBackend(num_reads=30, lanes=1), ClassicalServingBackend()]
                ),
                policy=ShapeOnlyPolicy(),
                max_batch_size=3,
                class_aware=class_aware,
            )
            report = RANServingSimulator(**kwargs).run(jobs)
            assert report.demotion_rate > 0
            assert report.outcomes == ListScanSimulator(**kwargs).run(jobs).outcomes
            check_serving_invariants(jobs, report)


class TestCoalescedEventClock:
    def test_arrival_grouped_with_earlier_worker_free_starts_on_arrival(self):
        # 32.4 + 4 * 0.2 rounds to 33.199999999999996: the worker frees
        # 7e-15 us before the second arrival, inside the event-grouping
        # window, and the group must be dispatched at the later time.
        jobs = [_job(0, 32.4, None, 0, DEFAULT_CLASS), _job(1, 33.2, None, 0, DEFAULT_CLASS)]
        pool = BackendPool([ClassicalServingBackend(time_per_variable_us=0.2)])
        report = RANServingSimulator(pool=pool).run(jobs)
        first, second = sorted(report.outcomes, key=lambda outcome: outcome.job_id)
        assert first.finish_us < 33.2
        assert second.start_us == 33.2
        check_serving_invariants(jobs, report)
