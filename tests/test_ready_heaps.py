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

Arrivals are read off the sorted workload beside the event heap and win
ties against it.  Deterministic cases pin arrivals at, and within the
grouping window after, a worker-free, autoscale or warm-up time, and the
validation of arrival times before the run starts.
"""

from __future__ import annotations

from typing import Tuple

import pytest
from hypothesis import given

from repro.exceptions import ConfigurationError
from repro.serving import autoscale
from repro.serving import (
    DEFAULT_CLASS,
    URLLC,
    AnnealerServingBackend,
    AutoscaleConfig,
    AutoscaleController,
    BackendPool,
    ClassicalServingBackend,
    ElasticBackendPool,
    RANServingSimulator,
    SchedulingPolicy,
    ServingJob,
    select_batch,
)
from tests.serving_invariants import check_serving_invariants, dispatchable_at
from tests.test_pressure_index import (
    _CLASSES,
    OracleSimulator,
    _job,
    _settings,
    simulator_kwargs,
    workloads,
)


def _dispatchable(workers, now):
    return [worker for worker in workers if dispatchable_at(worker, now)]


class ListScanSimulator(RANServingSimulator):
    """Dispatch by scanning the arrival-ordered queue on every selection."""

    def _dispatch(self, now, queue, events, served):
        has_annealers = bool(self.pool.annealer_workers)
        progress = True
        while progress and queue:
            progress = False
            for worker in _dispatchable(self.pool.annealer_workers, now):
                if not queue:
                    break
                batch = select_batch(
                    list(queue), self.policy, self.max_batch_size, class_aware=self.class_aware
                )
                queue.remove(batch)
                self._serve(worker, batch, now, events, served, demoted=False)
                progress = True
            for worker in _dispatchable(self.pool.classical_workers, now):
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


#: Inside the simulator's event-grouping window (`TIME_EPS`, 1e-12 us) at these times.
_WITHIN_WINDOW = 5e-13


class TestArrivalStreamTies:
    @pytest.mark.parametrize("offset", [0.0, _WITHIN_WINDOW])
    def test_arrival_at_a_worker_free_time(self, offset):
        # The first job holds the only worker until exactly 1.0 us.
        jobs = [_job(0, 0.0, None, 0, DEFAULT_CLASS), _job(1, 1.0 + offset, None, 0, DEFAULT_CLASS)]
        pool = BackendPool([ClassicalServingBackend(time_per_variable_us=0.25)])
        report = RANServingSimulator(pool=pool).run(jobs)
        first, second = sorted(report.outcomes, key=lambda outcome: outcome.job_id)
        assert first.finish_us == 1.0
        assert second.start_us == 1.0 + offset
        check_serving_invariants(jobs, report)

    @pytest.mark.parametrize("offset", [0.0, _WITHIN_WINDOW])
    def test_arrivals_at_an_autoscale_tick_and_a_warmup_end(self, monkeypatch, offset):
        # Job 0 holds the single active annealer (70.44 us) past the 50 us
        # tick.  Jobs 1 and 2 arrive with the tick, so the controller sees a
        # queue of two, above a lowered scale-up threshold of one job per
        # worker, and scales up; the new worker warms up for 30 us and
        # job 3 arrives as it becomes dispatchable.
        monkeypatch.setattr(autoscale, "_SCALE_UP_QUEUE_PER_WORKER", 1.0)
        tick, warmup = 50.0, 30.0
        jobs = [
            _job(0, 0.0, None, 0, DEFAULT_CLASS),
            _job(1, tick + offset, None, 0, DEFAULT_CLASS),
            _job(2, tick + offset, None, 0, DEFAULT_CLASS),
            _job(3, tick + offset + warmup, None, 0, DEFAULT_CLASS),
        ]
        pool = ElasticBackendPool(
            annealer=AnnealerServingBackend(num_reads=30, lanes=1),
            max_annealer_workers=2,
            initial_annealer_workers=1,
            num_classical_workers=0,
        )
        autoscaler = AutoscaleController(
            AutoscaleConfig(
                interval_us=tick,
                warmup_us=warmup,
                cooldown_us=0.0,
                scale_down_queue_per_worker=0.5,
            )
        )
        report = RANServingSimulator(pool=pool, max_batch_size=None, autoscaler=autoscaler).run(
            jobs
        )
        scale_up = autoscaler.events[0]
        assert (scale_up.action, scale_up.time_us, scale_up.queue_depth) == (
            "scale-up", tick + offset, 2
        )
        last = max(report.outcomes, key=lambda outcome: outcome.job_id)
        assert last.start_us == tick + offset + warmup
        assert last.backend == scale_up.worker
        check_serving_invariants(jobs, report)


class TestArrivalValidation:
    @pytest.mark.parametrize("bad_time", [float("nan"), -1.0, float("inf")])
    def test_run_rejects_nan_negative_and_infinite_arrivals(self, bad_time):
        jobs = [_job(0, 0.0, None, 0, DEFAULT_CLASS), _job(1, bad_time, None, 0, DEFAULT_CLASS)]
        simulator = RANServingSimulator(pool=BackendPool([ClassicalServingBackend()]))
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            simulator.run(jobs)
