"""The serving simulator's deadline-pressure index against its executable spec.

:func:`pressured_oracle` is the original ``O(queue x workers)`` admission
scan: a queued job is pressured when its best solo completion over the
*active* annealer workers lands after its deadline.  The simulator answers
the same question from an incremental index (per-service-profile lists
ordered by deadline, cut by bisect).  The properties below hold the two
together over random mixed workloads, heterogeneous pools, class-aware and
class-blind scheduling, and autoscaled elastic pools: every query returns
the oracle's set, and full runs produce the oracle simulator's outcomes.
The oracle runs a dispatch round after every event group, while the
production simulator skips the rounds that cannot serve and answers some
queries from the index's onset bound; :class:`SkipCheckedSimulator` holds
each of those shortcuts against the scan.  It also holds the simulator's
worker-readiness table against the workers themselves: at every
``_dispatch_due`` call the table must name exactly the workers a per-worker
poll finds dispatchable, and at every pressure read the index's ready
times must be those rebuilt from the workers.  Static-pool runs are also
checked for work conservation.

The module also pins the :class:`~repro.serving.workload.ServingJob`
scheduling keys, set when a job is built: a copy never reports a stale key.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
from typing import List

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import (
    BEST_EFFORT,
    DEFAULT_CLASS,
    EMBB,
    URLLC,
    AnnealerServingBackend,
    AutoscaleConfig,
    AutoscaleController,
    BackendPool,
    ClassicalServingBackend,
    ElasticBackendPool,
    RANServingSimulator,
    ServingJob,
)
from repro.wireless.mimo import MIMOConfig, simulate_transmission
from repro.wireless.traffic import ChannelUse
from repro.serving.events import TIME_EPS
from tests.serving_invariants import (
    check_autoscale_invariants,
    check_work_conservation,
    dispatchable_at,
)

_CONFIGS = (MIMOConfig(2, "QPSK"), MIMOConfig(2, "16-QAM"), MIMOConfig(3, "QPSK"))
_TRANSMISSIONS = tuple(
    simulate_transmission(config, rng=np.random.default_rng(seed))
    for seed, config in enumerate(_CONFIGS)
)
_CLASSES = (DEFAULT_CLASS, URLLC, EMBB, BEST_EFFORT)

_settings = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def pressured_oracle(pool, job: ServingJob, now: float) -> bool:
    """Whether waiting for an annealer already blows ``job``'s deadline."""
    if job.deadline_us is None:
        return False
    workers = pool.active_annealer_workers
    if not workers:
        return True
    best_completion = min(
        max(now, worker.server.free_at_us, worker.available_from_us)
        + worker.backend.service_time_us([job])
        for worker in workers
    )
    return best_completion > job.deadline_us + 1e-9


class OracleSimulator(RANServingSimulator):
    """Admission and autoscaling driven by the scan, in queue order.

    It runs a dispatch round after every event group, so the production
    simulator's skipped rounds are held against rounds that really ran.
    """

    def _pressured_jobs(self, queue, now):
        return [job for job in queue if pressured_oracle(self.pool, job, now)]

    def _dispatch_due(self, now, queue):
        return True


class CheckedSimulator(RANServingSimulator):
    """The indexed simulator, asserting every query against the scan."""

    queries = 0

    def _pressured_jobs(self, queue, now):
        indexed = super()._pressured_jobs(queue, now)
        expected = [job for job in queue if pressured_oracle(self.pool, job, now)]
        assert sorted(job.job_id for job in indexed) == [job.job_id for job in expected]
        self.queries += 1
        return indexed


def ready_times_oracle(workers) -> List[float]:
    """Each worker's ready time rebuilt from the worker: ``inf`` when parked."""
    return [
        max(w.server.free_at_us, w.available_from_us) if w.active else math.inf for w in workers
    ]


class SkipCheckedSimulator(RANServingSimulator):
    """The production simulator, asserting each shortcut it takes against the scan.

    * A skipped dispatch round must be one that would serve nothing: no
      annealer is dispatchable, and either no classical worker is, or the
      pool has annealers and admission control is off or the scan finds no
      pressured job.
    * A pressure query answered from the onset bound must be empty under
      the scan.
    * At every ``_dispatch_due`` call, a worker is dispatchable by the
      readiness table exactly when the per-worker poll
      (:func:`~tests.serving_invariants.dispatchable_at`) says so, and the
      table's earliest ready time per kind answers "is any worker of that
      kind dispatchable" as the poll does.
    * At every pressure read (``_dispatch_due`` reads the onset bound,
      ``_pressured_jobs`` the index), the ready times the pressure index
      reads equal those rebuilt from the workers.
    """

    skipped_rounds = 0
    bound_answers = 0
    readiness_checks = 0
    parked_checks = 0
    warming_checks = 0

    def _check_readiness(self, now):
        table = self._readiness
        for workers, ready_times, earliest in (
            (self._annealers, table.annealer, table.earliest_annealer),
            (self._classical, table.classical, table.earliest_classical),
        ):
            assert ready_times == ready_times_oracle(workers)
            polled = [dispatchable_at(w, now) for w in workers]
            assert [ready <= now + TIME_EPS for ready in ready_times] == polled
            assert (earliest <= now + TIME_EPS) == any(polled)
        if self._pressure is not None:
            rebuilt = ready_times_oracle(self._annealers)
            assert self._pressure._readiness.active_annealers == [
                (position, ready)
                for position, (ready, w) in enumerate(zip(rebuilt, self._annealers))
                if w.active
            ]
        self.readiness_checks += 1
        self.parked_checks += any(not w.active for w in self._annealers)
        self.warming_checks += any(w.active and w.available_from_us > now for w in self._annealers)

    def _dispatch_due(self, now, queue):
        self._check_readiness(now)
        due = super()._dispatch_due(now, queue)
        if not due:
            self.skipped_rounds += 1
            workers = self.pool.workers
            assert not any(w.kind == "annealer" and dispatchable_at(w, now) for w in workers)
            if any(w.kind == "classical" and dispatchable_at(w, now) for w in workers):
                assert self.pool.annealer_workers
                assert not self.admission_control or not any(
                    pressured_oracle(self.pool, job, now) for job in queue
                )
        return due

    def _pressured_jobs(self, queue, now):
        self._check_readiness(now)
        from_bound = now < self._pressure.onset_us()
        pressured = super()._pressured_jobs(queue, now)
        if from_bound:
            self.bound_answers += 1
            assert pressured == []
            assert not any(pressured_oracle(self.pool, job, now) for job in queue)
        return pressured


def _job(job_id: int, arrival_us: float, budget_us, shape: int, service_class) -> ServingJob:
    use = ChannelUse(
        index=job_id,
        arrival_time_us=arrival_us,
        transmission=_TRANSMISSIONS[shape],
        deadline_us=None if budget_us is None else arrival_us + budget_us,
    )
    return ServingJob(
        job_id=job_id, user_id=job_id % 5, cell_id=0, channel_use=use, service_class=service_class
    )


@st.composite
def workloads(draw) -> List[ServingJob]:
    """Mixed-shape, mixed-class jobs; bursts share arrival instants."""
    count = draw(st.integers(min_value=1, max_value=40))
    jobs, clock = [], 0.0
    for job_id in range(count):
        clock += draw(st.sampled_from([0.0, 0.0, 3.0, 10.0, 25.0]))
        jobs.append(
            _job(
                job_id,
                clock,
                draw(st.sampled_from([None, 20.0, 60.0, 150.0, 400.0])),
                draw(st.integers(min_value=0, max_value=len(_CONFIGS) - 1)),
                draw(st.sampled_from(_CLASSES)),
            )
        )
    return jobs


_annealers = st.builds(
    AnnealerServingBackend,
    num_reads=st.sampled_from([5, 10, 30]),
    lanes=st.sampled_from([1, 2, 4]),
)
_classical = st.builds(ClassicalServingBackend, time_per_variable_us=st.sampled_from([0.2, 2.0]))


@st.composite
def simulator_kwargs(draw) -> dict:
    """A static heterogeneous pool, or an elastic pool under an autoscaler."""
    classical = draw(st.lists(_classical, min_size=0, max_size=2))
    kwargs = dict(
        policy=draw(st.sampled_from(["edf", "fifo"])),
        max_batch_size=draw(st.sampled_from([None, 1, 2, 4])),
        admission_control=draw(st.booleans()),
        class_aware=draw(st.booleans()),
    )
    if draw(st.booleans()):
        annealers = draw(st.lists(_annealers, min_size=1, max_size=3))
        kwargs["pool"] = BackendPool(annealers + classical)
        return kwargs
    kwargs["pool"] = ElasticBackendPool(
        annealer=draw(_annealers),
        max_annealer_workers=draw(st.integers(min_value=1, max_value=3)),
        initial_annealer_workers=1,
        num_classical_workers=len(classical),
    )
    config = AutoscaleConfig(
        interval_us=draw(st.sampled_from([15.0, 40.0])),
        warmup_us=draw(st.sampled_from([0.0, 30.0, 120.0])),
        cooldown_us=draw(st.sampled_from([0.0, 40.0])),
        scale_down_queue_per_worker=0.5,
    )
    kwargs["autoscaler"] = AutoscaleController(config)
    return kwargs


class TestPressureIndexMatchesOracle:
    @given(jobs=workloads(), kwargs=simulator_kwargs())
    @_settings
    def test_every_query_and_every_outcome_match(self, jobs, kwargs):
        checked = CheckedSimulator(**kwargs)
        checked_report = checked.run(jobs)
        oracle_report = OracleSimulator(**kwargs).run(jobs)
        # The production simulator, asserting its skipped rounds and its
        # answers from the onset bound against the scan as it runs.
        indexed_report = SkipCheckedSimulator(**kwargs).run(jobs)
        assert checked_report.outcomes == oracle_report.outcomes
        assert indexed_report.outcomes == oracle_report.outcomes
        if kwargs.get("autoscaler") is not None:
            # The controller holds the events of its last (indexed) run.
            check_autoscale_invariants(kwargs["autoscaler"], kwargs["pool"])
        else:
            check_work_conservation(indexed_report)
        if kwargs.get("autoscaler") is None and not (
            kwargs["admission_control"] and kwargs["pool"].classical_workers
        ):
            assert checked.queries == 0  # no index is built, so none is queried

    def test_overloaded_mixed_pool_is_queried(self):
        # A deterministic overload so the property above cannot pass vacuously.
        jobs = [_job(i, float(i), 40.0, i % 3, _CLASSES[i % 4]) for i in range(30)]
        kwargs = dict(
            pool=BackendPool(
                [
                    AnnealerServingBackend(num_reads=30, lanes=1),
                    AnnealerServingBackend(num_reads=10, lanes=2),
                    ClassicalServingBackend(),
                ]
            ),
            max_batch_size=2,
        )
        checked = CheckedSimulator(**kwargs)
        report = checked.run(jobs)
        assert checked.queries > 0
        assert report.demotion_rate > 0
        assert report.outcomes == OracleSimulator(**kwargs).run(jobs).outcomes


class TestDecisionPointShortcuts:
    def test_overloaded_mixed_pool_takes_both_shortcuts(self):
        # A deterministic case, so the property above cannot pass vacuously.
        # Bursts of three leave jobs queued behind the annealer's batch while
        # the fallback idles; tight and loose budgets alternate.
        jobs = [
            _job(i, 40.0 * (i // 3), (400.0, 120.0, None)[i % 3], i % 3, _CLASSES[i % 4])
            for i in range(60)
        ]
        for class_aware in (True, False):
            kwargs = dict(
                pool=BackendPool(
                    [AnnealerServingBackend(num_reads=30, lanes=2), ClassicalServingBackend()]
                ),
                max_batch_size=2,
                class_aware=class_aware,
            )
            checked = SkipCheckedSimulator(**kwargs)
            report = checked.run(jobs)
            assert checked.skipped_rounds > 0
            assert checked.bound_answers > 0
            assert report.demotion_rate > 0
            assert report.outcomes == OracleSimulator(**kwargs).run(jobs).outcomes


class TestReadinessTable:
    def test_autoscaled_run_checks_parked_and_warming_workers(self):
        # A deterministic elastic case, so the property above cannot pass
        # vacuously on its autoscaled pools: a burst scales the pool up
        # (warm-ups in flight), the quiet tail parks workers again.
        jobs = [_job(i, 5.0 * i, 150.0, i % 3, _CLASSES[i % 4]) for i in range(40)]
        jobs += [_job(40 + i, 400.0 + 60.0 * i, 400.0, i % 3, _CLASSES[i % 4]) for i in range(20)]
        autoscaler = AutoscaleController(
            AutoscaleConfig(interval_us=15.0, warmup_us=30.0, cooldown_us=0.0)
        )
        kwargs = dict(
            pool=ElasticBackendPool(
                annealer=AnnealerServingBackend(num_reads=30, lanes=1),
                max_annealer_workers=3,
                initial_annealer_workers=1,
                num_classical_workers=1,
            ),
            max_batch_size=2,
            autoscaler=autoscaler,
        )
        checked = SkipCheckedSimulator(**kwargs)
        report = checked.run(jobs)
        actions = {event.action for event in autoscaler.events}
        assert actions == {"scale-up", "scale-down"}
        assert checked.parked_checks > 0
        assert checked.warming_checks > 0
        assert checked.readiness_checks > checked.parked_checks
        assert report.outcomes == OracleSimulator(**kwargs).run(jobs).outcomes

    def test_static_overload_is_work_conserving(self):
        jobs = [_job(i, 40.0 * (i // 3), 120.0, i % 3, _CLASSES[i % 4]) for i in range(60)]
        checked = SkipCheckedSimulator(
            pool=BackendPool(
                [AnnealerServingBackend(num_reads=30, lanes=2)] * 2 + [ClassicalServingBackend()]
            ),
            max_batch_size=2,
        )
        report = checked.run(jobs)
        assert checked.readiness_checks > 0
        assert any(outcome.start_us > outcome.arrival_us for outcome in report.outcomes)
        check_work_conservation(report)


class TestFrozenJobKeys:
    def test_replace_recomputes_keys(self):
        job = _job(0, 0.0, 100.0, 0, URLLC)
        assert job.num_variables == 4
        assert job.shape_key == (4, "QPSK")
        assert job.compat_key == (4, "QPSK", 0)
        reshaped = dataclasses.replace(
            job, channel_use=dataclasses.replace(job.channel_use, transmission=_TRANSMISSIONS[1])
        )
        assert reshaped.num_variables == 8
        assert reshaped.shape_key == (8, "16-QAM")
        assert reshaped.compat_key == (8, "16-QAM", 0)
        reclassed = dataclasses.replace(job, service_class=BEST_EFFORT)
        assert reclassed.num_variables == 4
        assert reclassed.shape_key == (4, "QPSK")
        assert reclassed.compat_key == (4, "QPSK", 1)
        both = dataclasses.replace(
            reclassed,
            channel_use=dataclasses.replace(job.channel_use, transmission=_TRANSMISSIONS[2]),
        )
        assert (both.num_variables, both.shape_key, both.compat_key) == (
            6,
            (6, "QPSK"),
            (6, "QPSK", 1),
        )
        # The original keeps its own keys.
        assert job.num_variables == 4
        assert job.compat_key == (4, "QPSK", 0)

    def test_keys_are_not_fields(self):
        job = _job(3, 0.0, 100.0, 1, URLLC)
        assert [field.name for field in dataclasses.fields(ServingJob)] == [
            "job_id",
            "user_id",
            "cell_id",
            "channel_use",
            "service_class",
            "home_cell_id",
        ]
        assert "shape_key" not in repr(job)
        assert job == dataclasses.replace(job) and hash(job) == hash(dataclasses.replace(job))

    def test_pickle_round_trip_keeps_keys(self):
        for job in (_job(1, 0.0, 100.0, 2, EMBB), _job(2, 0.0, None, 1, DEFAULT_CLASS)):
            restored = pickle.loads(pickle.dumps(job))
            assert restored.job_id == job.job_id
            assert restored.num_variables == job.channel_use.qubo_variable_count
            assert restored.shape_key == job.shape_key
            assert restored.compat_key == job.compat_key
