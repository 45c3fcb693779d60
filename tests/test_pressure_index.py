"""The serving simulator's deadline-pressure index against its executable spec.

:func:`pressured_oracle` is the original ``O(queue x workers)`` admission
scan: a queued job is pressured when its best solo completion over the
*active* annealer workers lands after its deadline.  The simulator answers
the same question from an incremental index (per-service-profile lists
ordered by deadline, cut by bisect).  The properties below hold the two
together over random mixed workloads, heterogeneous pools, class-aware and
class-blind scheduling, and autoscaled elastic pools: every query returns
the oracle's set, and full runs produce the oracle simulator's outcomes.

The module also pins the cached :class:`~repro.serving.workload.ServingJob`
scheduling keys: a copy never reports a stale key.
"""

from __future__ import annotations

import dataclasses
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
    """Admission and autoscaling driven by the scan, in queue order."""

    def _pressured_jobs(self, queue, now):
        return [job for job in queue if pressured_oracle(self.pool, job, now)]


class CheckedSimulator(RANServingSimulator):
    """The indexed simulator, asserting every query against the scan."""

    queries = 0

    def _pressured_jobs(self, queue, now):
        indexed = super()._pressured_jobs(queue, now)
        expected = [job for job in queue if pressured_oracle(self.pool, job, now)]
        assert sorted(job.job_id for job in indexed) == [job.job_id for job in expected]
        self.queries += 1
        return indexed


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
    init_time_per_variable_us=st.sampled_from([0.0, 0.5]),
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
        classical=classical[0] if classical else None,
    )
    config = AutoscaleConfig(
        interval_us=draw(st.sampled_from([15.0, 40.0])),
        warmup_us=draw(st.sampled_from([0.0, 30.0, 120.0])),
        cooldown_us=draw(st.sampled_from([0.0, 40.0])),
        scale_up_queue_per_worker=draw(st.sampled_from([1.0, 3.0])),
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
        indexed_report = RANServingSimulator(**kwargs).run(jobs)
        assert checked_report.outcomes == oracle_report.outcomes
        assert indexed_report.outcomes == oracle_report.outcomes
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
        assert reclassed.compat_key == (4, "QPSK", 1)
        # The original keeps its own keys.
        assert job.compat_key == (4, "QPSK", 0)

    def test_pickle_round_trip_keeps_keys(self):
        cached = _job(1, 0.0, 100.0, 2, EMBB)
        _ = cached.compat_key  # populate the cache before pickling
        fresh = _job(2, 0.0, None, 1, DEFAULT_CLASS)
        for job in (cached, fresh):
            restored = pickle.loads(pickle.dumps(job))
            assert restored.job_id == job.job_id
            assert restored.num_variables == job.channel_use.qubo_variable_count
            assert restored.shape_key == job.shape_key
            assert restored.compat_key == job.compat_key
