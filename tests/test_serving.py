"""Tests for the repro.serving subsystem.

The serving layer's contract, mirrored from the batched engine: jobs that
miss deadlines are *counted* (never dropped), batches never mix incompatible
QUBO shapes, and — because job ``j`` draws exclusively from child generator
``j`` — detection solutions are identical for every batch ceiling and policy
seed, with only the timing changing.
"""

import dataclasses
from typing import List, Sequence

import numpy as np
import pytest

from repro.annealing import QuantumAnnealerSimulator, SpinVectorMonteCarloBackend
from repro.exceptions import ConfigurationError
from repro.serving import (
    EMBB,
    AnnealerServingBackend,
    BackendPool,
    ClassicalServingBackend,
    EdfPolicy,
    EventQueue,
    FifoPolicy,
    FifoServer,
    RANServingSimulator,
    ServingBackend,
    ServingJob,
    UserProfile,
    build_pool,
    generate_serving_jobs,
    resolve_policy,
    select_batch,
    uniform_cell_profiles,
)
from repro.wireless.mimo import MIMOConfig, simulate_transmission
from repro.wireless.traffic import ChannelUse


# ---------------------------------------------------------------------- #
# Event primitives
# ---------------------------------------------------------------------- #


class TestFifoServer:
    def test_advance_rule(self):
        server = FifoServer()
        first = server.serve(10.0, 5.0)
        assert (first.start_us, first.finish_us) == (10.0, 15.0)
        # Ready before the server frees: starts at free_at, not at ready.
        second = server.serve(12.0, 3.0)
        assert (second.start_us, second.finish_us) == (15.0, 18.0)
        # Ready after the server frees: starts at ready.
        third = server.serve(30.0, 1.0)
        assert third.start_us == 30.0
        assert server.busy_us == pytest.approx(9.0)
        assert server.jobs_served == 3

    def test_negative_service_rejected(self):
        with pytest.raises(ConfigurationError, match="service_us must be non-negative, got -1.0"):
            FifoServer().serve(0.0, -1.0)

    def test_idle_and_utilization(self):
        server = FifoServer()
        server.serve(0.0, 4.0)
        assert not server.idle_at(2.0)
        assert server.idle_at(4.0)
        assert server.utilization(8.0) == pytest.approx(0.5)


class TestEventQueue:
    def test_time_order(self):
        queue = EventQueue()
        queue.push(5.0, "late")
        queue.push(1.0, "early")
        queue.push(3.0, "middle")
        assert [queue.pop()[1] for _ in range(3)] == ["early", "middle", "late"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        for label in ("a", "b", "c"):
            queue.push(2.0, label)
        assert [queue.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_earliest_time_follows_push_and_pop(self):
        queue = EventQueue()
        assert queue.earliest_us == float("inf")
        queue.push(5.0, "late")
        assert queue.earliest_us == 5.0
        queue.push(1.0, "early")
        queue.push(1.0, "tied")
        queue.push(3.0, "middle")
        assert queue.earliest_us == 1.0
        seen = []
        while queue:
            seen.append(queue.earliest_us)
            assert queue.pop()[0] == seen[-1]
        assert seen == [1.0, 1.0, 3.0, 5.0]
        assert queue.earliest_us == float("inf")

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue and len(queue) == 0
        queue.push(1.0, None)
        assert queue and len(queue) == 1

    @pytest.mark.parametrize("bad_time", [float("nan"), -1.0, float("inf"), float("-inf")])
    def test_rejects_nan_negative_and_infinite_timestamps(self, bad_time):
        # A NaN compares false against everything, so once pushed it would
        # silently corrupt the heap order; negative/infinite times have no
        # meaning on the simulation clock.  All are rejected up front.
        queue = EventQueue()
        queue.push(1.0, "ok")
        with pytest.raises(ConfigurationError):
            queue.push(bad_time, "bad")
        # The queue is untouched by the rejected push.
        assert len(queue) == 1
        assert queue.pop() == (1.0, "ok")


# ---------------------------------------------------------------------- #
# Workload generation
# ---------------------------------------------------------------------- #


def _profiles(**overrides):
    defaults = dict(
        num_cells=2,
        users_per_cell=2,
        configs=[MIMOConfig(2, "QPSK"), MIMOConfig(2, "16-QAM")],
        symbol_period_us=100.0,
        arrival_process="deterministic",
        turnaround_budget_us=500.0,
    )
    defaults.update(overrides)
    return uniform_cell_profiles(**defaults)


class TestWorkload:
    def test_jobs_arrival_ordered_with_sequential_ids(self):
        jobs = generate_serving_jobs(_profiles(), jobs_per_user=5, rng=1)
        assert len(jobs) == 20
        assert [job.job_id for job in jobs] == list(range(20))
        arrivals = [job.arrival_us for job in jobs]
        assert arrivals == sorted(arrivals)

    def test_heterogeneous_user_population(self):
        jobs = generate_serving_jobs(_profiles(), jobs_per_user=3, rng=2)
        assert {job.modulation for job in jobs} == {"QPSK", "16-QAM"}
        assert {job.num_variables for job in jobs} == {4, 8}
        # The compat key separates the two shapes.
        assert len({job.compat_key for job in jobs}) == 2

    def test_reproducible(self):
        first = generate_serving_jobs(_profiles(), jobs_per_user=4, rng=7)
        second = generate_serving_jobs(_profiles(), jobs_per_user=4, rng=7)
        assert [job.arrival_us for job in first] == [job.arrival_us for job in second]
        assert np.allclose(
            first[3].channel_use.transmission.instance.received,
            second[3].channel_use.transmission.instance.received,
        )

    def test_phase_stagger_avoids_synchronized_start_burst(self):
        staggered = generate_serving_jobs(_profiles(), jobs_per_user=2, rng=3)
        arrivals = [job.arrival_us for job in staggered]
        # Two users per cell: offsets 0 and period/2, so at most one job per
        # distinct arrival instant within each cell.
        assert len(set(arrivals)) > len(set(a for a in arrivals if a == 0.0))
        assert sum(1 for a in arrivals if a == 0.0) == 2  # one per cell, not all 4

        unstaggered = [dataclasses.replace(profile, phase_offset_us=0.0) for profile in _profiles()]
        burst = generate_serving_jobs(unstaggered, jobs_per_user=2, rng=3)
        assert sum(1 for job in burst if job.arrival_us == 0.0) == 4

    def test_phase_offset_shifts_deadlines_with_arrivals(self):
        jobs = generate_serving_jobs(_profiles(), jobs_per_user=1, rng=3)
        for job in jobs:
            assert job.deadline_us == pytest.approx(job.arrival_us + 500.0)

    def test_negative_phase_offset_rejected(self):
        profile = UserProfile(
            user_id=0, cell_id=0, config=MIMOConfig(2, "QPSK"), phase_offset_us=-1.0
        )
        with pytest.raises(ConfigurationError):
            generate_serving_jobs([profile], jobs_per_user=1, rng=1)

    def test_hotspot_cell_generates_denser_traffic(self):
        profiles = _profiles(cell_load_factors=[1.0, 4.0])
        hot = [profile for profile in profiles if profile.cell_id == 1]
        cold = [profile for profile in profiles if profile.cell_id == 0]
        assert all(profile.symbol_period_us == pytest.approx(25.0) for profile in hot)
        assert all(profile.symbol_period_us == pytest.approx(100.0) for profile in cold)

    def test_duplicate_user_ids_rejected(self):
        profile = UserProfile(user_id=0, cell_id=0, config=MIMOConfig(2, "QPSK"))
        with pytest.raises(ConfigurationError):
            generate_serving_jobs([profile, profile], jobs_per_user=2, rng=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_cells": 0},
            {"users_per_cell": 0},
            {"configs": []},
            {"cell_load_factors": [1.0]},
            {"cell_load_factors": [1.0, -1.0]},
        ],
    )
    def test_invalid_layout(self, kwargs):
        with pytest.raises(ConfigurationError):
            _profiles(**kwargs)

    def test_empty_profiles_and_bad_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_serving_jobs([], jobs_per_user=2, rng=1)
        with pytest.raises(ConfigurationError):
            generate_serving_jobs(_profiles(), jobs_per_user=0, rng=1)


# ---------------------------------------------------------------------- #
# Scheduling policies and coalescing
# ---------------------------------------------------------------------- #


def _manual_job(job_id, arrival_us, deadline_us, rng, modulation="QPSK", num_users=2):
    transmission = simulate_transmission(MIMOConfig(num_users, modulation), rng=rng)
    use = ChannelUse(
        index=job_id,
        arrival_time_us=arrival_us,
        transmission=transmission,
        deadline_us=deadline_us,
    )
    return ServingJob(job_id=job_id, user_id=job_id, cell_id=0, channel_use=use)


class TestPolicies:
    def test_fifo_orders_by_arrival(self, rng):
        late = _manual_job(0, 10.0, 900.0, rng)
        early = _manual_job(1, 5.0, 100.0, rng)
        policy = FifoPolicy()
        assert min([late, early], key=policy.key) is early

    def test_edf_orders_by_deadline(self, rng):
        relaxed = _manual_job(0, 0.0, 900.0, rng)
        urgent = _manual_job(1, 5.0, 100.0, rng)
        policy = EdfPolicy()
        assert min([relaxed, urgent], key=policy.key) is urgent

    def test_edf_sorts_deadline_free_jobs_last(self, rng):
        best_effort = _manual_job(0, 0.0, None, rng)
        deadline = _manual_job(1, 5.0, 1000.0, rng)
        policy = EdfPolicy()
        assert min([best_effort, deadline], key=policy.key) is deadline

    def test_resolve_policy(self):
        assert resolve_policy("fifo").name == "fifo"
        assert resolve_policy("EDF").name == "edf"
        policy = EdfPolicy()
        assert resolve_policy(policy) is policy
        with pytest.raises(ConfigurationError):
            resolve_policy("lifo")
        with pytest.raises(ConfigurationError):
            resolve_policy(3)

    def test_select_batch_never_mixes_compat_keys(self, rng):
        qpsk = [_manual_job(i, float(i), 900.0, rng, "QPSK") for i in range(3)]
        qam = [_manual_job(10 + i, 0.5 + i, 900.0, rng, "16-QAM") for i in range(2)]
        queue = [qpsk[0], qam[0], qpsk[1], qam[1], qpsk[2]]
        batch = select_batch(queue, FifoPolicy(), max_batch_size=None)
        assert [job.job_id for job in batch] == [0, 1, 2]
        assert len({job.compat_key for job in batch}) == 1
        # The incompatible jobs remain queued.
        assert [job.job_id for job in queue] == [10, 11]

    def test_select_batch_respects_ceiling(self, rng):
        queue = [_manual_job(i, float(i), 900.0, rng) for i in range(5)]
        batch = select_batch(queue, FifoPolicy(), max_batch_size=2)
        assert [job.job_id for job in batch] == [0, 1]
        assert len(queue) == 3

    def test_select_batch_empty(self):
        assert select_batch([], FifoPolicy(), None) == []

    def test_edf_key_is_a_total_order(self, rng):
        # Equal-deadline (and deadline-free) jobs tie-break on arrival and
        # then the unique job_id, mirroring FifoPolicy, so no two jobs
        # compare equal and scheduling never depends on queue order.
        policy = EdfPolicy()
        equal = [_manual_job(job_id, 5.0, 400.0, rng) for job_id in range(4)]
        free = [_manual_job(10 + job_id, 5.0, None, rng) for job_id in range(2)]
        keys = [policy.key(job) for job in equal + free]
        assert len(set(keys)) == len(keys)
        assert min(equal + free, key=policy.key) is equal[0]
        assert sorted(equal + free, key=policy.key)[-2:] == free  # deadline-free last

    def test_edf_select_batch_invariant_under_permutation(self, rng):
        import itertools

        # Same deadline, same arrival: only the job_id tie-break remains.
        jobs = [_manual_job(job_id, 5.0, 400.0, rng) for job_id in range(4)]
        expected = None
        for permutation in itertools.permutations(jobs):
            queue = list(permutation)
            batch = [job.job_id for job in select_batch(queue, EdfPolicy(), 3)]
            if expected is None:
                expected = batch
            assert batch == expected
        assert expected == [0, 1, 2]


# ---------------------------------------------------------------------- #
# Backends
# ---------------------------------------------------------------------- #


class TestBackends:
    def test_annealer_lane_tiling(self, rng):
        backend = AnnealerServingBackend(num_reads=10, lanes=4)
        jobs = [_manual_job(i, 0.0, 900.0, rng) for i in range(5)]  # 4 vars each
        one_sequence = backend.service_time_us(jobs[:4])
        two_sequences = backend.service_time_us(jobs)
        # 5 us programming per batch plus 0.01 us of initialisation per variable.
        assert one_sequence == pytest.approx(5.0 + 0.16 + backend.shot_time_us)
        assert two_sequences == pytest.approx(5.0 + 0.2 + 2 * backend.shot_time_us)
        assert backend.service_time_us([]) == 0.0

    def test_classical_service_linear_in_volume(self, rng):
        backend = ClassicalServingBackend(time_per_variable_us=0.5)
        jobs = [_manual_job(i, 0.0, 900.0, rng) for i in range(3)]  # 4 vars each
        assert backend.service_time_us(jobs) == pytest.approx(6.0)

    def test_solve_reports_optimum_for_noiseless(self, rng, fast_sampler):
        backend = AnnealerServingBackend(sampler=fast_sampler, num_reads=10)
        jobs = [_manual_job(i, 0.0, 900.0, rng) for i in range(2)]
        from repro.utils.rng import spawn_rngs

        solutions = backend.solve(jobs, spawn_rngs(3, 2))
        assert [solution.job_id for solution in solutions] == [0, 1]
        for solution in solutions:
            assert solution.detected_optimum is not None
            assert np.isfinite(solution.best_energy)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_reads": 0},
            {"lanes": 0},
        ],
    )
    def test_invalid_annealer_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            AnnealerServingBackend(**kwargs)

    def test_invalid_classical_config(self):
        with pytest.raises(ConfigurationError):
            ClassicalServingBackend(time_per_variable_us=0.0)


class TestPool:
    def test_build_pool_layout(self):
        pool = build_pool()
        assert len(pool.annealer_workers) == 2
        assert len(pool.classical_workers) == 1
        assert len({worker.name for worker in pool.workers}) == 3

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            BackendPool([])


# ---------------------------------------------------------------------- #
# The serving simulator
# ---------------------------------------------------------------------- #


class _StubBackend(ServingBackend):
    """Fixed-service-time backend that records every dispatched batch."""

    kind = "annealer"

    def __init__(self, service_us: float, name: str = "stub") -> None:
        self.service_us = service_us
        self.name = name
        self.batches: List[List[int]] = []

    def service_time_us(self, jobs: Sequence[ServingJob]) -> float:
        self.batches.append([job.job_id for job in jobs])
        return self.service_us * max(len(jobs), 1)

    def solve(self, jobs, children):  # pragma: no cover - timing-only stub
        raise NotImplementedError


def _mixed_workload(jobs_per_user=4, symbol_period_us=50.0, budget=500.0, process="deterministic"):
    profiles = _profiles(
        symbol_period_us=symbol_period_us,
        turnaround_budget_us=budget,
        arrival_process=process,
    )
    return generate_serving_jobs(profiles, jobs_per_user=jobs_per_user, rng=5)


class TestServingSimulator:
    def test_every_job_accounted_even_when_all_miss(self):
        # A 1 us budget is unmeetable: every job must miss and still appear.
        jobs = _mixed_workload(budget=1.0)
        report = RANServingSimulator(
            pool=BackendPool([AnnealerServingBackend(num_reads=20)]),
            policy="edf",
            admission_control=False,
        ).run(jobs)
        assert report.num_jobs == len(jobs)
        assert sorted(outcome.job_id for outcome in report.outcomes) == [
            job.job_id for job in jobs
        ]
        assert report.deadline_miss_rate == pytest.approx(1.0)
        assert report.missed_jobs == len(jobs)

    def test_batches_never_mix_qubo_shapes(self):
        jobs = _mixed_workload(jobs_per_user=6, symbol_period_us=5.0, budget=50_000.0)
        stub = _StubBackend(service_us=40.0)
        RANServingSimulator(
            pool=BackendPool([stub]), policy="fifo", max_batch_size=None
        ).run(jobs)
        shapes = {job.job_id: job.compat_key for job in jobs}
        assert sum(len(batch) for batch in stub.batches) == len(jobs)
        for batch in stub.batches:
            assert len({shapes[job_id] for job_id in batch}) == 1

    def test_edf_beats_fifo_on_urgent_jobs(self, rng):
        # Two same-shape jobs arrive together; the later-arriving one has the
        # tighter deadline.  FIFO misses it, EDF reorders and meets both.
        relaxed = _manual_job(0, 0.0, 1000.0, rng)
        urgent = _manual_job(1, 0.0, 150.0, rng)
        jobs = [relaxed, urgent]

        def run(policy):
            return RANServingSimulator(
                pool=BackendPool([_StubBackend(service_us=100.0)]),
                policy=policy,
                max_batch_size=1,
                admission_control=False,
            ).run(jobs)

        fifo = run("fifo")
        edf = run("edf")
        assert fifo.deadline_miss_rate == pytest.approx(0.5)
        assert edf.deadline_miss_rate == pytest.approx(0.0)
        edf_urgent = next(o for o in edf.outcomes if o.job_id == 1)
        assert edf_urgent.start_us == pytest.approx(0.0)

    def test_admission_control_demotes_pressured_jobs(self, rng):
        # One slow annealer: the second job would finish at 882 us against a
        # 600 us deadline, so admission control routes it to the classical
        # fallback; without admission control it waits and misses.
        jobs = [_manual_job(0, 0.0, 600.0, rng), _manual_job(1, 0.0, 600.0, rng)]
        annealer = AnnealerServingBackend(num_reads=200, lanes=1)
        # 5 us programming + 4 x 0.01 us init + 200 reads x 2.18 us.
        assert annealer.service_time_us(jobs[:1]) == pytest.approx(441.04)

        def run(admission_control):
            return RANServingSimulator(
                pool=BackendPool([annealer, ClassicalServingBackend(time_per_variable_us=1.0)]),
                policy="edf",
                max_batch_size=1,
                admission_control=admission_control,
            ).run(jobs)

        controlled = run(True)
        demoted = [o for o in controlled.outcomes if o.demoted]
        assert len(demoted) == 1
        assert demoted[0].backend_kind == "classical"
        assert controlled.deadline_miss_rate == pytest.approx(0.0)
        assert controlled.demotion_rate == pytest.approx(0.5)

        uncontrolled = run(False)
        assert uncontrolled.demotion_rate == 0.0
        assert uncontrolled.deadline_miss_rate == pytest.approx(0.5)
        assert all(o.backend_kind == "annealer" for o in uncontrolled.outcomes)

    def test_classical_only_pool_serves_everything(self):
        jobs = _mixed_workload(budget=50_000.0)
        report = RANServingSimulator(
            pool=BackendPool([ClassicalServingBackend()]), policy="fifo"
        ).run(jobs)
        assert report.num_jobs == len(jobs)
        assert report.demotion_rate == 0.0
        assert report.deadline_miss_rate == pytest.approx(0.0)

    def test_same_seed_reproduces_report(self):
        jobs = _mixed_workload(process="poisson")
        simulator = RANServingSimulator(pool=build_pool(), policy="edf")
        first = simulator.run(jobs)
        second = simulator.run(jobs)
        assert [o.finish_us for o in first.outcomes] == [o.finish_us for o in second.outcomes]
        assert first.deadline_miss_rate == second.deadline_miss_rate
        assert first.mean_batch_size == second.mean_batch_size

    def test_solutions_independent_of_batch_ceiling(self):
        # The child-RNG discipline: grouping is an execution detail, so the
        # per-job detection energies must not depend on the batch ceiling.
        jobs = _mixed_workload(jobs_per_user=3, symbol_period_us=10.0, budget=50_000.0)

        def energies(max_batch_size):
            sampler = QuantumAnnealerSimulator(
                backend=SpinVectorMonteCarloBackend(sweeps_per_microsecond=8), seed=9
            )
            backend = AnnealerServingBackend(sampler=sampler, num_reads=5)
            report = RANServingSimulator(
                pool=BackendPool([backend, backend]),
                policy="edf",
                max_batch_size=max_batch_size,
                admission_control=False,
                evaluate_solutions=True,
            ).run(jobs, rng=21)
            return {o.job_id: o.best_energy for o in report.outcomes}

        whole = energies(None)
        pairs = energies(2)
        singles = energies(1)
        assert whole == pairs == singles

    def test_report_sanity(self):
        jobs = _mixed_workload(jobs_per_user=6, symbol_period_us=20.0, budget=5_000.0)
        report = RANServingSimulator(pool=build_pool(), policy="edf").run(jobs)
        assert report.p50_latency_us <= report.p95_latency_us <= report.p99_latency_us
        assert report.mean_batch_size >= 1.0
        assert report.max_batch_size >= 1
        assert report.throughput_jobs_per_ms > 0
        assert len(report.backend_utilization) == 3
        assert sum(stats.jobs for stats in report.backend_utilization) == len(jobs)
        for stats in report.backend_utilization:
            assert stats.utilization >= 0.0

    def test_invalid_inputs_rejected(self, rng):
        simulator = RANServingSimulator()
        with pytest.raises(ConfigurationError):
            simulator.run([])
        job = _manual_job(0, 0.0, 100.0, rng)
        with pytest.raises(ConfigurationError):
            simulator.run([job, job])
        with pytest.raises(ConfigurationError):
            RANServingSimulator(max_batch_size=0)


# ---------------------------------------------------------------------- #
# ServingReport edge cases
# ---------------------------------------------------------------------- #


def _outcome(job_id, arrival, start, finish, deadline, met, demoted=False):
    from repro.serving import JobOutcome

    return JobOutcome(
        job_id=job_id,
        user_id=job_id,
        cell_id=0,
        arrival_us=arrival,
        start_us=start,
        finish_us=finish,
        deadline_us=deadline,
        met_deadline=met,
        backend="annealer#0",
        backend_kind="annealer",
        demoted=demoted,
        batch_size=1,
    )


class TestOutcomeRows:
    """The simulator's per-job rows are the keyword-built outcomes."""

    @pytest.mark.parametrize("evaluated", [False, True])
    @pytest.mark.parametrize("deadline", [None, 30.0, 100.0])
    def test_row_equals_the_keyword_built_outcome(self, rng, evaluated, deadline):
        import pickle

        from repro.serving import JobOutcome
        from repro.serving.backends import JobSolution
        from repro.serving.pool import Worker
        from repro.serving.simulator import _Dispatch, _outcomes

        job = dataclasses.replace(
            _manual_job(4, 10.0, deadline, rng), cell_id=2, service_class=EMBB
        )
        worker = Worker(ClassicalServingBackend(), 1)
        solutions = {4: JobSolution(4, -3.5, True)} if evaluated else {}
        (row,) = _outcomes(_Dispatch(worker, [job], 20.0, 50.0, True), solutions)
        expected = JobOutcome(
            job_id=4,
            user_id=4,
            cell_id=2,
            arrival_us=10.0,
            start_us=20.0,
            finish_us=50.0,
            deadline_us=deadline,
            met_deadline=None if deadline is None else deadline >= 50.0,
            backend="classical#1",
            backend_kind="classical",
            demoted=True,
            batch_size=1,
            best_energy=-3.5 if evaluated else None,
            detected_optimum=True if evaluated else None,
            service_class="embb",
        )
        assert type(row) is JobOutcome
        assert row == expected
        for field in dataclasses.fields(JobOutcome):
            ours, theirs = getattr(row, field.name), getattr(expected, field.name)
            assert (type(ours), ours) == (type(theirs), theirs), field.name
        assert repr(dataclasses.astuple(row)) == repr(dataclasses.astuple(expected))
        assert hash(row) == hash(expected)
        assert pickle.loads(pickle.dumps(row)) == expected
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.finish_us = 0.0


class TestServingReportEdgeCases:
    def test_zero_completed_jobs_yields_a_zeroed_report(self):
        from repro.serving.report import build_serving_report, format_serving_report

        report = build_serving_report([], policy="edf", backend_utilization=[])
        assert report.num_jobs == 0
        assert report.makespan_us == 0.0
        assert report.offered_load_jobs_per_ms == 0.0
        assert report.throughput_jobs_per_ms == 0.0
        assert report.p50_latency_us == report.p95_latency_us == report.p99_latency_us == 0.0
        assert report.deadline_miss_rate is None
        assert report.missed_jobs == 0
        assert report.optimum_rate is None
        assert report.mean_batch_size == 0.0
        assert report.max_batch_size == 0
        # The empty report still renders.
        assert "jobs served" in format_serving_report(report)

    def test_single_job_report(self):
        from repro.serving.report import build_serving_report

        report = build_serving_report(
            [_outcome(0, 10.0, 12.0, 40.0, 100.0, True)],
            policy="fifo",
            backend_utilization=[],
        )
        assert report.num_jobs == 1
        # A lone arrival has no meaningful offered rate.
        assert report.offered_load_jobs_per_ms == 0.0
        # Every percentile equals the single latency.
        latency = 40.0 - 10.0
        assert report.p50_latency_us == pytest.approx(latency)
        assert report.p95_latency_us == pytest.approx(latency)
        assert report.p99_latency_us == pytest.approx(latency)
        assert report.deadline_miss_rate == pytest.approx(0.0)

    def test_all_missed_workload(self):
        from repro.serving.report import build_serving_report

        outcomes = [
            _outcome(i, float(i), float(i) + 5.0, float(i) + 500.0, float(i) + 100.0, False)
            for i in range(4)
        ]
        report = build_serving_report(outcomes, policy="edf", backend_utilization=[])
        assert report.deadline_miss_rate == pytest.approx(1.0)
        assert report.missed_jobs == 4
        assert report.num_jobs == 4

    def test_tail_percentiles_are_observed_latencies_for_small_populations(self):
        # Regression: with N < 100 jobs, linear percentile interpolation
        # reported a p99 *below any observed latency* (e.g. 99.1 us for
        # latencies 10..100 us).  The conservative "higher" method pins the
        # tail to an actually-observed job.
        from repro.serving.report import build_serving_report

        latencies = [10.0 * (i + 1) for i in range(10)]  # 10, 20, ..., 100
        outcomes = [
            _outcome(i, float(i), float(i), float(i) + latency, None, None)
            for i, latency in enumerate(latencies)
        ]
        report = build_serving_report(outcomes, policy="fifo", backend_utilization=[])
        assert report.p99_latency_us == pytest.approx(100.0)
        assert report.p95_latency_us == pytest.approx(100.0)
        assert report.p99_latency_us in latencies
        assert report.p95_latency_us in latencies
        # The tail never under-reports the slowest observed job at this N.
        assert report.p99_latency_us >= max(latencies)

    def test_tail_percentiles_observed_at_larger_populations(self):
        from repro.serving.report import build_serving_report

        latencies = [float(i + 1) for i in range(60)]  # 1..60
        outcomes = [
            _outcome(i, float(i), float(i), float(i) + latency, None, None)
            for i, latency in enumerate(latencies)
        ]
        report = build_serving_report(outcomes, policy="fifo", backend_utilization=[])
        assert report.p95_latency_us in latencies
        assert report.p99_latency_us in latencies
        # "higher" rounds up to the next observed order statistic.
        assert report.p95_latency_us == pytest.approx(58.0)
        assert report.p99_latency_us == pytest.approx(60.0)
