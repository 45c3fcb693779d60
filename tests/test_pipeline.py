"""Tests for repro.hybrid.pipeline (the Figure 2 pipeline simulator)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.hybrid.pipeline import HybridPipelineSimulator
from repro.wireless.mimo import MIMOConfig
from repro.wireless.traffic import TrafficGenerator


@pytest.fixture
def channel_uses():
    config = MIMOConfig(num_users=2, modulation="QPSK")
    generator = TrafficGenerator(config, symbol_period_us=50.0, turnaround_budget_us=10_000.0)
    return generator.generate(6, rng=3)


@pytest.fixture
def simulator(fast_sampler):
    return HybridPipelineSimulator(
        sampler=fast_sampler, num_reads=5, evaluate_solutions=False
    )


class TestPipelineSimulator:
    def test_report_structure(self, simulator, channel_uses):
        report = simulator.run(channel_uses, pipelined=True, rng=1)
        assert report.num_jobs == 6
        assert report.pipelined
        assert report.mean_latency_us > 0
        assert report.p95_latency_us >= report.mean_latency_us * 0.5
        assert 0 <= report.quantum_utilization <= 1.5

    def test_jobs_preserve_order_and_indices(self, simulator, channel_uses):
        report = simulator.run(channel_uses, pipelined=True, rng=1)
        assert [job.index for job in report.jobs] == list(range(6))

    def test_stage_ordering_within_job(self, simulator, channel_uses):
        report = simulator.run(channel_uses, pipelined=True, rng=1)
        for job in report.jobs:
            assert job.classical.finish_us >= job.classical.start_us
            assert job.quantum.start_us >= job.classical.finish_us
            assert job.completion_us == job.quantum.finish_us
            assert job.latency_us == pytest.approx(job.completion_us - job.arrival_us)

    def test_pipelined_throughput_at_least_serial(self, simulator, channel_uses):
        pipelined = simulator.run(channel_uses, pipelined=True, rng=1)
        serial = simulator.run(channel_uses, pipelined=False, rng=1)
        assert pipelined.throughput_jobs_per_ms >= serial.throughput_jobs_per_ms - 1e-9
        assert pipelined.mean_latency_us <= serial.mean_latency_us + 1e-9

    def test_serial_stages_never_overlap(self, simulator, channel_uses):
        report = simulator.run(channel_uses, pipelined=False, rng=1)
        jobs = report.jobs
        for earlier, later in zip(jobs, jobs[1:]):
            assert later.classical.start_us >= earlier.quantum.finish_us - 1e-9

    def test_pipelined_classical_can_overlap_quantum(self, fast_sampler):
        # With a congested quantum stage the classical stage of job N+1 starts
        # before the quantum stage of job N finishes.
        config = MIMOConfig(num_users=2, modulation="QPSK")
        uses = TrafficGenerator(config, symbol_period_us=1.0).generate(4, rng=5)
        simulator = HybridPipelineSimulator(
            sampler=fast_sampler, num_reads=50, evaluate_solutions=False
        )
        report = simulator.run(uses, pipelined=True, rng=2)
        overlaps = [
            later.classical.start_us < earlier.quantum.finish_us
            for earlier, later in zip(report.jobs, report.jobs[1:])
        ]
        assert any(overlaps)

    def test_deadline_accounting(self, fast_sampler):
        config = MIMOConfig(num_users=2, modulation="QPSK")
        uses = TrafficGenerator(config, symbol_period_us=50.0, turnaround_budget_us=1.0).generate(
            3, rng=7
        )
        simulator = HybridPipelineSimulator(
            sampler=fast_sampler, num_reads=20, evaluate_solutions=False
        )
        report = simulator.run(uses, pipelined=True, rng=3)
        assert report.deadline_miss_rate == pytest.approx(1.0)

    def test_solution_evaluation_reports_optimum_rate(self, fast_sampler, channel_uses):
        simulator = HybridPipelineSimulator(
            sampler=fast_sampler, num_reads=30, evaluate_solutions=True
        )
        report = simulator.run(channel_uses[:3], pipelined=True, rng=4)
        assert report.optimum_rate is not None
        assert 0.0 <= report.optimum_rate <= 1.0

    def test_qpu_overheads_increase_quantum_time(self, fast_sampler, channel_uses):
        lean = HybridPipelineSimulator(
            sampler=fast_sampler,
            num_reads=10,
            include_qpu_overheads=False,
            evaluate_solutions=False,
        ).run(channel_uses, rng=5)
        loaded = HybridPipelineSimulator(
            sampler=fast_sampler, num_reads=10, include_qpu_overheads=True, evaluate_solutions=False
        ).run(channel_uses, rng=5)
        assert loaded.mean_latency_us > lean.mean_latency_us

    def test_empty_stream_rejected(self, simulator):
        with pytest.raises(ConfigurationError, match="channel_uses must not be empty"):
            simulator.run([], rng=1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"switch_s": 0.0}, "switch_s must lie strictly inside"),
            ({"num_reads": 0}, "num_reads must be positive"),
        ],
    )
    def test_invalid_configuration(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            HybridPipelineSimulator(**kwargs)
