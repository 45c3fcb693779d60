"""Benchmark E-F2: quantify the pipelined hybrid architecture (paper Figure 2).

Figure 2 sketches staged classical/quantum processing of successive channel
uses.  The benchmark runs the same channel-use stream through the pipeline
simulator in pipelined and serialised form and checks that pipelining never
hurts and strictly helps throughput once the stream is long enough to keep
both stages busy.
"""

from conftest import run_once

from repro.experiments.pipeline_study import (
    PipelineStudyConfig,
    PipelineStudyDriver,
    format_pipeline_table,
)
from repro.experiments.driver import run_driver


def test_pipeline_throughput(benchmark, report_writer):
    config = PipelineStudyConfig(
        num_users=3,
        modulation="16-QAM",
        num_channel_uses=16,
        symbol_period_us=35.7,
        num_reads=30,
        evaluate_solutions=True,
    )
    result = run_once(benchmark, run_driver, PipelineStudyDriver(), config)
    report_writer("pipeline_throughput", format_pipeline_table(result), data=result)

    # Pipelining can only help: throughput at least as high, latency no worse.
    assert result.throughput_gain >= 1.0 - 1e-9
    assert result.latency_ratio <= 1.0 + 1e-9
    # Both stages actually carry load in the pipelined run.
    assert result.pipelined.classical_utilization > 0.0
    assert result.pipelined.quantum_utilization > 0.0
    # Per-channel-use detection quality is tracked (noiseless ground truth).
    assert result.pipelined.optimum_rate is not None
