"""Design Challenge 3: pipelining classical and quantum computation (Figure 2).

Successive wireless channel uses arrive continuously; a hybrid base station
can overlap the classical pre-processing of channel use N+1 with the quantum
refinement of channel use N.  This example generates an LTE-like stream of
channel uses, runs it through the pipeline simulator in both pipelined and
serialised form, and prints the resulting throughput, latency, utilisation and
deadline statistics.

Run it with::

    python examples/pipelined_channel_uses.py
"""

from __future__ import annotations

from repro.experiments.pipeline_study import (
    PipelineStudyConfig,
    PipelineStudyDriver,
    format_pipeline_table,
)
from repro.experiments.driver import run_driver


def main() -> None:
    config = PipelineStudyConfig(
        num_users=4,
        modulation="16-QAM",
        num_channel_uses=20,
        symbol_period_us=71.4,          # one LTE OFDM symbol per channel use
        turnaround_budget_us=4000.0,    # a (generous) HARQ-style turnaround budget
        switch_s=0.41,
        num_reads=40,
        include_qpu_overheads=False,    # count pure anneal time, like the paper's TTS
        evaluate_solutions=True,
    )
    result = run_driver(PipelineStudyDriver(), config)
    print(format_pipeline_table(result))

    pipelined = result.pipelined
    print(
        f"\nPer-channel-use detection: {pipelined.optimum_rate:.2f} of channel uses "
        "recovered the exact ML solution with the configured read budget."
    )
    print(
        "Quantum stage utilisation "
        f"{pipelined.quantum_utilization:.2f} vs classical {pipelined.classical_utilization:.4f}: "
        "the annealer is the bottleneck stage, which is why pipelining the cheap classical "
        "pre-processing in front of it costs nothing and hides its latency."
    )


if __name__ == "__main__":
    main()
