"""Benchmark E-F7: reproduce paper Figure 7 (RA vs initial-state quality).

Regenerates the success-probability and expected-cost curves of reverse
annealing as a function of the initial state's ΔE_IS% (binned in 2% steps) for
an 8-user 16-QAM instance, and checks the paper's finding that both metrics
degrade as the initial state gets worse.
"""

import numpy as np
from conftest import run_once

from repro.experiments.fig7_initial_state import Figure7Config, Figure7Driver, format_figure7_table
from repro.experiments.driver import run_driver


def test_figure7_initial_state_quality(benchmark, report_writer):
    config = Figure7Config(num_reads=500, candidates_per_bin=3)
    rows = run_once(benchmark, run_driver, Figure7Driver(), config)
    report_writer("figure7_initial_state", format_figure7_table(rows), data=rows)

    assert len(rows) >= 3, "enough dE_IS% bins must be populated to see the trend"

    # Paper shape: success probability is best for the best initial states and
    # degrades as dE_IS% grows (allowing for sampling noise we compare the
    # first bin against the last and require an overall downward trend).
    first, last = rows[0], rows[-1]
    assert first.success_probability >= last.success_probability
    correlation = np.corrcoef(
        [row.mean_initial_quality for row in rows],
        [row.success_probability for row in rows],
    )[0, 1]
    assert correlation < 0.3, "success probability should not improve with worse initial states"

    # The expected sample cost moves the other way: worse initial states give
    # worse expected Delta-E% after reverse annealing.
    assert last.expectation_delta_e >= first.expectation_delta_e - 0.25
