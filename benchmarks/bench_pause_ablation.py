"""Benchmark E-X2 (extension): the power of pausing.

The paper fixes a 1 us pause for every schedule, citing the pausing
literature.  This ablation verifies on the simulator that the choice is
justified: adding a pause never hurts the success probability materially, and
the 1 us pause the paper uses improves reverse annealing over the no-pause
schedule.
"""

from conftest import run_once

from repro.experiments.pause_ablation import (
    PauseAblationConfig,
    PauseAblationDriver,
    format_pause_table,
)
from repro.experiments.driver import run_driver


def test_pause_ablation(benchmark, report_writer):
    config = PauseAblationConfig(num_reads=500)
    rows = run_once(benchmark, run_driver, PauseAblationDriver(), config)
    report_writer("pause_ablation", format_pause_table(rows), data=rows)

    ra_rows = {row.pause_duration_us: row for row in rows if row.method == "RA-greedy"}
    fa_rows = {row.pause_duration_us: row for row in rows if row.method == "FA"}

    assert 0.0 in ra_rows and 1.0 in ra_rows

    # The paper's 1 us pause helps reverse annealing relative to no pause.
    assert ra_rows[1.0].success_probability >= ra_rows[0.0].success_probability
    # Longer pauses never reduce FA's success probability by more than noise.
    assert fa_rows[max(fa_rows)].success_probability >= fa_rows[0.0].success_probability - 0.05
    # Pause duration is correctly reflected in the schedule duration.
    assert ra_rows[1.0].duration_us - ra_rows[0.0].duration_us == 1.0
