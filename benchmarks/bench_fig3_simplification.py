"""Benchmark E-F3: reproduce paper Figure 3 (QUBO simplification).

Regenerates both panels of Figure 3 — the ratio of simplified QUBOs and the
average number of fixed variables — across problem sizes and modulations, and
checks the paper's qualitative finding: the prefixing scheme stops firing for
problems larger than roughly 32-40 variables.
"""

from conftest import run_once

from repro.experiments.fig3_simplification import Figure3Config, Figure3Driver, format_figure3_table
from repro.experiments.driver import run_driver


def test_figure3_simplification(benchmark, report_writer):
    config = Figure3Config(instances_per_point=5)
    rows = run_once(benchmark, run_driver, Figure3Driver(), config)
    report_writer("figure3_simplification", format_figure3_table(rows), data=rows)

    # Shape check (paper): small problems are frequently simplified...
    small = [row for row in rows if row.num_variables <= 8]
    assert any(row.simplified_ratio > 0.0 for row in small)
    # ...while problems beyond ~40 variables essentially never are.
    large = [row for row in rows if row.num_variables >= 40]
    assert large, "the sweep must include problems beyond 40 variables"
    assert all(row.simplified_ratio <= 0.1 for row in large)
    # And the effect dies out for every modulation, not just one.
    for modulation in {row.modulation for row in rows}:
        biggest = max(
            (row for row in rows if row.modulation == modulation),
            key=lambda row: row.num_variables,
        )
        assert biggest.simplified_ratio <= 0.2
