"""Benchmark E-F6: reproduce paper Figure 6 (ΔE% sample distributions).

Regenerates the per-modulation ΔE% distributions of forward annealing,
reverse annealing from a random state, and reverse annealing from the Greedy
Search candidate on 36-variable decoding problems, and checks the paper's
headline ordering: the randomly-initialised reverse anneal produces the worst
sample distribution.
"""

from conftest import run_once

from repro.experiments.fig6_distributions import Figure6Config, Figure6Driver, format_figure6_table
from repro.experiments.driver import run_driver


def test_figure6_distributions(benchmark, report_writer):
    config = Figure6Config(instances_per_modulation=2, num_reads=400)
    series = run_once(benchmark, run_driver, Figure6Driver(), config)
    report_writer("figure6_distributions", format_figure6_table(series), data=series)

    by_key = {(row.modulation, row.method): row for row in series}
    modulations = {row.modulation for row in series}

    # Paper shape: RA from a random initial state skews the distribution toward
    # poor quality — it must be the worst method for every modulation.
    for modulation in modulations:
        fa = by_key[(modulation, "FA")]
        ra_random = by_key[(modulation, "RA-random")]
        ra_greedy = by_key[(modulation, "RA-greedy")]
        assert ra_random.mean_delta_e >= fa.mean_delta_e - 0.5
        assert ra_random.mean_delta_e >= ra_greedy.mean_delta_e - 0.5

    # The GS-initialised hybrid concentrates samples at low Delta-E%: its mean
    # must stay within a small band of the best method for the higher-order
    # modulations that carry the paper's argument.
    for modulation in ("16-QAM", "64-QAM"):
        if modulation not in modulations:
            continue
        fa = by_key[(modulation, "FA")]
        ra_greedy = by_key[(modulation, "RA-greedy")]
        assert ra_greedy.mean_delta_e <= max(2.0 * fa.mean_delta_e, fa.mean_delta_e + 2.0)
