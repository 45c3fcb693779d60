"""Benchmark E-F8: reproduce paper Figure 8 (p* and TTS vs s_p).

Regenerates, for a typical 8-user 16-QAM instance, the success probability and
TTS(99%) of FA, FR (oracle c_p), RA initialised from Greedy Search, RA from
the exact ground state, and RA from an intermediate-quality candidate, across
the switch/pause location grid, and checks the paper's qualitative findings:

* RA(GS) succeeds over an interior band of s_p and collapses at both extremes;
* RA initialised with the ground state stays successful at high s_p (the red
  dashed reference line);
* the best RA TTS beats the best FA TTS.
"""

import numpy as np
from conftest import run_once

from repro.experiments.fig8_tts import Figure8Config, Figure8Driver, format_figure8_table
from repro.experiments.driver import run_driver


def _best(rows, method):
    candidates = [row for row in rows if row.method == method]
    return max(candidates, key=lambda row: row.success_probability)


def test_figure8_tts_sweep(benchmark, report_writer):
    config = Figure8Config(num_reads=500)
    rows = run_once(benchmark, run_driver, Figure8Driver(), config)
    report_writer("figure8_tts_sweep", format_figure8_table(rows), data=rows)

    ra_rows = sorted(
        (row for row in rows if row.method == "RA-greedy"), key=lambda row: row.switch_s
    )
    fa_rows = [row for row in rows if row.method == "FA"]
    ground_rows = [row for row in rows if row.method == "RA-ground"]

    # RA(GS) succeeds somewhere on the grid...
    ra_best = _best(rows, "RA-greedy")
    assert ra_best.success_probability > 0.0
    # ...but not at the highest switch points (fluctuations too weak to repair
    # the greedy candidate), reproducing the interior-window shape.
    assert ra_rows[-1].success_probability <= ra_best.success_probability * 0.5 + 1e-9

    # The ground-state-initialised reference stays successful at high s_p.
    high_ground = max(ground_rows, key=lambda row: row.switch_s)
    assert high_ground.success_probability > 0.5

    # Headline ordering: the hybrid's best TTS beats forward annealing's best.
    fa_best_tts = min(row.tts_us for row in fa_rows)
    assert np.isfinite(ra_best.tts_us)
    assert ra_best.tts_us < fa_best_tts
