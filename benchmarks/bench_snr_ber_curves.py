"""Benchmark E-X1 (extension): BER vs SNR under AWGN.

The paper's prototype excludes noise; this extension sweeps SNR on a Rayleigh
fading uplink and checks the expected waterfall behaviour: every detector's
BER improves with SNR, and at high SNR the (near-ML) hybrid is at least as
accurate as zero-forcing.
"""

from conftest import run_once

from repro.experiments.snr_study import SNRStudyConfig, SNRStudyDriver, format_snr_table
from repro.experiments.driver import run_driver


def test_snr_ber_curves(benchmark, report_writer):
    config = SNRStudyConfig(
        snr_grid_db=(0.0, 6.0, 12.0, 18.0), channel_uses_per_point=6, num_reads=120
    )
    rows = run_once(benchmark, run_driver, SNRStudyDriver(), config)
    report_writer("snr_ber_curves", format_snr_table(rows), data=rows)

    by_snr = {row.snr_db: row for row in rows}
    lowest, highest = min(by_snr), max(by_snr)

    # Waterfall shape: BER at the highest SNR is no worse than at the lowest,
    # for every detector.
    for attribute in ("zero_forcing_ber", "mmse_ber", "hybrid_ber"):
        assert getattr(by_snr[highest], attribute) <= getattr(by_snr[lowest], attribute) + 1e-9

    # At high SNR everything should essentially be error free on this small link.
    assert by_snr[highest].mmse_ber <= 0.05
    assert by_snr[highest].hybrid_ber <= 0.15

    # At moderate-to-high SNR, MMSE matches zero-forcing (its regulariser
    # vanishes with the noise); at very low SNR its biased estimate may differ
    # slightly, so the comparison is restricted to the >= 6 dB points.
    for row in rows:
        if row.snr_db >= 6.0:
            assert row.mmse_ber <= row.zero_forcing_ber + 0.05
