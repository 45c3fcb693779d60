"""Tests for the extension experiments (SNR study and pause ablation)."""

import numpy as np
import pytest

from repro.experiments.pause_ablation import (
    PauseAblationConfig,
    PauseAblationDriver,
    format_pause_table,
)
from repro.experiments.snr_study import SNRStudyConfig, SNRStudyDriver, format_snr_table
from repro.experiments.driver import run_driver


class TestSNRStudy:
    def test_quick_run_structure(self):
        config = SNRStudyConfig.quick()
        rows = run_driver(SNRStudyDriver(), config)
        assert len(rows) == len(config.snr_grid_db)
        for row in rows:
            assert row.channel_uses == config.channel_uses_per_point
            for value in (row.zero_forcing_ber, row.mmse_ber, row.hybrid_ber):
                assert 0.0 <= value <= 1.0
        assert "SNR" in format_snr_table(rows)

    def test_high_snr_beats_low_snr_for_linear_detectors(self):
        config = SNRStudyConfig(
            snr_grid_db=(0.0, 20.0), channel_uses_per_point=4, num_reads=40
        )
        rows = {row.snr_db: row for row in run_driver(SNRStudyDriver(), config)}
        assert rows[20.0].mmse_ber <= rows[0.0].mmse_ber + 1e-9
        assert rows[20.0].zero_forcing_ber <= rows[0.0].zero_forcing_ber + 1e-9

    def test_deterministic_given_seed(self):
        config = SNRStudyConfig(snr_grid_db=(0.0, 18.0), channel_uses_per_point=2, base_seed=3)
        first = run_driver(SNRStudyDriver(), config)
        second = run_driver(SNRStudyDriver(), config)
        assert first == second


class TestPauseAblation:
    def test_quick_run_structure(self):
        config = PauseAblationConfig.quick()
        rows = run_driver(PauseAblationDriver(), config)
        assert len(rows) == 2 * len(config.pause_durations_us)
        methods = {row.method for row in rows}
        assert methods == {"FA", "RA-greedy"}
        assert "pause" in format_pause_table(rows)

    def test_durations_reflect_pause(self):
        config = PauseAblationConfig.quick()
        rows = run_driver(PauseAblationDriver(), config)
        fa = {row.pause_duration_us: row for row in rows if row.method == "FA"}
        assert fa[1.0].duration_us == pytest.approx(fa[0.0].duration_us + 1.0)

    def test_probabilities_valid(self):
        rows = run_driver(PauseAblationDriver(), PauseAblationConfig.quick())
        for row in rows:
            assert 0.0 <= row.success_probability <= 1.0
            assert row.tts_us > 0 or not np.isfinite(row.tts_us)


class TestCLIIntegrationOfExtensions:
    def test_cli_knows_new_experiments(self):
        import repro.cli as cli

        arguments = cli.build_parser().parse_args(["snr", "--quick"])
        assert arguments.experiment == "snr"
        arguments = cli.build_parser().parse_args(["pause", "--quick"])
        assert arguments.experiment == "pause"

    def test_cli_runs_pause_quick(self, capsys):
        import repro.cli as cli

        assert cli.main(["pause", "--quick"]) == 0
        assert "pausing" in capsys.readouterr().out
