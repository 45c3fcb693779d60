"""Tests for the repro-experiments command line interface."""

import json
import pathlib

import pytest

import repro.cli as cli
from repro.exceptions import ConfigurationError
from repro.experiments.registry import DRIVERS


@pytest.fixture(autouse=True)
def _run_in_tmp(tmp_path, monkeypatch):
    """Keep the CLI's default shard cache (.repro-cache) out of the repo."""
    monkeypatch.chdir(tmp_path)


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["fig99"])

    def test_subcommands_are_the_study_table(self):
        (subparsers,) = [
            action
            for action in cli.build_parser()._actions
            if action.dest == "experiment"
        ]
        assert set(subparsers.choices) == {d.name for d in DRIVERS} | {"all", "ablate"}

    def test_study_table_holds_every_study(self):
        assert len({driver.name for driver in DRIVERS}) == len(DRIVERS) == 15

    def test_scale_flags_are_exclusive(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["fig3", "--quick", "--paper-scale"])

    @pytest.mark.parametrize("argv", [["--help"], ["fig6", "--help"], ["ablate", "--help"]])
    def test_help_renders(self, argv, capsys):
        # argparse %-formats every help string; a literal "%" used to crash.
        with pytest.raises(SystemExit) as exit_info:
            cli.build_parser().parse_args(argv)
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_parses_quick(self):
        arguments = cli.build_parser().parse_args(["fig6", "--quick"])
        assert arguments.experiment == "fig6"
        assert arguments.quick

    def test_parses_parallel_flags(self):
        arguments = cli.build_parser().parse_args(
            ["scenarios", "--workers", "4", "--no-cache", "--cache-dir", "/tmp/c"]
        )
        assert arguments.workers == 4
        assert arguments.no_cache
        assert arguments.cache_dir == "/tmp/c"

    def test_rejects_non_positive_workers(self):
        with pytest.raises(SystemExit):
            cli.main(["scenarios", "--quick", "--workers", "0"])

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--telemetry", ["fig8", "--quick", "--no-cache", "--telemetry="]),
            ("--cache-dir", ["fig3", "--quick", "--cache-dir="]),
            ("--cache-dir", ["fig3", "--quick", "--cache-dir", ""]),
        ],
    )
    def test_rejects_empty_directory_flags(self, flag, argv, capsys):
        # An empty DIR would scatter exports or cache shards over the cwd.
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err
        assert list(pathlib.Path(".").iterdir()) == []

    def test_bare_telemetry_exports_to_the_default_directory(self, capsys):
        assert cli.main(["fig3", "--quick", "--no-cache", "--telemetry"]) == 0
        capsys.readouterr()
        exported = pathlib.Path(cli.DEFAULT_TELEMETRY_DIR)
        assert exported == pathlib.Path("telemetry-out")
        for name in ("trace.jsonl", "metrics.prom", "summary.txt"):
            assert (exported / name).exists()


class TestMain:
    def test_runs_fig3_quick(self, capsys):
        exit_code = cli.main(["fig3", "--quick"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Figure 3" in captured.out

    def test_runs_constraints_quick(self, capsys):
        exit_code = cli.main(["constraints", "--quick"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "constraint" in captured.out

    def test_runs_pipeline_quick(self, capsys):
        exit_code = cli.main(["pipeline", "--quick"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "pipelined" in captured.out

    def test_runs_serve_quick(self, capsys):
        exit_code = cli.main(["serve", "--quick"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "deadline-miss rate vs offered load" in captured.out
        assert "pooled serving report" in captured.out

    def test_runs_robustness_quick(self, capsys):
        exit_code = cli.main(["robustness", "--quick", "--no-cache"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "detection robustness under channel impairments" in captured.out
        assert "spatial correlation rho" in captured.out

    def test_runs_scenarios_quick(self, capsys):
        exit_code = cli.main(["scenarios", "--quick"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "static vs autoscaled pools" in captured.out
        assert "autoscaled serving report" in captured.out
        # The default on-disk shard cache was populated in the CWD.
        assert list(pathlib.Path(".repro-cache").glob("*/*.pkl"))

    @pytest.mark.parametrize("experiment", sorted(driver.name for driver in DRIVERS))
    def test_workers_match_serial_output(self, experiment, capsys):
        # Every study runs through run_driver, so sharding never changes a table.
        exit_code = cli.main([experiment, "--quick", "--no-cache"])
        serial = capsys.readouterr().out
        assert exit_code == 0
        exit_code = cli.main([experiment, "--quick", "--no-cache", "--workers", "2"])
        parallel = capsys.readouterr().out
        assert exit_code == 0
        assert parallel == serial

    def test_no_cache_skips_the_cache_directory(self, capsys):
        exit_code = cli.main(["serve", "--quick", "--no-cache"])
        assert exit_code == 0
        assert "deadline-miss" in capsys.readouterr().out
        assert not pathlib.Path(".repro-cache").exists()

    def test_cached_rerun_reproduces_output(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cli-cache")
        exit_code = cli.main(["scenarios", "--quick", "--cache-dir", cache_dir])
        cold = capsys.readouterr().out
        assert exit_code == 0
        exit_code = cli.main(["scenarios", "--quick", "--cache-dir", cache_dir])
        warm = capsys.readouterr().out
        assert exit_code == 0
        assert warm == cold


_HPO_SPEC_TOML = """\
name = "cli-hpo"
experiment = "anneal-hpo"
preset = "quick"

[axes]
num_sweeps = [8, 16]

[objectives]
best_energy = "min"
compute_time_us_mean = "min"
"""


def _write_spec(tmp_path, text=_HPO_SPEC_TOML, suffix=".toml"):
    path = tmp_path / f"study{suffix}"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestAblate:
    def test_requires_spec(self):
        with pytest.raises(SystemExit):
            cli.main(["ablate"])

    def test_spec_flag_rejected_for_other_subcommands(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["fig3", "--spec", _write_spec(tmp_path)])

    def test_output_flag_rejected_for_other_subcommands(self):
        with pytest.raises(SystemExit):
            cli.main(["fig3", "--output", "out.json"])

    def test_ablate_not_part_of_all(self, capsys, tmp_path):
        # 'all' must not require --spec (ablate is opt-in only).
        arguments = cli.build_parser().parse_args(["all"])
        assert arguments.spec is None

    def test_runs_toml_spec_and_writes_artifact(self, capsys):
        spec = _write_spec(pathlib.Path("."))
        exit_code = cli.main(["ablate", "--spec", spec, "--no-cache"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Ablation study 'cli-hpo'" in captured.out
        assert "Pareto front:" in captured.out
        artifact = pathlib.Path("ablation_cli-hpo.json")
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert payload["schema_version"] == 1
        assert payload["study"] == "cli-hpo"
        assert len(payload["data"]["points"]) == 2

    def test_runs_json_spec(self, capsys):
        document = {
            "name": "cli-json",
            "experiment": "anneal-hpo",
            "preset": "quick",
            "axes": {"num_sweeps": [8, 16]},
        }
        spec = _write_spec(pathlib.Path("."), json.dumps(document), suffix=".json")
        exit_code = cli.main(["ablate", "--spec", spec, "--no-cache"])
        assert exit_code == 0
        assert "cli-json" in capsys.readouterr().out

    def test_output_flag_controls_artifact_path(self, capsys):
        spec = _write_spec(pathlib.Path("."))
        out = pathlib.Path("reports") / "study.json"
        exit_code = cli.main(["ablate", "--spec", spec, "--no-cache", "--output", str(out)])
        assert exit_code == 0
        assert out.exists()
        assert json.loads(out.read_text())["study"] == "cli-hpo"

    def test_workers_match_serial_artifact(self, capsys):
        spec = _write_spec(pathlib.Path("."))
        cli.main(["ablate", "--spec", spec, "--no-cache", "--output", "serial.json"])
        serial_out = capsys.readouterr().out
        cli.main(
            [
                "ablate",
                "--spec",
                spec,
                "--no-cache",
                "--workers",
                "2",
                "--output",
                "sharded.json",
            ]
        )
        sharded_out = capsys.readouterr().out
        serial = json.loads(pathlib.Path("serial.json").read_text())
        sharded = json.loads(pathlib.Path("sharded.json").read_text())
        assert serial["data"]["points"] == sharded["data"]["points"]
        assert serial["data"]["pareto"] == sharded["data"]["pareto"]
        # Table bodies match too (the stats line is allowed to differ).
        def strip(text):
            return [
                line
                for line in text.splitlines()
                if "worker(s)" not in line and "Artifact:" not in line
            ]

        assert strip(serial_out) == strip(sharded_out)

    def test_cache_stats_surface_in_artifact(self, capsys):
        spec = _write_spec(pathlib.Path("."))
        cli.main(["ablate", "--spec", spec, "--cache-dir", "warm", "--output", "a.json"])
        cold = json.loads(pathlib.Path("a.json").read_text())["data"]["stats"]
        cli.main(["ablate", "--spec", spec, "--cache-dir", "warm", "--output", "b.json"])
        warm = json.loads(pathlib.Path("b.json").read_text())["data"]["stats"]
        capsys.readouterr()
        assert cold["cache_hits"] == 0
        assert warm["cache_hits"] == cold["executed"] > 0
        assert warm["executed"] == 0

    def test_no_cache_disables_the_cache(self, capsys):
        spec = _write_spec(pathlib.Path("."))
        for output in ("a.json", "b.json"):
            cli.main(["ablate", "--spec", spec, "--no-cache", "--output", output])
        capsys.readouterr()
        stats = json.loads(pathlib.Path("b.json").read_text())["data"]["stats"]
        assert stats["cache_hits"] == 0
        assert not pathlib.Path(".repro-cache").exists()

    def test_missing_spec_file_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="no-such-spec.toml"):
            cli.main(["ablate", "--spec", "no-such-spec.toml"])

    def test_toml_parse_error_raises_configuration_error(self):
        spec = _write_spec(pathlib.Path("."), "name = [unclosed\n")
        with pytest.raises(ConfigurationError, match="failed to parse"):
            cli.main(["ablate", "--spec", spec])

    def test_unknown_spec_key_raises_configuration_error(self):
        text = _HPO_SPEC_TOML + "\nsampel_count = 3\n"
        spec = _write_spec(pathlib.Path("."), text)
        with pytest.raises(ConfigurationError, match="sampel_count"):
            cli.main(["ablate", "--spec", spec])

    def test_unknown_axis_field_raises_configuration_error(self):
        text = _HPO_SPEC_TOML.replace("num_sweeps = [8, 16]", "num_sweps = [8, 16]")
        spec = _write_spec(pathlib.Path("."), text)
        with pytest.raises(ConfigurationError, match="num_sweps"):
            cli.main(["ablate", "--spec", spec])

    def test_telemetry_exported_even_when_spec_is_bad(self, capsys):
        with pytest.raises(ConfigurationError):
            cli.main(["ablate", "--spec", "missing.toml", "--telemetry", "tele-out"])
        capsys.readouterr()
        assert (pathlib.Path("tele-out") / "trace.jsonl").exists()
        assert (pathlib.Path("tele-out") / "metrics.prom").exists()

    def test_telemetry_records_point_events(self, capsys):
        spec = _write_spec(pathlib.Path("."))
        exit_code = cli.main(["ablate", "--spec", spec, "--no-cache", "--telemetry", "tele-run"])
        capsys.readouterr()
        assert exit_code == 0
        trace = (pathlib.Path("tele-run") / "trace.jsonl").read_text()
        assert "ablation:cli-hpo" in trace
