"""Command-line entry point: run any paper experiment from a terminal.

Installed as ``repro-experiments``::

    repro-experiments fig3            # Figure 3  (QUBO simplification)
    repro-experiments fig6            # Figure 6  (delta-E% distributions)
    repro-experiments fig7            # Figure 7  (initial-state quality)
    repro-experiments fig8            # Figure 8  (p* and TTS vs s_p)
    repro-experiments headline        # Abstract's 2-10x comparison
    repro-experiments pipeline        # Figure 2  (pipelined processing)
    repro-experiments ablation        # initialiser ablation
    repro-experiments constraints     # Figure 4  (soft constraints)
    repro-experiments snr             # extension: BER vs SNR under AWGN
    repro-experiments pause           # extension: the power of pausing
    repro-experiments robustness      # extension: impairment robustness sweep
    repro-experiments serve           # serving layer: multi-user load sweep
    repro-experiments scenarios       # time-varying scenarios: static vs autoscaled
    repro-experiments network         # city-scale capacity placement on a topology
    repro-experiments qos             # QoS classes: classless vs class-aware serving
    repro-experiments all             # everything, in order
    repro-experiments ablate --spec study.toml   # declarative ablation/HPO study

Every experiment is an argparse subcommand built from two shared parent
parsers, so the run-shaping surface is identical everywhere.  The *scale*
options select the configuration variant: ``--paper-scale`` switches the
configurations that support it to the paper's full instance/read counts
(slow); ``--quick`` selects the minimal smoke-test configurations.

The *execution* options shape how work runs without changing results.
``--workers N`` shards any experiment across ``N`` processes — results are
bitwise-identical to the serial run at any worker count.  Shard results are
cached on disk under ``--cache-dir`` (default ``.repro-cache``) so a re-run
with one changed point recomputes only that point; ``--no-cache`` disables
the cache.

``--telemetry[=DIR]`` records an execution trace (sim-time job spans, kernel
timings, cache counters) and exports ``trace.jsonl``, ``metrics.prom`` and
``summary.txt`` into DIR on exit — results are bitwise-identical with or
without it (see ``docs/telemetry.md``).  ``--verbose/-v`` and ``--quiet/-q``
control structured progress logging.

Parsed options land in one :class:`CommonRunOptions` value consumed by every
experiment.  The subcommands and the ``all`` loop come from
:data:`repro.experiments.registry.DRIVERS`: each driver names its config class and
table formatter, so adding a study means one ``DRIVERS`` entry — never
re-wiring flags.  Every experiment subcommand runs through
:func:`~repro.experiments.driver.run_driver` with its study's driver.

``ablate`` runs a declarative ablation/HPO study: ``--spec FILE`` names a
TOML or JSON study spec (see ``docs/ablation.md``), the execution options
apply as above, and the tidy results table plus Pareto summary print to
stdout while the per-study JSON artifact lands at ``--output`` (default
``ablation_<study-name>.json``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re
import sys
from typing import List, Optional

from repro import telemetry
from repro.experiments.driver import config_presets, run_driver
from repro.experiments.registry import DRIVERS
from repro.parallel import ResultCache
from repro.telemetry import exporters
from repro.telemetry.log import configure_logging, get_logger

__all__ = ["CommonRunOptions", "main"]

_log = get_logger(__name__)

#: Default output directory of ``--telemetry`` when no path is given.
DEFAULT_TELEMETRY_DIR = "telemetry-out"


@dataclasses.dataclass(frozen=True)
class CommonRunOptions:
    """The run-shaping options shared by every experiment subcommand.

    Runners receive one of these instead of a positional flag tuple, so the
    CLI surface and the runner signatures cannot drift apart: the shared
    parent parsers produce exactly these fields.
    """

    scale: str = "default"
    workers: Optional[int] = None
    cache: Optional[ResultCache] = None

    @classmethod
    def from_arguments(cls, arguments: argparse.Namespace) -> "CommonRunOptions":
        """Collapse the parsed flags into one options value."""
        scale = "paper" if arguments.paper_scale else ("quick" if arguments.quick else "default")
        cache = None if arguments.no_cache else ResultCache(arguments.cache_dir)
        return cls(scale=scale, workers=arguments.workers, cache=cache)


def _config(config_class, options: CommonRunOptions):
    """The configuration variant for the requested scale.

    A scale the class has no preset for falls back to its default.
    """
    presets = config_presets(config_class)
    return presets.get(options.scale, presets["default"])()


def _run_ablate(spec_path: str, output: Optional[str], options: CommonRunOptions) -> str:
    """Run one declarative study: print its table, write its JSON artifact."""
    from repro.ablation import format_study_table, load_spec, run_study

    spec = load_spec(spec_path)
    result = run_study(spec, workers=options.workers, cache=options.cache)
    if output is None:
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", spec.name)
        output = f"ablation_{slug}.json"
    artifact = pathlib.Path(output)
    if artifact.parent != pathlib.Path("."):
        artifact.parent.mkdir(parents=True, exist_ok=True)
    artifact.write_text(
        json.dumps(result.payload(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _log.info("ablation.artifact_written", path=str(artifact), study=spec.name)
    return format_study_table(result) + f"\nArtifact: {artifact}"


#: Subcommand -> the study's driver.
_DRIVERS = {driver.name: driver for driver in DRIVERS}


def _scale_options() -> argparse.ArgumentParser:
    """Shared parent parser: configuration-scale selection."""
    parent = argparse.ArgumentParser(add_help=False)
    scale = parent.add_mutually_exclusive_group()
    scale.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's full instance and read counts (slow)",
    )
    scale.add_argument(
        "--quick",
        action="store_true",
        help="use the minimal smoke-test configurations",
    )
    return parent


def _execution_options() -> argparse.ArgumentParser:
    """Shared parent parser: sharding, caching, telemetry and verbosity."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard every experiment across N processes; results are "
        "bitwise-identical to the serial run at any worker count (default: serial)",
    )
    parent.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk shard-result cache (every point recomputes)",
    )
    parent.add_argument(
        "--cache-dir",
        default=".repro-cache",
        metavar="DIR",
        help="directory of the content-addressed shard-result cache "
        "(default: .repro-cache)",
    )
    parent.add_argument(
        "--telemetry",
        nargs="?",
        const=DEFAULT_TELEMETRY_DIR,
        default=None,
        metavar="DIR",
        help="record an execution trace and metrics, exporting trace.jsonl, "
        "metrics.prom and summary.txt into DIR (default: "
        f"{DEFAULT_TELEMETRY_DIR}); results are bitwise-identical with or "
        "without telemetry",
    )
    parent.add_argument(
        "--verbose",
        "-v",
        action="count",
        default=0,
        help="increase log verbosity (-v: progress, -vv: per-shard detail)",
    )
    parent.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="only log errors",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing).

    One subparser per experiment, all built from the same two parent parsers
    (:func:`_scale_options` and :func:`_execution_options`), plus ``all`` and
    the spec-driven ``ablate``.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the evaluation figures of the HotNets 2020 hybrid "
        "classical-quantum wireless paper.",
    )
    # Flags that only some subcommands define still need namespace defaults
    # so main() can read them unconditionally.
    parser.set_defaults(spec=None, output=None, paper_scale=False, quick=False)
    scale = _scale_options()
    execution = _execution_options()
    subparsers = parser.add_subparsers(
        dest="experiment",
        required=True,
        metavar="experiment",
        help="which experiment to run ('ablate' runs a declarative study "
        "from --spec and is not part of 'all')",
    )
    for name, driver in sorted(_DRIVERS.items()):
        summary = driver.description
        subparsers.add_parser(name, parents=[scale, execution], help=summary, description=summary)
    subparsers.add_parser(
        "all",
        parents=[scale, execution],
        help="every experiment above, in order",
        description="run every experiment subcommand in name order",
    )
    ablate = subparsers.add_parser(
        "ablate",
        parents=[execution],
        help="declarative ablation/HPO study from --spec (see docs/ablation.md)",
        description="run a declarative ablation/HPO study from a TOML/JSON spec",
    )
    ablate.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="ablation study spec, a .toml or .json file (required; see "
        "docs/ablation.md)",
    )
    ablate.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="where the per-study JSON artifact is written "
        "(default: ablation_<study-name>.json in the working directory)",
    )
    return parser


def _export_telemetry(session: telemetry.TelemetrySession, directory: str) -> None:
    """Write the run's trace, metrics snapshot and summary into ``directory``."""
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    records = exporters.write_trace_jsonl(session.tracer, out / "trace.jsonl")
    metrics_text = exporters.prometheus_text(session.registry)
    (out / "metrics.prom").write_text(metrics_text, encoding="utf-8")
    summary = exporters.format_run_summary(
        [exporters.span_to_record(span) for span in session.tracer.records],
        metrics_text=metrics_text,
    )
    (out / "summary.txt").write_text(summary, encoding="utf-8")
    _log.info(
        "telemetry.exported",
        directory=str(out),
        records=records,
        dropped=session.tracer.dropped,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.workers is not None and arguments.workers < 1:
        parser.error(f"--workers must be at least 1, got {arguments.workers}")
    # An empty DIR would export or cache straight into the working directory.
    if arguments.telemetry == "":
        parser.error("--telemetry=DIR needs a non-empty DIR; omit '=DIR' for the default")
    if arguments.cache_dir == "":
        parser.error("--cache-dir needs a non-empty DIR")
    if arguments.quiet and arguments.verbose:
        parser.error("--quiet and --verbose are mutually exclusive")
    if arguments.experiment == "ablate" and arguments.spec is None:
        parser.error("ablate requires --spec FILE (a .toml or .json study spec)")
    options = CommonRunOptions.from_arguments(arguments)
    configure_logging(-1 if arguments.quiet else arguments.verbose)

    session = telemetry.enable() if arguments.telemetry is not None else None
    names = sorted(_DRIVERS) if arguments.experiment == "all" else [arguments.experiment]
    try:
        # Spec loading happens inside the try so a bad spec still exports
        # whatever telemetry was recorded before the failure.
        if arguments.experiment == "ablate":
            print(_run_ablate(arguments.spec, arguments.output, options))
            print()
        else:
            for name in names:
                driver = _DRIVERS[name]
                config = _config(driver.config_class, options)
                result = run_driver(driver, config, options.workers, options.cache)
                print(driver.format_table(result))
                print()
    finally:
        # Export whatever was recorded even when an experiment raises —
        # a partial trace is exactly what you want when debugging a failure.
        if session is not None:
            _export_telemetry(session, arguments.telemetry)
            telemetry.disable()
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
