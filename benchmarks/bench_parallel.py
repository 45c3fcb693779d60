"""Benchmark E-PAR: the sharded parallel runner on the scenario-catalog sweep.

The acceptance bar for the parallel execution subsystem
(:mod:`repro.parallel`), measured on the scenario-catalog study (6 scenarios
x 2 pool arms = 12 independent shards):

* **determinism** — the sharded run's formatted report must be *bitwise
  identical* to the serial run at every tested worker count (always
  enforced);
* **speedup** — >= ``SPEEDUP_GATE``x wall-clock speedup at ``WORKERS``
  workers (enforced when the machine actually has that many cores; on
  smaller hosts the measured speedup is reported and the gate is skipped,
  since the bar is physically unreachable there);
* **caching** — a warm-cache re-run must complete in <= ``WARM_RATIO_GATE``
  of the cold cached run's wall-clock (always enforced; both sides run
  serially so the ratio is core-count independent).

Run standalone (CI smoke uses ``--smoke``)::

    python benchmarks/bench_parallel.py [--smoke]

or through the pytest-benchmark harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -q
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
import time

from repro.experiments.scenario_study import (
    ScenarioStudyConfig,
    ScenarioStudyDriver,
    format_scenario_table,
)
from repro.experiments.driver import run_driver
from repro.parallel import ResultCache

#: Worker count of the headline speedup measurement.
WORKERS = 4
#: Required wall-clock speedup at WORKERS workers (given >= WORKERS cores).
SPEEDUP_GATE = 2.0
#: Warm-cache re-run time as a fraction of the cold cached run.
WARM_RATIO_GATE = 0.2

#: The full catalog sweep: 6 scenarios x 2 arms = 12 shards.
CONFIG = ScenarioStudyConfig()
#: CI smoke: the same catalog over a shorter horizon, checked at 2 workers.
SMOKE_CONFIG = dataclasses.replace(
    ScenarioStudyConfig(), horizon_us=6_000.0, max_jobs_per_user=300
)
SMOKE_WORKERS = 2


def run_comparison(config: ScenarioStudyConfig = CONFIG, workers: int = WORKERS) -> dict:
    """Serial vs sharded vs cached runs of the catalog sweep."""
    start = time.perf_counter()
    serial = run_driver(ScenarioStudyDriver(), config)
    serial_s = time.perf_counter() - start
    serial_table = format_scenario_table(serial)

    start = time.perf_counter()
    parallel = run_driver(ScenarioStudyDriver(), config, workers=workers)
    parallel_s = time.perf_counter() - start
    identical = format_scenario_table(parallel) == serial_table

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cache = ResultCache(cache_dir)
        start = time.perf_counter()
        run_driver(ScenarioStudyDriver(), config, cache=cache)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_driver(ScenarioStudyDriver(), config, cache=cache)
        warm_s = time.perf_counter() - start
        warm_identical = format_scenario_table(warm) == serial_table
        hits, misses = cache.hits, cache.misses

    return {
        "workers": workers,
        "shards": 2 * len(config.scenarios),
        "cpu_count": os.cpu_count() or 1,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "identical": identical,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_ratio": warm_s / cold_s if cold_s > 0 else float("inf"),
        "warm_identical": warm_identical,
        "cache_hits": hits,
        "cache_misses": misses,
    }


def format_report(result: dict) -> str:
    """Render the comparison as an aligned text report."""
    lines = [
        "Parallel sharded runner - scenario-catalog sweep, serial vs sharded vs cached",
        f"{result['shards']} shards across {result['workers']} workers "
        f"({result['cpu_count']} cores visible)",
        f"{'serial wall-clock (s)':>28}  {result['serial_s']:.2f}",
        f"{'sharded wall-clock (s)':>28}  {result['parallel_s']:.2f}",
        f"{'speedup':>28}  {result['speedup']:.2f}x",
        f"{'bitwise-identical output':>28}  {result['identical']}",
        f"{'cold cached run (s)':>28}  {result['cold_s']:.2f}",
        f"{'warm cached run (s)':>28}  {result['warm_s']:.2f}",
        f"{'warm/cold ratio':>28}  {result['warm_ratio']:.3f}",
        f"{'warm run identical':>28}  {result['warm_identical']}",
        f"{'cache hits / misses':>28}  {result['cache_hits']} / {result['cache_misses']}",
        f"gates: identical output (always), warm/cold <= {WARM_RATIO_GATE:.2f} "
        f"(always), speedup >= {SPEEDUP_GATE:.1f}x at {WORKERS} workers "
        f"(given >= {WORKERS} cores)",
    ]
    return "\n".join(lines)


def _gate_failures(result: dict, enforce_speedup: bool = True) -> list:
    failures = []
    if not result["identical"]:
        failures.append(
            f"sharded output at {result['workers']} workers differs from the "
            "serial run (determinism gate)"
        )
    if not result["warm_identical"]:
        failures.append("warm-cache output differs from the serial run")
    if result["warm_ratio"] > WARM_RATIO_GATE:
        failures.append(
            f"warm-cache re-run took {result['warm_ratio']:.3f} of the cold "
            f"run (required <= {WARM_RATIO_GATE:.2f})"
        )
    if enforce_speedup:
        if result["cpu_count"] >= WORKERS:
            if result["speedup"] < SPEEDUP_GATE:
                failures.append(
                    f"speedup {result['speedup']:.2f}x at {result['workers']} "
                    f"workers is below the {SPEEDUP_GATE:.1f}x acceptance bar"
                )
        else:
            print(
                f"NOTE: only {result['cpu_count']} cores visible; the "
                f"{SPEEDUP_GATE:.1f}x @ {WORKERS}-worker speedup gate needs "
                f">= {WORKERS} cores and was skipped "
                f"(measured {result['speedup']:.2f}x)",
                file=sys.stderr,
            )
    return failures


def test_parallel_sharded_sweep(benchmark, report_writer):
    from conftest import run_once

    result = run_once(benchmark, run_comparison)
    report_writer("parallel", format_report(result), data=result)
    assert not _gate_failures(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shorter horizon at 2 workers for CI; the serial-equality and "
        "warm-cache gates are still enforced (speedup is informational)",
    )
    arguments = parser.parse_args(argv)
    if arguments.smoke:
        result = run_comparison(SMOKE_CONFIG, workers=SMOKE_WORKERS)
    else:
        result = run_comparison()
    print(format_report(result))
    failures = _gate_failures(result, enforce_speedup=not arguments.smoke)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
