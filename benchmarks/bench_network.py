"""Benchmark E-NW: city-scale capacity placement on a cell topology.

The acceptance bars for the network layer (:mod:`repro.network`) and its
placement study:

1. **City scale in bounded memory** — the aggregate traffic path must
   simulate at least ``MIN_CELLS`` cells and ``MIN_USERS`` users while its
   counter generation allocates no more than ``MEMORY_BUDGET_BYTES`` at
   peak (tracemalloc): the population is sampled as Poisson counters, never
   materialised as per-user objects.
2. **Re-embedding pays** — on the flash-crowd scenario the reactive arm
   (hotspot detector driving the online capacity re-embedder) must cut the
   fluid-model deadline-miss rate to at most ``GATE_RATIO`` times the
   static equal split **at equal total capacity**, and the static arm's hot
   cell must genuinely suffer (``MIN_STATIC_PEAK_MISS`` on its peak-cell
   miss rate — a single hot cell dilutes out of the network-wide average as
   the city grows) for the ratio to mean anything.
3. **Sharding is free** — a 2-worker process-pool run must reproduce the
   serial rows bitwise.

Run standalone (CI smoke uses ``--smoke``)::

    python benchmarks/bench_network.py [--smoke]

or through the pytest-benchmark harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_network.py -q
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tracemalloc

from repro.experiments.driver import run_driver
from repro.experiments.network_study import (
    SCENARIO,
    SYMBOL_PERIOD_US,
    TOPOLOGY_KIND,
    WINDOW_US,
    NetworkStudyConfig,
    NetworkStudyDriver,
)
from repro.network.aggregate import AggregationConfig, cell_window_counts
from repro.network.topology import build_topology
from repro.serving.scenarios import build_scenario

#: Acceptance bar: reactive miss rate over static equal-split miss rate.
GATE_RATIO = 0.5
#: The static arm's hot cell must genuinely suffer for the ratio to mean
#: anything; peak-cell rather than network-wide, so the bar survives city
#: growth diluting one hotspot across hundreds of healthy cells.
MIN_STATIC_PEAK_MISS = 0.05
#: City-scale floor the aggregate path must clear.
MIN_CELLS = 100
MIN_USERS = 1_000_000
#: Peak tracemalloc allocation allowed while generating the counter matrix.
#: The matrix itself is O(windows x cells) — a few hundred KB at city scale —
#: so 64 MB is three orders of magnitude of headroom over a per-user path
#: that would need GBs.
MEMORY_BUDGET_BYTES = 64 * 1024 * 1024


def _study_config(smoke: bool) -> NetworkStudyConfig:
    """Default city (100 cells, 1M users) for smoke; 400 cells / 4M full."""
    return NetworkStudyConfig() if smoke else NetworkStudyConfig.city_scale()


def _measure_counter_memory(config: NetworkStudyConfig) -> dict:
    """Peak allocation while sampling the city's aggregate counter matrix."""
    topology = build_topology(TOPOLOGY_KIND, config.rows, config.cols)
    scenario = build_scenario(SCENARIO, topology.num_cells, config.horizon_us, topology=topology)
    aggregation = AggregationConfig(
        users_per_cell=config.users_per_cell,
        symbol_period_us=SYMBOL_PERIOD_US,
        window_us=WINDOW_US,
    )
    tracemalloc.start()
    try:
        counts = cell_window_counts(scenario, aggregation, rng=config.base_seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "num_cells": topology.num_cells,
        "simulated_users": config.simulated_users,
        "num_windows": int(counts.shape[0]),
        "counter_bytes": int(counts.nbytes),
        "peak_alloc_bytes": int(peak),
    }


def run_network_gates(smoke: bool = False) -> dict:
    """Memory gate, placement comparison and 2-worker serial-equality."""
    config = _study_config(smoke)
    memory = _measure_counter_memory(config)

    serial = run_driver(NetworkStudyDriver(), config)
    sharded = run_driver(NetworkStudyDriver(), config, workers=2)

    rows = {row.placement: row for row in serial.rows}
    static_miss = rows["static"].miss_rate
    reactive_miss = rows["reactive"].miss_rate
    ratio = reactive_miss / static_miss if static_miss else float("inf")
    return {
        **memory,
        "scenario": SCENARIO,
        "static_miss": static_miss,
        "static_peak_miss": rows["static"].peak_cell_miss_rate,
        "reactive_miss": reactive_miss,
        "oracle_miss": rows["oracle"].miss_rate,
        "miss_ratio": ratio,
        "capacity_moved": rows["reactive"].capacity_moved,
        "hotspot_raises": rows["reactive"].hotspot_raises,
        "false_positive_raises": rows["reactive"].false_positive_raises,
        "detection_latency_windows": rows["reactive"].detection_latency_windows,
        "sharded_identical": sharded.rows == serial.rows,
    }


def format_report(result: dict) -> str:
    """Render the gate outcomes as an aligned text report."""
    lines = [
        "Network layer - city-scale placement, reactive vs static equal split",
        f"{result['num_cells']} cells, {result['simulated_users']:,} simulated "
        f"users, scenario {result['scenario']!r}, "
        f"{result['num_windows']} KPI windows",
        f"{'counter matrix (KiB)':>28}  {result['counter_bytes'] / 1024:.1f}",
        f"{'peak alloc (MiB)':>28}  "
        f"{result['peak_alloc_bytes'] / (1024 * 1024):.2f} "
        f"(budget {MEMORY_BUDGET_BYTES / (1024 * 1024):.0f})",
        f"{'static miss rate':>28}  {result['static_miss']:.4f} "
        f"(peak cell {result['static_peak_miss']:.4f})",
        f"{'reactive miss rate':>28}  {result['reactive_miss']:.4f}",
        f"{'oracle miss rate':>28}  {result['oracle_miss']:.4f}",
        f"{'capacity moved':>28}  {result['capacity_moved']:.1f}",
        f"{'hotspot raises':>28}  {result['hotspot_raises']} "
        f"({result['false_positive_raises']} false, latency "
        f"{result['detection_latency_windows']} windows)",
        f"{'2-worker rows identical':>28}  {result['sharded_identical']}",
        f"miss ratio {result['miss_ratio']:.3f} (required <= {GATE_RATIO:.2f}; "
        f"static peak-cell floor {MIN_STATIC_PEAK_MISS:.2f})",
    ]
    return "\n".join(lines)


def _gate_failures(result: dict) -> list:
    failures = []
    if result["num_cells"] < MIN_CELLS or result["simulated_users"] < MIN_USERS:
        failures.append(
            f"study covers {result['num_cells']} cells / "
            f"{result['simulated_users']:,} users "
            f"(< {MIN_CELLS} cells / {MIN_USERS:,} users city-scale floor)"
        )
    if result["peak_alloc_bytes"] > MEMORY_BUDGET_BYTES:
        failures.append(
            f"counter generation peaked at {result['peak_alloc_bytes']:,} bytes "
            f"(> {MEMORY_BUDGET_BYTES:,} budget); the aggregate path is "
            "materialising the population"
        )
    if result["static_peak_miss"] < MIN_STATIC_PEAK_MISS:
        failures.append(
            f"static equal split's worst cell missed only "
            f"{result['static_peak_miss']:.4f} (< {MIN_STATIC_PEAK_MISS}); "
            "the flash crowd did not stress it"
        )
    if result["miss_ratio"] > GATE_RATIO:
        failures.append(
            f"reactive/static miss ratio {result['miss_ratio']:.3f} exceeds "
            f"the {GATE_RATIO:.2f} acceptance bar"
        )
    if not result["sharded_identical"]:
        failures.append("2-worker sharded rows differ from the serial run")
    return failures


def test_network_placement_gates(benchmark, report_writer):
    from conftest import run_once

    result = run_once(benchmark, run_network_gates, smoke=True)
    report_writer("network", format_report(result), data=result)
    assert not _gate_failures(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="100-cell / 1M-user city for CI; every gate is still enforced",
    )
    arguments = parser.parse_args(argv)
    result = run_network_gates(smoke=arguments.smoke)
    from _emit import emit_report

    name = "network_smoke" if arguments.smoke else "network"
    emit_report(
        pathlib.Path(__file__).parent / "output", name, format_report(result), result
    )
    failures = _gate_failures(result)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
