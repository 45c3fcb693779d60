"""Benchmark E-SC: adaptive autoscaling vs static provisioning on a flash crowd.

The acceptance bar for the scenario engine + autoscaler: on the catalog's
**flash-crowd** scenario (a 6x demand spike in one cell), the autoscaled
elastic pool must cut the deadline-miss rate to at most
``GATE_RATIO`` times that of a **static pool of equal average capacity** —
a fixed pool whose worker count equals the autoscaled run's time-weighted
mean active workers, rounded to the nearest whole worker.  Equal average
capacity makes the comparison honest: the autoscaler wins by *placing*
capacity at the burst, not by consuming more of it.

Both arms are pure annealer pools under EDF with identical batching; the
timing model is deterministic, so the comparison is exactly reproducible
from the fixed workload seed.

The workload is sized so that the static pool is stressed whichever way the
mean rounds.  The site is one cell, so the pool sees the full 6x spike: in a
four-cell site the quiet cells dilute it to about 2.5x, the static pool one
worker above the mean serves the peak, and the gate passes or fails with the
fraction of the mean.  Over seeds 0-63 a static pool of ``ceil(mean)``
workers misses at least 57% of its deadlines, and the autoscaled pool's
miss rate stays under 0.21 times that.  The full ``HORIZON_US`` always
runs: at 8 ms the burst is too short for the autoscaler's warm-up, and a
run takes under a second either way.

Run standalone (``--smoke``, which CI passes to every gate, runs the same
scenario)::

    python benchmarks/bench_scenarios.py [--smoke]

or through the pytest-benchmark harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py -q
"""

from __future__ import annotations

import argparse
import sys

from repro.serving.autoscale import (
    AutoscaleConfig,
    AutoscaleController,
    ElasticBackendPool,
)
from repro.serving.backends import AnnealerServingBackend
from repro.serving.pool import BackendPool
from repro.serving.scenarios import build_scenario
from repro.serving.simulator import RANServingSimulator
from repro.serving.workload import generate_serving_jobs, uniform_cell_profiles
from repro.wireless.mimo import MIMOConfig

#: Acceptance bar: autoscaled miss rate over static equal-average miss rate.
GATE_RATIO = 0.5
#: The static arm must genuinely suffer for the comparison to mean anything.
MIN_STATIC_MISS = 0.05

NUM_CELLS = 1
USERS_PER_CELL = 6
NUM_USERS = 2
MODULATIONS = (MIMOConfig(NUM_USERS, "QPSK"), MIMOConfig(NUM_USERS, "16-QAM"))
BASE_SYMBOL_PERIOD_US = 100.0
TURNAROUND_BUDGET_US = 300.0
HORIZON_US = 20_000.0
MAX_JOBS_PER_USER = 4_000
NUM_READS = 30
LANES = 4
MAX_BATCH = 4
MAX_WORKERS = 8
SEED = 11

AUTOSCALE = AutoscaleConfig(
    interval_us=150.0,
    warmup_us=300.0,
    min_workers=1,
    max_workers=MAX_WORKERS,
    cooldown_us=200.0,
    scale_down_queue_per_worker=1.5,
)


def _flash_crowd_jobs(horizon_us: float):
    scenario = build_scenario("flash-crowd", NUM_CELLS, horizon_us=horizon_us)
    profiles = uniform_cell_profiles(
        num_cells=NUM_CELLS,
        users_per_cell=USERS_PER_CELL,
        configs=MODULATIONS,
        symbol_period_us=BASE_SYMBOL_PERIOD_US,
        arrival_process="poisson",
        turnaround_budget_us=TURNAROUND_BUDGET_US,
    )
    return generate_serving_jobs(
        profiles, MAX_JOBS_PER_USER, rng=SEED, scenario=scenario
    )


def _annealer() -> AnnealerServingBackend:
    return AnnealerServingBackend(num_reads=NUM_READS, lanes=LANES)


def run_flash_crowd_comparison(horizon_us: float = HORIZON_US) -> dict:
    """Autoscaled flash-crowd run, then the static equal-average rematch."""
    jobs = _flash_crowd_jobs(horizon_us)

    controller = AutoscaleController(AUTOSCALE)
    autoscaled = RANServingSimulator(
        pool=ElasticBackendPool(
            annealer=_annealer(),
            max_annealer_workers=MAX_WORKERS,
            initial_annealer_workers=AUTOSCALE.min_workers,
            num_classical_workers=0,
        ),
        policy="edf",
        max_batch_size=MAX_BATCH,
        admission_control=False,
        autoscaler=controller,
    ).run(jobs)
    end_us = max(outcome.finish_us for outcome in autoscaled.outcomes)
    average_active = controller.average_active_workers(end_us)
    equal_capacity = max(1, round(average_active))

    static = RANServingSimulator(
        pool=BackendPool([_annealer()] * equal_capacity),
        policy="edf",
        max_batch_size=MAX_BATCH,
        admission_control=False,
    ).run(jobs)

    autoscaled_miss = autoscaled.deadline_miss_rate or 0.0
    static_miss = static.deadline_miss_rate or 0.0
    ratio = autoscaled_miss / static_miss if static_miss else float("inf")
    return {
        "jobs": len(jobs),
        "horizon_us": horizon_us,
        "average_active": average_active,
        "equal_capacity": equal_capacity,
        "scale_events": len(controller.events),
        "autoscaled_miss": autoscaled_miss,
        "static_miss": static_miss,
        "miss_ratio": ratio,
        "autoscaled_p99_us": autoscaled.p99_latency_us,
        "static_p99_us": static.p99_latency_us,
    }


def format_report(result: dict) -> str:
    """Render the comparison as an aligned text report."""
    lines = [
        "Scenario autoscaling - flash crowd, autoscaled vs static equal-average pool",
        f"{NUM_CELLS} cell(s) x {USERS_PER_CELL} users, horizon "
        f"{result['horizon_us'] / 1000.0:.0f} ms, budget "
        f"{TURNAROUND_BUDGET_US:.0f} us, {NUM_READS} reads, {LANES} lanes; "
        f"autoscale [{AUTOSCALE.min_workers}, {MAX_WORKERS}] workers, "
        f"warm-up {AUTOSCALE.warmup_us:.0f} us",
        f"{'jobs':>28}  {result['jobs']}",
        f"{'scale events':>28}  {result['scale_events']}",
        f"{'mean active workers':>28}  {result['average_active']:.2f}",
        f"{'static pool workers':>28}  {result['equal_capacity']}",
        f"{'autoscaled miss rate':>28}  {result['autoscaled_miss']:.4f}",
        f"{'static miss rate':>28}  {result['static_miss']:.4f}",
        f"{'autoscaled p99 (us)':>28}  {result['autoscaled_p99_us']:.1f}",
        f"{'static p99 (us)':>28}  {result['static_p99_us']:.1f}",
        f"miss ratio {result['miss_ratio']:.3f} (required <= {GATE_RATIO:.2f}; "
        f"static floor {MIN_STATIC_MISS:.2f})",
    ]
    return "\n".join(lines)


def _gate_failures(result: dict) -> list:
    failures = []
    if result["static_miss"] < MIN_STATIC_MISS:
        failures.append(
            f"static equal-average pool missed only {result['static_miss']:.4f} "
            f"(< {MIN_STATIC_MISS}); the flash crowd did not stress it"
        )
    if result["miss_ratio"] > GATE_RATIO:
        failures.append(
            f"autoscaled/static miss ratio {result['miss_ratio']:.3f} exceeds "
            f"the {GATE_RATIO:.2f} acceptance bar"
        )
    return failures


def test_flash_crowd_autoscaling(benchmark, report_writer):
    from conftest import run_once

    result = run_once(benchmark, run_flash_crowd_comparison)
    report_writer("scenarios", format_report(result), data=result)
    assert not _gate_failures(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="the CI flag every gate takes; the flash crowd has no shorter run",
    )
    parser.parse_args(argv)
    result = run_flash_crowd_comparison()
    print(format_report(result))
    failures = _gate_failures(result)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
