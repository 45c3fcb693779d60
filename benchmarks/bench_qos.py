"""Benchmark E-QS: class-aware admission protects urllc through a busy day.

The acceptance bar for the QoS layer: on the catalog's **busy-day** scenario
(diurnal ramp, flash crowd, outage, cool-down) with a mixed
urllc/embb/best-effort population and compressed-velocity handover, the
**class-aware** plant must keep the urllc deadline-miss rate within
``GATE_URLLC_RATIO`` times its *uncongested* baseline (plus a small absolute
floor for a zero baseline) while the degradable classes absorb the overload
on the slow classical fallback.  The **classless** plant — shape-only
batching and class-blind admission on the *same* jobs — must show urllc
misses rising, because pressured batches are demoted as a unit and urllc
gets dragged onto the classical path with its bulk batch-mates.

A second gate checks the identity contract: on a single-default-class
workload the ``class_aware`` flag is bitwise invisible, so the QoS machinery
cannot have perturbed the pre-QoS ``serve``/``scenarios`` outputs.

All arms share one deterministic workload seed, so the comparison is exactly
reproducible.  The busy day always runs its full ``HORIZON_US``: over seeds
0-63 the classless urllc miss rate is at least 0.30 and the class-aware one
zero at every seed, so the gate does not hang on a lucky seed.  At an 8 ms
day the flash crowd is too short to stress the classless arm at most seeds,
and it saves no time: a run takes under a second either way.

Run standalone (``--smoke``, which CI passes to every gate, runs the same
day)::

    python benchmarks/bench_qos.py [--smoke]

or through the pytest-benchmark harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_qos.py -q
"""

from __future__ import annotations

import argparse
import sys

from repro.network.topology import build_topology
from repro.serving import (
    AnnealerServingBackend,
    BackendPool,
    ClassicalServingBackend,
    HandoverModel,
    RANServingSimulator,
    generate_serving_jobs,
    uniform_cell_profiles,
)
from repro.serving.scenarios import build_scenario
from repro.wireless.mimo import MIMOConfig

#: Acceptance bar: congested class-aware urllc miss over its uncongested baseline.
GATE_URLLC_RATIO = 1.05
#: Allowance when the uncongested baseline misses nothing (1.05 x 0 = 0).
URLLC_ABS_FLOOR = 0.01
#: The classless arm must genuinely hurt urllc for the comparison to mean anything.
MIN_CLASSLESS_URLLC_MISS = 0.05
#: Best-effort must visibly absorb the overload in the class-aware arm.
MIN_BEST_EFFORT_ABSORB = 0.2

NUM_CELLS = 4
USERS_PER_CELL = 3
NUM_USERS = 2
MODULATIONS = (MIMOConfig(NUM_USERS, "QPSK"), MIMOConfig(NUM_USERS, "16-QAM"))
SERVICE_CLASSES = ("urllc", "embb", "best_effort")
CONGESTED_PERIOD_US = 120.0
UNCONGESTED_PERIOD_US = 260.0
TURNAROUND_BUDGET_US = 600.0
HORIZON_US = 20_000.0
MAX_JOBS_PER_USER = 2_000
NUM_READS = 30
LANES = 4
MAX_BATCH = 4
ANNEALER_WORKERS = 2
#: A deliberately slow software fallback: demotion is a real degradation.
CLASSICAL_TIME_PER_VARIABLE_US = 25.0
VELOCITY_MPS = 30.0
#: Fluid-flow crossing rates are per-microsecond; a ms-scale horizon stands in
#: for hours of wall-clock RAN time, so handover is compressed to match.
HANDOVER_TIME_COMPRESSION = 1e4
SEED = 11


def _busy_day_jobs(horizon_us: float, symbol_period_us: float):
    topology = build_topology("line", 1, NUM_CELLS)
    scenario = build_scenario(
        "busy-day", NUM_CELLS, horizon_us=horizon_us, topology=topology
    )
    profiles = uniform_cell_profiles(
        num_cells=NUM_CELLS,
        users_per_cell=USERS_PER_CELL,
        configs=MODULATIONS,
        symbol_period_us=symbol_period_us,
        arrival_process="poisson",
        turnaround_budget_us=TURNAROUND_BUDGET_US,
        topology=topology,
        service_classes=SERVICE_CLASSES,
    )
    handover = HandoverModel(
        velocity_mps=VELOCITY_MPS * HANDOVER_TIME_COMPRESSION, seed=SEED
    )
    return topology, generate_serving_jobs(
        profiles, MAX_JOBS_PER_USER, rng=SEED, scenario=scenario, handover=handover
    )


def _simulator(topology, class_aware: bool) -> RANServingSimulator:
    backends = [
        AnnealerServingBackend(num_reads=NUM_READS, lanes=LANES)
        for _ in range(ANNEALER_WORKERS)
    ]
    backends.append(
        ClassicalServingBackend(time_per_variable_us=CLASSICAL_TIME_PER_VARIABLE_US)
    )
    return RANServingSimulator(
        pool=BackendPool(backends),
        policy="edf",
        max_batch_size=MAX_BATCH,
        admission_control=True,
        topology=topology,
        class_aware=class_aware,
    )


def _class_slice(report, name: str) -> dict:
    entry = report.class_report(name)
    if entry is None:
        return {"jobs": 0, "miss": 0.0, "demoted": 0.0, "p99_us": 0.0}
    return {
        "jobs": entry.jobs,
        "miss": entry.deadline_miss_rate or 0.0,
        "demoted": entry.demotion_rate,
        "p99_us": entry.p99_latency_us,
    }


def _identity_check() -> bool:
    """Single default class: the class_aware flag must be bitwise invisible."""
    profiles = uniform_cell_profiles(
        num_cells=2,
        users_per_cell=2,
        configs=list(MODULATIONS),
        symbol_period_us=CONGESTED_PERIOD_US,
        arrival_process="poisson",
        turnaround_budget_us=TURNAROUND_BUDGET_US,
    )
    jobs = generate_serving_jobs(profiles, jobs_per_user=40, rng=SEED)
    aware = _simulator(None, class_aware=True).run(jobs, rng=SEED)
    blind = _simulator(None, class_aware=False).run(jobs, rng=SEED)
    return aware.outcomes == blind.outcomes


def run_busy_day_comparison(horizon_us: float = HORIZON_US) -> dict:
    """Three busy-day arms plus the single-class identity check."""
    topology, jobs = _busy_day_jobs(horizon_us, CONGESTED_PERIOD_US)
    aware = _simulator(topology, class_aware=True).run(jobs)
    classless = _simulator(topology, class_aware=False).run(jobs)
    _, light_jobs = _busy_day_jobs(horizon_us, UNCONGESTED_PERIOD_US)
    baseline = _simulator(topology, class_aware=True).run(light_jobs)

    result = {
        "horizon_us": horizon_us,
        "jobs": len(jobs),
        "handover_fraction": sum(1 for job in jobs if job.handed_over) / len(jobs),
        "identity_bitwise": _identity_check(),
    }
    for arm, report in (("aware", aware), ("classless", classless), ("baseline", baseline)):
        result[arm] = {
            "miss": report.deadline_miss_rate or 0.0,
            "classes": {name: _class_slice(report, name) for name in SERVICE_CLASSES},
        }
    urllc_baseline = result["baseline"]["classes"]["urllc"]["miss"]
    result["urllc_allowed_miss"] = max(
        GATE_URLLC_RATIO * urllc_baseline, URLLC_ABS_FLOOR
    )
    return result


def format_report(result: dict) -> str:
    """Render the comparison as an aligned text report."""
    lines = [
        "QoS classes - busy day, class-aware vs classless vs uncongested baseline",
        f"{NUM_CELLS} cells x {USERS_PER_CELL} users, classes "
        f"{'/'.join(SERVICE_CLASSES)}, horizon {result['horizon_us'] / 1000.0:.0f} ms, "
        f"{ANNEALER_WORKERS} annealers + 1 classical "
        f"({CLASSICAL_TIME_PER_VARIABLE_US:.0f} us/var), velocity "
        f"{VELOCITY_MPS:.0f} m/s (x{HANDOVER_TIME_COMPRESSION:.0e} compression)",
        f"{'jobs':>26}  {result['jobs']}",
        f"{'handover fraction':>26}  {result['handover_fraction']:.3f}",
    ]
    for arm in ("aware", "classless", "baseline"):
        lines.append(f"{arm + ' overall miss':>26}  {result[arm]['miss']:.4f}")
        for name in SERVICE_CLASSES:
            slice_ = result[arm]["classes"][name]
            lines.append(
                f"{arm + ' ' + name:>26}  miss={slice_['miss']:.4f}  "
                f"demoted={slice_['demoted']:.3f}  p99={slice_['p99_us']:.0f} us"
            )
    lines.append(
        f"urllc gate: aware {result['aware']['classes']['urllc']['miss']:.4f} <= "
        f"{result['urllc_allowed_miss']:.4f} "
        f"(= max({GATE_URLLC_RATIO:.2f} x baseline, {URLLC_ABS_FLOOR:.2f})); "
        f"classless urllc floor {MIN_CLASSLESS_URLLC_MISS:.2f}; "
        f"identity bitwise: {'yes' if result['identity_bitwise'] else 'NO'}"
    )
    return "\n".join(lines)


def _gate_failures(result: dict) -> list:
    failures = []
    urllc_aware = result["aware"]["classes"]["urllc"]["miss"]
    if urllc_aware > result["urllc_allowed_miss"]:
        failures.append(
            f"class-aware urllc miss {urllc_aware:.4f} exceeds the allowed "
            f"{result['urllc_allowed_miss']:.4f} "
            f"({GATE_URLLC_RATIO:.2f} x uncongested baseline)"
        )
    best_effort = result["aware"]["classes"]["best_effort"]
    if best_effort["miss"] < MIN_BEST_EFFORT_ABSORB and best_effort["demoted"] == 0.0:
        failures.append(
            f"best-effort absorbed nothing (miss {best_effort['miss']:.4f}, "
            f"demoted {best_effort['demoted']:.3f}); the overload went unpaid"
        )
    urllc_classless = result["classless"]["classes"]["urllc"]["miss"]
    if urllc_classless < MIN_CLASSLESS_URLLC_MISS:
        failures.append(
            f"classless urllc miss {urllc_classless:.4f} stayed under "
            f"{MIN_CLASSLESS_URLLC_MISS}; the busy day did not stress it"
        )
    if not result["identity_bitwise"]:
        failures.append(
            "single-default-class run differs between class_aware=True and False"
        )
    return failures


def test_qos_gates(benchmark, report_writer):
    from conftest import run_once

    result = run_once(benchmark, run_busy_day_comparison)
    report_writer("qos", format_report(result), data=result)
    assert not _gate_failures(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="the CI flag every gate takes; the busy day has no shorter run",
    )
    parser.parse_args(argv)
    result = run_busy_day_comparison()
    print(format_report(result))
    failures = _gate_failures(result)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
