"""Benchmark E-TL: telemetry must be near-zero-cost when disabled.

The telemetry subsystem's overhead contract (see ``docs/telemetry.md``):

* **Kernel path** — a true instrumented-vs-uninstrumented A/B: the public
  ``sa_sweeps`` dispatcher (which carries the telemetry guard) against a
  direct call of the underlying ``sa_sweeps_vectorized`` implementation
  (no guard at all, i.e. the pre-telemetry code path).  With telemetry
  disabled the dispatcher must be within **3%** of the raw kernel.
* **Serving path** — the simulator's instrumentation is emitted *after* the
  event loop from the completed outcome list, so the disabled-mode loop is
  the pre-telemetry loop by construction (one ``telemetry.active()`` lookup
  per run plus a per-autoscale-tick ``None`` check).  The A/B here is two
  interleaved sets of identical disabled runs — an A/A measurement whose
  ratio gates the *measurement noise* at the same 3%, making a genuine
  regression (someone moving work onto the hot loop) stand out.
* The **enabled-mode** cost of both paths is measured and reported (not
  gated): recording is allowed to cost something, being off is not.

Timings interleave the two sides and take the min of each so a transient
load spike on a shared runner cannot skew the ratio.

Run standalone (CI smoke uses ``--smoke``)::

    python benchmarks/bench_telemetry.py [--smoke]

or through the pytest-benchmark harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry.py -q
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro import telemetry
from repro.annealing import kernels
from repro.utils.rng import spawn_rngs

from bench_serving import _jobs, _pooled_simulator

#: Maximum disabled-mode overhead ratio on each gated path.
OVERHEAD_GATE = 1.03

KERNEL_REPEATS = 7
SERVING_REPEATS = 7


# --------------------------------------------------------------------- #
# Kernel path
# --------------------------------------------------------------------- #


def _kernel_state(reads):
    rng = np.random.default_rng(3)
    n = 32
    fields = rng.normal(size=(1, n))
    upper = np.triu(rng.normal(size=(n, n)), 1)
    symmetric = (upper + upper.T)[None]
    mask = np.ones((1, n), dtype=bool)
    sizes = np.array([n])
    fractions = np.linspace(0.0, 1.0, 48)
    settings = [
        (float(s), float((1.0 - s) ** 3), 0.05 + float((1.0 - s) ** 3), 1.0)
        for s in fractions
    ]
    children = spawn_rngs(7, 1)
    spins = np.ascontiguousarray(children[0].choice([-1.0, 1.0], size=(reads, n)).T)[None]
    local = kernels.initial_local_fields(fields, symmetric, spins)
    return spins, local, symmetric, mask, sizes, children, settings


def _time_kernel(runner, reads):
    args = _kernel_state(reads)
    start = time.perf_counter()
    runner(*args)
    return time.perf_counter() - start


def measure_kernel_overhead(reads=2000):
    """Dispatcher (guarded) vs raw implementation, plus the enabled cost."""
    telemetry.disable()
    dispatcher = kernels.sa_sweeps
    raw = kernels.sa_sweeps_vectorized
    _time_kernel(raw, min(reads, 200))  # warm caches
    guarded_times, raw_times = [], []
    for _ in range(KERNEL_REPEATS):
        guarded_times.append(_time_kernel(dispatcher, reads))
        raw_times.append(_time_kernel(raw, reads))
    with telemetry.session():
        enabled_time = min(_time_kernel(dispatcher, reads) for _ in range(3))
    guarded, baseline = min(guarded_times), min(raw_times)
    return {
        "reads": reads,
        "raw_seconds": baseline,
        "disabled_seconds": guarded,
        "enabled_seconds": enabled_time,
        "disabled_ratio": guarded / baseline,
        "enabled_ratio": enabled_time / baseline,
    }


# --------------------------------------------------------------------- #
# Serving path
# --------------------------------------------------------------------- #


def _time_serving(jobs_per_user):
    jobs = _jobs(4.0, jobs_per_user)
    simulator = _pooled_simulator()
    start = time.perf_counter()
    simulator.run(jobs)
    return time.perf_counter() - start


def measure_serving_overhead(jobs_per_user=400):
    """Interleaved A/A of disabled runs, plus the enabled-mode cost."""
    telemetry.disable()
    # The simulator keeps getting faster for several runs (allocator and
    # cache warm-up), so burn a few full-size runs before timing.
    for _ in range(3):
        _time_serving(jobs_per_user)
    a_times, b_times = [], []
    for repeat in range(SERVING_REPEATS):
        # Alternate which side runs first so allocator/cache drift within an
        # iteration cannot systematically favour one side of the A/A.
        sides = (a_times, b_times) if repeat % 2 == 0 else (b_times, a_times)
        for side in sides:
            side.append(_time_serving(jobs_per_user))
    with telemetry.session():
        enabled_time = min(_time_serving(jobs_per_user) for _ in range(3))
    side_a, side_b = min(a_times), min(b_times)
    baseline = min(side_a, side_b)
    return {
        "jobs_per_user": jobs_per_user,
        "disabled_seconds": baseline,
        "disabled_ratio": max(side_a, side_b) / baseline,
        "enabled_seconds": enabled_time,
        "enabled_ratio": enabled_time / baseline,
    }


def measure_overhead(reads=2000, jobs_per_user=400):
    return {
        "gate": OVERHEAD_GATE,
        "kernel": measure_kernel_overhead(reads),
        "serving": measure_serving_overhead(jobs_per_user),
    }


def format_overhead(result):
    kernel, serving = result["kernel"], result["serving"]
    lines = [
        "Telemetry overhead - disabled mode must be free, enabled mode is reported",
        f"{'path':>8}  {'baseline (s)':>12}  {'disabled ratio':>14}  "
        f"{'enabled ratio':>13}  gate <= {result['gate']:.2f}",
        f"{'kernel':>8}  {kernel['raw_seconds']:>12.4f}  {kernel['disabled_ratio']:>14.3f}  "
        f"{kernel['enabled_ratio']:>13.3f}",
        f"{'serving':>8}  {serving['disabled_seconds']:>12.4f}  "
        f"{serving['disabled_ratio']:>14.3f}  {serving['enabled_ratio']:>13.3f}",
    ]
    return "\n".join(lines)


def _check(result):
    kernel_ratio = result["kernel"]["disabled_ratio"]
    serving_ratio = result["serving"]["disabled_ratio"]
    assert kernel_ratio <= OVERHEAD_GATE, (
        f"disabled-telemetry SA dispatcher is {kernel_ratio:.3f}x the raw kernel "
        f"(gate {OVERHEAD_GATE:.2f}x)"
    )
    assert serving_ratio <= OVERHEAD_GATE, (
        f"disabled-telemetry serving A/A ratio {serving_ratio:.3f}x exceeds the "
        f"noise gate {OVERHEAD_GATE:.2f}x"
    )


def test_telemetry_overhead(benchmark, report_writer):
    from conftest import run_once

    result = run_once(benchmark, measure_overhead)
    report_writer("telemetry_overhead", format_overhead(result), data=result)
    _check(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced problem sizes for CI; the 3% gates are still enforced",
    )
    arguments = parser.parse_args(argv)
    result = (
        measure_overhead(reads=800, jobs_per_user=400)
        if arguments.smoke
        else measure_overhead()
    )
    print(format_overhead(result))
    _check(result)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, "src")
    sys.exit(main())
