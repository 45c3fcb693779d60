"""Benchmark E-HL: the paper's headline claim (abstract / Sec. 1).

"Preliminary results on a low-latency, large MIMO system ... showing
approximately 2-10x better performance in terms of processing time than prior
published results" and "for an eight-user, 16-QAM detection/decoding problem,
our version of RA achieves approximately up to 10x higher success probability
than the previously published results for FA."

The benchmark compares RA(GS) against FA at each method's best operating point
on the default typical instance and checks that the hybrid wins by a factor in
(or above) the paper's 2-10x band.
"""

from conftest import run_once

from repro.experiments import HeadlineConfig, HeadlineDriver, format_headline_report, run_driver


def test_headline_speedup(benchmark, report_writer):
    config = HeadlineConfig(num_reads=600)
    result = run_once(benchmark, run_driver, HeadlineDriver(), config)
    report_writer("headline_speedup", format_headline_report(result), data=result)

    # The hybrid must beat the FA baseline on the typical instance...
    assert result.median_success_ratio >= 2.0
    # ...by a processing-time factor compatible with the paper's 2-10x claim
    # (we accept anything >= 2x; the simulator typically lands around 5-15x).
    assert result.median_tts_speedup >= 2.0
    # And it must do so at a physically sensible operating point: the best RA
    # switch location lies strictly inside (0, 1).
    assert all(0.0 < switch < 1.0 for switch in result.ra_best_switch)


# --------------------------------------------------------------------- #
# Benchmark E-K: replica-parallel kernel throughput
# --------------------------------------------------------------------- #
#
# Absolute sweeps/sec of the SA and SVMC kernels at the paper-relevant
# problem size (N = 32, i.e. 8-user 16-QAM) for two read counts.  Alongside
# the formatted table the report writer archives a machine-readable JSON
# record (benchmarks/output/kernel_throughput.json) that the nightly
# workflow uploads, giving a sweeps/sec trend across runs.  End-to-end
# kernel throughput inside a study is perfbench's
# ``annealing.reads_per_kernel_s``.

import time

import numpy as np

from repro.annealing import kernels
from repro.utils.rng import spawn_rngs

KERNEL_PROBLEM_SIZE = 32
KERNEL_READ_COUNTS = (600, 5000)
KERNEL_NUM_SWEEPS = 48


def _kernel_problem(seed=0):
    rng = np.random.default_rng(seed)
    n = KERNEL_PROBLEM_SIZE
    fields = rng.normal(size=(1, n))
    upper = np.triu(rng.normal(size=(n, n)), 1)
    symmetric = (upper + upper.T)[None]
    sizes = np.array([n])
    return fields, symmetric, sizes


def _anneal_settings():
    """A representative forward-anneal settings table (with freeze-out)."""
    fractions = np.linspace(0.0, 1.0, KERNEL_NUM_SWEEPS)
    settings = []
    for s in fractions:
        problem = float(s)
        transverse = float((1.0 - s) ** 3)
        activity = max(min(1.0, transverse / 0.15), 0.02)
        settings.append((problem, transverse, 0.05 + transverse, activity))
    return settings


def _time_sa(reads):
    """The classical solver's dynamics: geometric cooling, sequential flips, tracked energies."""
    fields, symmetric, sizes = _kernel_problem()
    children = spawn_rngs(7, 1)
    n = KERNEL_PROBLEM_SIZE
    # Contiguous spin-major state, exactly as the solver allocates it.
    spins = np.ascontiguousarray(children[0].choice([-1.0, 1.0], size=(reads, n)).T)[None]
    local = kernels.initial_local_fields(fields, symmetric, spins)
    energies = 0.5 * (
        np.einsum("bnr,bnr->br", spins, local) + np.einsum("bnr,bn->br", spins, fields)
    )
    temperatures = np.geomspace(np.abs(symmetric).max(), 0.01, KERNEL_NUM_SWEEPS)[:, None]
    start = time.perf_counter()
    kernels.sa_sweeps(
        spins, local, symmetric, sizes, children, temperatures,
        energies=energies, best_spins=spins.copy(), best_energies=energies.copy(),
    )
    return time.perf_counter() - start


def _time_svmc(reads):
    fields, symmetric, sizes = _kernel_problem()
    children = spawn_rngs(7, 1)
    n = KERNEL_PROBLEM_SIZE
    theta = np.ascontiguousarray(children[0].uniform(0.0, np.pi, size=(reads, n)).T)[None]
    cosines = np.cos(theta)
    sines = np.sin(theta)
    local = kernels.initial_local_fields(fields, symmetric, cosines)
    start = time.perf_counter()
    kernels.svmc_sweeps(
        theta, cosines, sines, local, symmetric, sizes, children, _anneal_settings(),
        proposal_width=0.8, uniform_fraction=0.05,
    )
    return time.perf_counter() - start


def measure_kernel_throughput():
    """sweeps/sec of each kernel family at each read count."""
    results = {"families": {}}
    for family, timer in (("sa", _time_sa), ("svmc", _time_svmc)):
        rows = {}
        for reads in KERNEL_READ_COUNTS:
            timer(min(reads, 100))  # warm caches
            # The min of several runs, so a transient load spike on a
            # shared runner cannot skew the point.
            fastest = min(timer(reads) for _ in range(6))
            rows[str(reads)] = {"kernel_sweeps_per_sec": KERNEL_NUM_SWEEPS / fastest}
        results["families"][family] = rows
    return results


def format_kernel_throughput(results):
    lines = [
        "Replica-parallel kernel throughput "
        f"(N = {KERNEL_PROBLEM_SIZE}, {KERNEL_NUM_SWEEPS} sweeps)",
        f"{'family':>6}  {'reads':>6}  {'kernel sw/s':>12}",
    ]
    for family, rows in results["families"].items():
        for reads, row in rows.items():
            lines.append(f"{family:>6}  {reads:>6}  {row['kernel_sweeps_per_sec']:>12.1f}")
    return "\n".join(lines)


def test_kernel_sweep_throughput(benchmark, report_writer):
    results = run_once(benchmark, measure_kernel_throughput)
    report_writer("kernel_throughput", format_kernel_throughput(results), data=results)
