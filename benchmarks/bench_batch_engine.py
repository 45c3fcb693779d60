"""Benchmark: batched multi-instance engine vs the sequential loop.

The paper's Figure 2 architecture only keeps up with large-MIMO traffic if
many channel uses are in flight concurrently.  This benchmark measures the
enabling primitive: solving B independent QUBO instances through one
vectorised ``run_batch`` call instead of B sequential ``run`` calls (each
``run_batch`` at B = 1), on the spin-vector Monte Carlo (SVMC) backend every
study samples through.

The headline configuration is 32 instances of 16 variables (4-user 16-QAM
detection problems) with 64 reverse-annealing reads each.  Because the
batched kernel consumes per-instance child generators in the same order the
sequential loop does, the two paths return bitwise-identical spins — the
speedup is pure execution efficiency, not a different computation.

Run standalone (CI smoke uses ``--smoke``)::

    python benchmarks/bench_batch_engine.py [--smoke]

or through the pytest-benchmark harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_engine.py -q
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.annealing.device import RELATIVE_TEMPERATURE, normalisation_scale
from repro.annealing.schedule import reverse_anneal_schedule
from repro.annealing.svmc import SpinVectorMonteCarloBackend
from repro.experiments.instances import synthesize_instances
from repro.qubo.ising import qubo_to_ising
from repro.utils.rng import spawn_rngs

#: Headline configuration: 32 x 16-variable instances (4-user 16-QAM).
BATCH_SIZE = 32
NUM_USERS = 4
MODULATION = "16-QAM"
NUM_READS = 64
SWITCH_S = 0.41
SEED = 7


def _prepare_problems(batch_size: int, num_users: int, modulation: str):
    """Normalised fields/couplings and initial spins for a batch of instances."""
    bundles = synthesize_instances(batch_size, num_users, modulation, base_seed=SEED)
    fields, couplings, initial_spins = [], [], []
    for bundle in bundles:
        ising = qubo_to_ising(bundle.encoding.qubo)
        scale = normalisation_scale(ising)
        fields.append(ising.fields / scale)
        couplings.append(ising.couplings / scale)
        initial_spins.append(2 * bundle.ground_state.astype(np.int8) - 1)
    return fields, couplings, initial_spins


def run_comparison(
    batch_size: int = BATCH_SIZE,
    num_users: int = NUM_USERS,
    modulation: str = MODULATION,
    num_reads: int = NUM_READS,
) -> dict:
    """Time the sequential loop vs the batched kernel on identical work.

    Returns a dictionary with both wall times, the throughput speedup, and
    whether the two paths produced bitwise-identical spins.
    """
    backend = SpinVectorMonteCarloBackend()
    schedule = reverse_anneal_schedule(SWITCH_S, pause_duration_us=1.0)
    fields, couplings, initial_spins = _prepare_problems(batch_size, num_users, modulation)
    common = dict(
        schedule=schedule,
        num_reads=num_reads,
        relative_temperature=RELATIVE_TEMPERATURE,
    )

    start = time.perf_counter()
    sequential = [
        backend.run(
            fields=fields[index],
            couplings=couplings[index],
            initial_spins=initial_spins[index],
            rng=child,
            **common,
        )
        for index, child in enumerate(spawn_rngs(SEED, batch_size))
    ]
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = backend.run_batch(
        fields=fields,
        couplings=couplings,
        initial_spins=initial_spins,
        rng=SEED,
        **common,
    )
    batched_s = time.perf_counter() - start

    identical = all(np.array_equal(a, b) for a, b in zip(sequential, batched))
    return {
        "batch_size": batch_size,
        "num_variables": int(fields[0].size),
        "num_reads": num_reads,
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "speedup": sequential_s / batched_s,
        "bitwise_identical": identical,
    }


def format_report(result: dict) -> str:
    """Render the comparison as an aligned text report."""
    lines = [
        "Batched multi-instance engine - SVMC backend",
        f"{result['batch_size']} instances x {result['num_variables']} variables "
        f"x {result['num_reads']} reads (reverse anneal, s_p = {SWITCH_S})",
        f"{'sequential loop':>18}: {result['sequential_s'] * 1e3:9.1f} ms",
        f"{'batched kernel':>18}: {result['batched_s'] * 1e3:9.1f} ms",
        f"{'throughput gain':>18}: {result['speedup']:9.2f}x",
        f"{'bitwise identical':>18}: {result['bitwise_identical']}",
    ]
    return "\n".join(lines)


def test_batch_engine_throughput(benchmark, report_writer):
    from conftest import run_once

    result = run_once(benchmark, run_comparison)
    report_writer("batch_engine", format_report(result), data=result)
    # The batched kernel must be a faithful reimplementation...
    assert result["bitwise_identical"]
    # ...and the acceptance bar: at least 3x throughput at batch size 32.
    assert result["speedup"] >= 3.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced configuration for CI: checks correctness and prints "
        "timings without enforcing the speedup bar",
    )
    arguments = parser.parse_args(argv)
    if arguments.smoke:
        result = run_comparison(batch_size=8, num_reads=16)
    else:
        result = run_comparison()
    print(format_report(result))
    if not result["bitwise_identical"]:
        print("FAIL: batched kernel diverged from the sequential loop", file=sys.stderr)
        return 1
    if not arguments.smoke and result["speedup"] < 3.0:
        print("FAIL: batched speedup below the 3x acceptance bar", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
