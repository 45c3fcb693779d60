"""A small multi-cell RAN load sweep, end to end.

The serving subsystem turns the paper's Figure-2 sketch into a schedulable
plant: many users across several cells emit deadline-tagged detection jobs,
and a pool of batched annealer workers (plus a classical fallback under
admission control) serves them.  This example

1. runs the offered-load sweep comparing the serialized, pipelined and
   pooled architectures (deadline-miss rate vs load);
2. re-runs the pooled system at one load point with *solution evaluation on*
   and a traffic hotspot in one cell, printing the full serving report
   (latency percentiles, batch occupancy, per-backend utilisation and the
   optimum-detection rate).

Everything is timing-modelled except step 2's detection solves, so the whole
script finishes in well under a minute::

    PYTHONPATH=src python examples/ran_load_study.py
"""

from __future__ import annotations

from repro.annealing import QuantumAnnealerSimulator, SpinVectorMonteCarloBackend
from repro.experiments.load_study import LoadStudyConfig, LoadStudyDriver, format_load_study_table
from repro.experiments.driver import run_driver
from repro.serving import (
    AnnealerServingBackend,
    BackendPool,
    ClassicalServingBackend,
    RANServingSimulator,
    format_serving_report,
    generate_serving_jobs,
    uniform_cell_profiles,
)
from repro.wireless import MIMOConfig


def main() -> None:
    # ---- 1. The architecture comparison sweep -------------------------
    config = LoadStudyConfig(
        num_cells=2,
        users_per_cell=3,
        jobs_per_user=8,
        load_factors=(0.5, 1.0, 2.0, 4.0, 8.0),
        num_reads=30,
    )
    print(format_load_study_table(run_driver(LoadStudyDriver(), config)))
    print()

    # ---- 2. One evaluated run with a hotspot cell ---------------------
    profiles = uniform_cell_profiles(
        num_cells=3,
        users_per_cell=2,
        configs=[MIMOConfig(2, "QPSK"), MIMOConfig(2, "16-QAM")],
        symbol_period_us=500.0,
        turnaround_budget_us=700.0,
        cell_load_factors=[1.0, 1.0, 3.0],  # cell 2 is a traffic hotspot
    )
    jobs = generate_serving_jobs(profiles, jobs_per_user=6, rng=1)

    sampler = QuantumAnnealerSimulator(
        backend=SpinVectorMonteCarloBackend(sweeps_per_microsecond=8), seed=3
    )
    pool = BackendPool(
        [AnnealerServingBackend(sampler=sampler, num_reads=20, lanes=4)] * 2
        + [ClassicalServingBackend()]
    )
    simulator = RANServingSimulator(
        pool=pool, policy="edf", max_batch_size=4, evaluate_solutions=True
    )
    report = simulator.run(jobs, rng=2)
    print(
        format_serving_report(
            report, title="evaluated pooled run (3 cells, hotspot in cell 2)"
        )
    )
    hot = [o for o in report.outcomes if o.cell_id == 2]
    print(
        f"\nhotspot cell contributed {len(hot)}/{report.num_jobs} jobs; "
        f"its mean latency: "
        f"{sum(o.latency_us for o in hot) / len(hot):.1f} us"
    )


if __name__ == "__main__":
    main()
