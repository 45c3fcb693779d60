"""Design Challenge 2: finding the best schedule parameters.

The performance of every annealing flavour hinges on the switch/pause location
s_p (and FR's turning point c_p).  This example sweeps s_p for forward
annealing and for reverse annealing initialised with the Greedy Search
candidate on one 8-user 16-QAM instance, prints the success probability and
TTS(99%) at every grid point, and reports each method's best operating point —
a small-scale version of the paper's Figure 8 study.

Run it with::

    python examples/parameter_tuning_study.py
"""

from __future__ import annotations

import numpy as np

from repro.classical.greedy import GreedySearchSolver
from repro.experiments.instances import synthesize_instance
from repro.hybrid.parameters import best_switch_point, sweep_switch_point
from repro.metrics.quality import delta_e_percent


def main() -> None:
    bundle = synthesize_instance(8, "16-QAM", seed=12)
    qubo = bundle.encoding.qubo
    ground_energy = bundle.ground_energy
    print(f"Instance: {bundle.describe()}")

    greedy = GreedySearchSolver().solve(qubo)
    print(
        "Greedy Search initial state: "
        f"dE_IS% = {delta_e_percent(greedy.energy, ground_energy):.2f}"
    )

    grid = tuple(np.round(np.arange(0.29, 0.66, 0.04), 2))
    num_reads = 400

    # Fixed seeds make the printed table the same on every run.
    fa_records = sweep_switch_point(
        qubo, ground_energy, method="FA", switch_values=grid, num_reads=num_reads, rng=1
    )
    ra_records = sweep_switch_point(
        qubo,
        ground_energy,
        method="RA",
        switch_values=grid,
        initial_state=greedy.assignment,
        num_reads=num_reads,
        rng=2,
    )

    print(f"\n{'s_p':>5}  {'FA p*':>7}  {'FA TTS (us)':>12}  {'RA p*':>7}  {'RA TTS (us)':>12}")
    for fa, ra in zip(fa_records, ra_records):
        fa_tts = f"{fa.tts.tts_us:.1f}" if fa.tts.is_finite else "inf"
        ra_tts = f"{ra.tts.tts_us:.1f}" if ra.tts.is_finite else "inf"
        print(
            f"{fa.switch_s:>5.2f}  {fa.success_probability:>7.3f}  {fa_tts:>12}  "
            f"{ra.success_probability:>7.3f}  {ra_tts:>12}"
        )

    fa_best = best_switch_point(fa_records)
    ra_best = best_switch_point(ra_records)
    print(
        f"\nBest FA operating point: s_p = {fa_best.switch_s:.2f}, "
        f"p* = {fa_best.success_probability:.3f}, TTS = {fa_best.tts.tts_us:.1f} us"
    )
    print(
        f"Best RA operating point: s_p = {ra_best.switch_s:.2f}, "
        f"p* = {ra_best.success_probability:.3f}, TTS = {ra_best.tts.tts_us:.1f} us"
    )
    if fa_best.tts.is_finite and ra_best.tts.is_finite:
        print(f"Hybrid TTS speedup over FA: {fa_best.tts.tts_us / ra_best.tts.tts_us:.1f}x")


if __name__ == "__main__":
    main()
