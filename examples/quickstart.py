"""Quickstart: detect one Large MIMO channel use with the hybrid solver.

This example walks the full path of the paper's prototype:

1. simulate a noiseless 4-user 16-QAM uplink over a unit-gain random-phase
   channel (the paper's experimental protocol);
2. reduce maximum-likelihood detection to a QUBO with the QuAMax transform;
3. run the classical Greedy Search to obtain a candidate solution;
4. refine it with reverse annealing on the simulated quantum annealer;
5. decode the best sample back into symbols and payload bits and compare with
   what was actually transmitted.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.classical.greedy import GreedySearchSolver
from repro.hybrid.solver import HybridMIMODetector
from repro.metrics.quality import delta_e_percent
from repro.transform import mimo_to_qubo
from repro.wireless import MIMOConfig, simulate_transmission
from repro.wireless.metrics import bit_error_rate, symbol_error_rate


def main() -> None:
    # 1. One channel use of a 4-user 16-QAM uplink (16 QUBO variables).
    config = MIMOConfig(num_users=4, modulation="16-QAM")
    transmission = simulate_transmission(config, rng=9)
    instance = transmission.instance
    print(f"Simulated {transmission.config_summary}")

    # 2. The QuAMax reduction to QUBO form.
    encoding = mimo_to_qubo(instance)
    ground_state = encoding.symbols_to_bits(transmission.transmitted_symbols)
    ground_energy = encoding.qubo.energy(ground_state)
    print(f"QUBO variables: {encoding.num_variables}, ground-state energy: {ground_energy:.3f}")

    # 3. The classical stage on its own, for reference.
    greedy = GreedySearchSolver().solve(encoding.qubo)
    print(
        "Greedy Search candidate: energy "
        f"{greedy.energy:.3f} (dE_IS% = {delta_e_percent(greedy.energy, ground_energy):.2f})"
    )

    # 4. The full hybrid detector (Greedy Search + reverse annealing).
    detector = HybridMIMODetector(switch_s=0.45, num_reads=300)
    detection, details = detector.detect_with_details(instance, rng=11)
    print(
        "Hybrid best energy: "
        f"{details.best_energy:.3f} "
        f"(p* = {details.sampleset.success_probability(ground_energy):.3f}, "
        f"classical {details.classical_time_us:.2f} us + quantum {details.quantum_time_us:.1f} us)"
    )

    # 5. Compare the decoded payload with the transmitted one.
    ber = bit_error_rate(transmission.transmitted_bits, detection.bits)
    ser = symbol_error_rate(transmission.transmitted_symbols, detection.symbols)
    print(f"Detection BER: {ber:.3f}, SER: {ser:.3f}")
    if ber == 0.0:
        print("The hybrid solver recovered the transmitted payload exactly.")
    else:
        print("The hybrid solver did not reach the exact ML solution on this run; "
              "increase num_reads or tune switch_s (see examples/parameter_tuning_study.py).")


if __name__ == "__main__":
    main()
