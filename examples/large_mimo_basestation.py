"""Base-station workload: compare detectors over a batch of channel uses.

The paper's introduction motivates quantum-assisted processing with the
computational load of Large MIMO detection at base stations.  This example
simulates a small batch of uplink channel uses and compares four receivers:

* zero-forcing (linear),
* MMSE (linear),
* the K-best sphere decoder (tree search),
* the hybrid Greedy Search + reverse annealing detector (the paper's design),

reporting bit error rate, how often each detector finds the exact ML solution,
and the modelled per-channel-use compute time.

Run it with::

    python examples/large_mimo_basestation.py
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.classical.sphere_decoder import KBestSphereDecoder
from repro.classical.mmse import MMSEDetector
from repro.classical.zero_forcing import ZeroForcingDetector
from repro.hybrid.solver import HybridMIMODetector
from repro.transform import mimo_to_qubo
from repro.wireless import MIMOConfig, simulate_transmission
from repro.wireless.metrics import bit_error_rate


@dataclass
class DetectorReport:
    name: str
    bit_error_rate: float
    exact_ml_rate: float
    mean_wall_time_ms: float


def _evaluate(
    name: str, detect: Callable, channel_uses, encodings, ground_energies
) -> DetectorReport:
    errors: List[float] = []
    exact: List[bool] = []
    times: List[float] = []
    for transmission, encoding, ground in zip(channel_uses, encodings, ground_energies):
        start = time.perf_counter()
        symbols = detect(transmission)
        times.append((time.perf_counter() - start) * 1e3)
        bits = encoding.payload_bits(encoding.symbols_to_bits(symbols))
        errors.append(bit_error_rate(transmission.transmitted_bits, bits))
        exact.append(
            transmission.instance.objective(symbols) <= ground + encoding.constant + 1e-6
        )
    return DetectorReport(
        name=name,
        bit_error_rate=float(np.mean(errors)),
        exact_ml_rate=float(np.mean(exact)),
        mean_wall_time_ms=float(np.mean(times)),
    )


def main() -> None:
    config = MIMOConfig(num_users=4, modulation="16-QAM")
    num_channel_uses = 10
    channel_uses = [simulate_transmission(config, rng=seed) for seed in range(num_channel_uses)]
    encodings = [mimo_to_qubo(transmission.instance) for transmission in channel_uses]
    ground_energies = [
        encoding.qubo.energy(encoding.symbols_to_bits(transmission.transmitted_symbols))
        for transmission, encoding in zip(channel_uses, encodings)
    ]

    zero_forcing = ZeroForcingDetector()
    mmse = MMSEDetector()
    k_best = KBestSphereDecoder(k_best=16)
    hybrid = HybridMIMODetector(switch_s=0.41, num_reads=200)

    reports = [
        _evaluate(
            "zero-forcing",
            lambda t: zero_forcing.detect(t.instance),
            channel_uses,
            encodings,
            ground_energies,
        ),
        _evaluate(
            "mmse", lambda t: mmse.detect(t.instance), channel_uses, encodings, ground_energies
        ),
        _evaluate(
            "k-best (K=16)",
            lambda t: k_best.detect(t.instance),
            channel_uses,
            encodings,
            ground_energies,
        ),
        _evaluate(
            "hybrid GS+RA",
            lambda t: hybrid.detect(t.instance, rng=1).symbols,
            channel_uses,
            encodings,
            ground_energies,
        ),
    ]

    print(
        f"Base-station batch: {num_channel_uses} channel uses of "
        f"{config.num_users}-user {config.modulation}"
    )
    print(f"{'detector':>15}  {'BER':>7}  {'exact-ML rate':>13}  {'wall time (ms)':>14}")
    for report in reports:
        print(
            f"{report.name:>15}  {report.bit_error_rate:>7.3f}  "
            f"{report.exact_ml_rate:>13.2f}  {report.mean_wall_time_ms:>14.2f}"
        )
    print(
        "\nNote: wall time measures this machine's simulator, not quantum hardware; "
        "the modelled anneal time per channel use is what the paper's TTS metric uses."
    )
    print(
        "On a noiseless, well-conditioned 4x4 link the linear detectors are already "
        "near-ML — the regime the paper targets is larger user counts and tighter "
        "latency budgets, where their complexity or accuracy breaks down "
        "(see benchmarks/bench_headline_speedup.py for the 8-user study)."
    )


if __name__ == "__main__":
    main()
