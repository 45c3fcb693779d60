"""Benchmark E-X3: the channel-impairment robustness sweep.

The acceptance bar for the impairment engine
(:mod:`repro.wireless.fading`) measured through the robustness study
(:mod:`repro.experiments.robustness_study`):

* **identity** — impairments constructed with every knob at its default
  must leave :func:`~repro.wireless.mimo.simulate_transmission` *bitwise
  identical* to the unimpaired path (always enforced);
* **determinism** — the sharded sweep's formatted table must be bitwise
  identical to the serial run at ``WORKERS`` workers (always enforced);
* **degradation** — detection quality must respond to the impairments:
  at the sweep's harshest CSI-error and spatial-correlation points the
  hybrid detector's BER must be at least as high as at the corresponding
  zero-impairment points, and its optimum-detection rate at the zero
  points must stay above ``CLEAN_OPTIMUM_GATE`` (the hybrid is a
  heuristic, so a perfect 1.0 is not guaranteed at finite reads).
  Enforced on the full run; the smoke run's two-use streams are too short
  to bound noise.

Run standalone (CI smoke uses ``--smoke``)::

    python benchmarks/bench_robustness.py [--smoke]

or through the pytest-benchmark harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_robustness.py -q
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.experiments.robustness_study import (
    RobustnessStudyConfig,
    RobustnessStudyDriver,
    format_robustness_table,
)
from repro.experiments.driver import run_driver
from repro.wireless import ChannelImpairments, MIMOConfig
from repro.wireless.mimo import simulate_transmission

#: Worker count of the serial-equality check.
WORKERS = 4
#: Required hybrid optimum-detection rate at the zero-impairment points.
CLEAN_OPTIMUM_GATE = 0.8
#: Seeds sampled by the identity bitwise gate.
IDENTITY_SEEDS = range(8)

CONFIG = RobustnessStudyConfig()
SMOKE_CONFIG = RobustnessStudyConfig.quick()
SMOKE_WORKERS = 2


def identity_is_bitwise() -> bool:
    """Whether identity impairments reproduce the unimpaired path exactly."""
    config = MIMOConfig(num_users=3, modulation="QPSK", snr_db=12.0)
    for seed in IDENTITY_SEEDS:
        plain = simulate_transmission(config, rng=seed)
        impaired = simulate_transmission(
            config, rng=seed, impairments=ChannelImpairments()
        )
        if not (
            np.array_equal(plain.instance.channel_matrix, impaired.instance.channel_matrix)
            and np.array_equal(plain.instance.received, impaired.instance.received)
            and np.array_equal(plain.transmitted_bits, impaired.transmitted_bits)
        ):
            return False
    return True


def run_comparison(config: RobustnessStudyConfig = CONFIG, workers: int = WORKERS) -> dict:
    """Serial vs sharded runs of the sweep, plus the quality deltas."""
    serial = run_driver(RobustnessStudyDriver(), config)
    serial_table = format_robustness_table(serial)
    parallel = run_driver(RobustnessStudyDriver(), config, workers=workers)
    identical = format_robustness_table(parallel) == serial_table

    def _row(axis: str, value: float):
        return next(row for row in serial if row.axis == axis and row.value == value)

    csi_zero = _row("csi-error", config.csi_error_grid[0])
    csi_worst = _row("csi-error", config.csi_error_grid[-1])
    corr_zero = _row("correlation", config.correlation_grid[0])
    corr_worst = _row("correlation", config.correlation_grid[-1])

    return {
        "table": serial_table,
        "workers": workers,
        "points": len(serial),
        "identical": identical,
        "identity_bitwise": identity_is_bitwise(),
        "clean_optimum_rate": min(
            csi_zero.hybrid_optimum_rate, corr_zero.hybrid_optimum_rate
        ),
        "csi_ber_delta": csi_worst.hybrid_ber - csi_zero.hybrid_ber,
        "correlation_ber_delta": corr_worst.hybrid_ber - corr_zero.hybrid_ber,
    }


def format_report(result: dict) -> str:
    """Render the comparison as an aligned text report."""
    lines = [
        result["table"],
        "",
        f"{'grid points':>26}  {result['points']}",
        f"{'sharded == serial':>26}  {result['identical']} "
        f"(at {result['workers']} workers)",
        f"{'identity bitwise':>26}  {result['identity_bitwise']}",
        f"{'clean-point P(opt)':>26}  {result['clean_optimum_rate']:.3f}",
        f"{'hybrid BER delta (CSI)':>26}  {result['csi_ber_delta']:+.3f}",
        f"{'hybrid BER delta (corr)':>26}  {result['correlation_ber_delta']:+.3f}",
        f"gates: identity bitwise + sharded==serial (always); clean P(opt) >= "
        f"{CLEAN_OPTIMUM_GATE} and BER deltas >= 0 (full run)",
    ]
    return "\n".join(lines)


def _gate_failures(result: dict, enforce_degradation: bool = True) -> list:
    failures = []
    if not result["identity_bitwise"]:
        failures.append(
            "identity impairments changed simulate_transmission output "
            "(bitwise-reproduction gate)"
        )
    if not result["identical"]:
        failures.append(
            f"sharded sweep at {result['workers']} workers differs from the "
            "serial run (determinism gate)"
        )
    if enforce_degradation:
        if result["clean_optimum_rate"] < CLEAN_OPTIMUM_GATE:
            failures.append(
                f"hybrid optimum rate at the zero-impairment points is "
                f"{result['clean_optimum_rate']:.3f} "
                f"(required >= {CLEAN_OPTIMUM_GATE})"
            )
        if result["csi_ber_delta"] < 0:
            failures.append(
                f"hybrid BER fell by {-result['csi_ber_delta']:.3f} at the "
                "worst CSI error (degradation gate)"
            )
        if result["correlation_ber_delta"] < 0:
            failures.append(
                f"hybrid BER fell by {-result['correlation_ber_delta']:.3f} at "
                "the worst spatial correlation (degradation gate)"
            )
    return failures


def test_robustness_sweep(benchmark, report_writer):
    from conftest import run_once

    result = run_once(benchmark, run_comparison)
    report_writer("robustness", format_report(result), data=result)
    assert not _gate_failures(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick grids at 2 workers for CI; the identity and "
        "serial-equality gates are still enforced (degradation gates need "
        "the full streams)",
    )
    arguments = parser.parse_args(argv)
    if arguments.smoke:
        result = run_comparison(SMOKE_CONFIG, workers=SMOKE_WORKERS)
    else:
        result = run_comparison()
    print(format_report(result))
    failures = _gate_failures(result, enforce_degradation=not arguments.smoke)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
