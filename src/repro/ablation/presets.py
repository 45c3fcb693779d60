"""Canonical in-tree study spec.

``ablation_quick_spec`` is the micro two-axis robustness study frozen as the
``ablation_quick`` golden fixture and exercised by the CI smoke step: a
2×2 grid over SNR and annealing switch time with a BER/latency Pareto front.
"""

from __future__ import annotations

from repro.ablation.spec import AblationSpec

__all__ = ["ablation_quick_spec"]


def ablation_quick_spec() -> AblationSpec:
    """A seconds-scale 2×2 SNR × switch-time study with a Pareto front.

    The correlated 3×3 channel at low SNR keeps the hybrid detector's BER
    off the floor, so the two objectives genuinely trade off and the front
    is a strict subset of the grid.
    """
    return AblationSpec(
        name="ablation-quick",
        experiment="robustness",
        preset="quick",
        base={
            "num_users": 3,
            "num_receive_antennas": 3,
            "channel_uses_per_point": 3,
            "num_reads": 30,
            "correlation_grid": (0.6,),
            "velocity_grid_mps": (),
            "csi_error_grid": (),
            "interference_grid": (),
        },
        axes={
            "snr_db": (0.0, 8.0),
            "switch_s": (0.35, 0.45),
        },
        objectives=(
            ("hybrid_ber_mean", "min"),
            ("hybrid_time_us_mean", "min"),
        ),
    )
