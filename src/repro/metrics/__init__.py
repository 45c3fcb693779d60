"""Evaluation metrics used throughout the paper's experiments.

* :mod:`repro.metrics.quality` — the ΔE% solution-quality percentile (paper
  Sec. 4.3) and ground-state success probability.
* :mod:`repro.metrics.tts` — time-to-solution TTS(C_t%) (paper Eq. 2).
* :mod:`repro.metrics.statistics` — the percentile histograms of paper
  Figure 6.
"""

from repro.metrics.quality import (
    delta_e_percent,
    delta_e_distribution,
    success_probability,
)
from repro.metrics.tts import time_to_solution, TTSResult
from repro.metrics.statistics import histogram_percentiles

__all__ = [
    "delta_e_percent",
    "delta_e_distribution",
    "success_probability",
    "time_to_solution",
    "TTSResult",
    "histogram_percentiles",
]
