"""Evaluation metrics used throughout the paper's experiments.

* :mod:`repro.metrics.quality` — the ΔE% solution-quality percentile (paper
  Sec. 4.3) and ground-state success probability.
* :mod:`repro.metrics.tts` — time-to-solution TTS(C_t%) (paper Eq. 2).
* :mod:`repro.metrics.statistics` — the percentile histograms of paper
  Figure 6.
"""
