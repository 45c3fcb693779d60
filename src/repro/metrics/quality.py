"""Solution-quality metrics: ΔE% and success probability.

The paper defines the quality of a sample with cost ``E_s`` relative to the
best possible cost ``E_g`` as

    ΔE% = 100 * (E_g - |E_s|) / E_g                     (paper Sec. 4.3)

where, by the QuAMax convention this library follows (the constant term of
the detection objective is excluded from the QUBO), the ground-state energy
``E_g`` is negative and every sample energy lies in ``[E_g, 0]``.  Evaluating
the formula with the *magnitudes* of those costs — equivalently
``100 * (|E_g| - |E_s|) / |E_g|`` — yields 0% exactly at the global optimum
and 100% for a worthless sample, which is how the paper's Figures 6–8 read.
:func:`delta_e_percent` implements that reading and also handles the general
case where energies may be positive (a sample *above* zero can only happen for
models that did not come from the QuAMax transform; its gap is then measured
linearly past 100%).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.annealing.sampleset import SampleSet
from repro.exceptions import ConfigurationError

__all__ = [
    "delta_e_percent",
    "delta_e_distribution",
    "success_probability",
]


def delta_e_percent(sample_energy: float, ground_energy: float) -> float:
    """Quality percentile ΔE% of one sample relative to the ground energy.

    0% means the sample reached the global optimum; 100% means the sample is
    as far from the optimum as the zero-energy assignment.  ``ground_energy``
    must be strictly negative (the QuAMax convention); a non-negative ground
    energy makes the percentile ill-defined and raises ``ConfigurationError``.
    """
    if ground_energy >= 0:
        raise ConfigurationError(
            "delta_e_percent requires a strictly negative ground energy "
            f"(QuAMax convention); got {ground_energy}"
        )
    magnitude_ground = abs(ground_energy)
    # Samples can in principle land above zero energy; measure their gap
    # linearly so the metric stays monotone in the energy.
    gap = sample_energy - ground_energy
    return float(100.0 * gap / magnitude_ground)


def delta_e_distribution(
    sampleset_or_energies: Union[SampleSet, Sequence[float]],
    ground_energy: float,
) -> np.ndarray:
    """ΔE% of every read in a sample set (or plain energy sequence).

    For a :class:`SampleSet` the distribution is expanded by occurrence count,
    one entry per read, matching how the paper's Figure 6 histograms are
    normalised.
    """
    if isinstance(sampleset_or_energies, SampleSet):
        energies = sampleset_or_energies.energies(expanded=True)
    else:
        energies = np.asarray(sampleset_or_energies, dtype=float).ravel()
    return np.array([delta_e_percent(energy, ground_energy) for energy in energies])


def success_probability(sampleset: SampleSet, ground_energy: float) -> float:
    """Fraction of reads that found the ground state (p* in the paper)."""
    return sampleset.success_probability(ground_energy)
