"""Device model: energy scales, operating temperature, timing.

The simulator reproduces the *programming surface* of the one analog annealer
the paper uses, a D-Wave 2000Q, and fixes its constants here:

* **Annealing functions** A(s) and B(s): the transverse-field and problem
  Hamiltonian energy scales as functions of the anneal fraction.  At s = 0 the
  transverse term dominates (fully quantum, a measurement would return random
  bits); at s = 1 the problem term dominates and the device behaves as a
  classical memory register — exactly the picture of paper Figure 5.
* **Operating temperature**, which sets the thermal fluctuation scale the
  Monte Carlo backend uses.
* **Timing**: programming, per-read readout and inter-read delays, so
  experiments can report QPU-access-time style figures in addition to the
  pure anneal-schedule durations the paper's TTS metric uses.

Programmed fields and couplings are exact: the simulated device adds no
integrated control error (ICE) noise.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.annealing.schedule import AnnealSchedule
from repro.qubo.ising import IsingModel
from repro.utils.validation import require_positive

__all__ = [
    "relative_problem",
    "relative_transverse",
    "RELATIVE_TEMPERATURE",
    "PER_READ_OVERHEAD_US",
    "normalisation_scale",
    "qpu_access_time_us",
    "describe",
]

# The A(s) / B(s) energy scales, in GHz.  Their shapes follow the qualitative
# form of the published 2000Q curves: the transverse field A(s) decays as
# (1 - s) ** 3 and is effectively zero by s ~ 0.8, while the problem scale
# B(s) grows linearly.
_TRANSVERSE_MAX_GHZ = 6.0
_PROBLEM_MAX_GHZ = 12.0
_TRANSVERSE_EXPONENT = 3.0

#: Operating temperature expressed as an energy (k_B T / h).  Physical
#: devices run at 12-15 mK (~0.25-0.3 GHz); 0.12 GHz is the calibration at
#: which the simulator's FA/RA/FR orderings best match the paper's published
#: behaviour.
_TEMPERATURE_GHZ = 0.12

#: Operating temperature normalised by the problem energy scale B(1).
RELATIVE_TEMPERATURE = _TEMPERATURE_GHZ / _PROBLEM_MAX_GHZ

# Timing constants of the QPU-access-time estimate.
_PROGRAMMING_TIME_US = 10_000.0
_READOUT_TIME_US = 120.0
_INTER_SAMPLE_DELAY_US = 20.0

#: Readout plus inter-read delay: what each read adds beyond its anneal.
PER_READ_OVERHEAD_US = _READOUT_TIME_US + _INTER_SAMPLE_DELAY_US

# Largest programmable |h| and |J|; problems are rescaled into them.
_H_LIMIT = 2.0
_J_LIMIT = 1.0


def _transverse_energy(s: float) -> float:
    """A(s): the transverse-field scale at anneal fraction s."""
    s = float(np.clip(s, 0.0, 1.0))
    return _TRANSVERSE_MAX_GHZ * (1.0 - s) ** _TRANSVERSE_EXPONENT


def _problem_energy(s: float) -> float:
    """B(s): the problem-Hamiltonian scale at anneal fraction s."""
    s = float(np.clip(s, 0.0, 1.0))
    return _PROBLEM_MAX_GHZ * s


def relative_transverse(s: float) -> float:
    """A(s) normalised by B(1), the form the Monte Carlo backend uses."""
    return _transverse_energy(s) / _PROBLEM_MAX_GHZ


def relative_problem(s: float) -> float:
    """B(s) normalised by B(1)."""
    return _problem_energy(s) / _PROBLEM_MAX_GHZ


def normalisation_scale(ising: IsingModel) -> float:
    """Scale factor that brings the model into the programmable range."""
    max_field = float(np.max(np.abs(ising.fields))) if ising.num_spins else 0.0
    max_coupling = float(np.max(np.abs(ising.couplings))) if ising.num_spins else 0.0
    limits = []
    if max_field > 0:
        limits.append(max_field / _H_LIMIT)
    if max_coupling > 0:
        limits.append(max_coupling / _J_LIMIT)
    scale = max(limits) if limits else 1.0
    return max(scale, 1e-12)


def qpu_access_time_us(schedule: AnnealSchedule, num_reads: int) -> float:
    """Estimate total QPU access time for ``num_reads`` anneals of a schedule."""
    require_positive(num_reads, "num_reads")
    per_read = schedule.duration_us + _READOUT_TIME_US + _INTER_SAMPLE_DELAY_US
    return _PROGRAMMING_TIME_US + num_reads * per_read


def describe() -> Dict[str, float]:
    """Summary dictionary used in sampler metadata (a fresh copy per call).

    The noise sigmas stay in it at 0.0, so sample-set metadata keeps the keys
    it has always had.
    """
    return {
        "name": "simulated-2000Q",
        "num_qubits": 2048,
        "temperature_ghz": _TEMPERATURE_GHZ,
        "relative_temperature": RELATIVE_TEMPERATURE,
        "field_noise_sigma": 0.0,
        "coupling_noise_sigma": 0.0,
    }
