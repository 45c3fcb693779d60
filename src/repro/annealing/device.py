"""Device model: energy scales, operating temperature, control noise, timing.

The simulator reproduces the *programming surface* of an analog annealer like
the D-Wave 2000Q the paper uses:

* **Annealing functions** A(s) and B(s): the transverse-field and problem
  Hamiltonian energy scales as functions of the anneal fraction.  At s = 0 the
  transverse term dominates (fully quantum, a measurement would return random
  bits); at s = 1 the problem term dominates and the device behaves as a
  classical memory register — exactly the picture of paper Figure 5.
* **Operating temperature**, which sets the thermal fluctuation scale the
  Monte Carlo backend uses.
* **Integrated control errors (ICE)**: Gaussian perturbations applied to the
  programmed fields/couplings of every anneal, modelling the analog precision
  limits of real hardware.
* **Timing**: programming, per-read readout and inter-read delays, so
  experiments can report QPU-access-time style figures in addition to the
  pure anneal-schedule durations the paper's TTS metric uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.annealing.schedule import AnnealSchedule
from repro.exceptions import ConfigurationError
from repro.qubo.ising import IsingModel
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["AnnealingFunctions", "DeviceModel"]


@dataclass(frozen=True)
class AnnealingFunctions:
    """The A(s) / B(s) energy scales of the annealer, in GHz.

    The default shapes follow the qualitative form of the published 2000Q
    curves: the transverse field A(s) decays super-linearly and is effectively
    zero by s ~ 0.8, while the problem scale B(s) grows close to linearly.

    Attributes
    ----------
    transverse_max_ghz:
        A(0), the maximum transverse-field energy scale.
    problem_max_ghz:
        B(1), the maximum problem-Hamiltonian energy scale.
    transverse_exponent:
        Exponent of the (1 - s) decay of A(s); 1.0 gives a linear decay,
        larger values suppress quantum fluctuations earlier in the anneal.
    """

    transverse_max_ghz: float = 6.0
    problem_max_ghz: float = 12.0
    transverse_exponent: float = 3.0

    def __post_init__(self) -> None:
        if self.transverse_max_ghz <= 0 or self.problem_max_ghz <= 0:
            raise ConfigurationError("annealing energy scales must be positive")
        if self.transverse_exponent <= 0:
            raise ConfigurationError("transverse_exponent must be positive")

    def transverse_energy(self, s: float) -> float:
        """A(s): the transverse-field scale at anneal fraction s."""
        s = float(np.clip(s, 0.0, 1.0))
        return self.transverse_max_ghz * (1.0 - s) ** self.transverse_exponent

    def problem_energy(self, s: float) -> float:
        """B(s): the problem-Hamiltonian scale at anneal fraction s."""
        s = float(np.clip(s, 0.0, 1.0))
        return self.problem_max_ghz * s

    def relative_transverse(self, s: float) -> float:
        """A(s) normalised by B(1), the form the Monte Carlo backend uses."""
        return self.transverse_energy(s) / self.problem_max_ghz

    def relative_problem(self, s: float) -> float:
        """B(s) normalised by B(1)."""
        return self.problem_energy(s) / self.problem_max_ghz


@dataclass(frozen=True)
class DeviceModel:
    """Static description of the simulated annealing device.

    Attributes
    ----------
    name:
        Device label (defaults to the simulated 2000Q).
    num_qubits:
        Number of physical qubits (2048 for the 2000Q's C16 Chimera).
    annealing:
        The A(s)/B(s) energy scales.
    temperature_ghz:
        Operating temperature expressed as an energy (k_B T / h).  Physical
        devices run at 12-15 mK (~0.25-0.3 GHz); the default of 0.12 GHz is
        the calibration at which the simulator's FA/RA/FR orderings best match
        the paper's published behaviour (see DESIGN.md).
    field_noise_sigma / coupling_noise_sigma:
        Standard deviation of the ICE-like Gaussian perturbation applied to
        programmed h / J values (in units of the maximum programmable value,
        i.e. after normalisation).
    programming_time_us / readout_time_us / inter_sample_delay_us:
        Timing constants used for QPU-access-time estimates.
    h_range / j_range:
        Programmable ranges; problems are rescaled into them before execution.
    """

    name: str = "simulated-2000Q"
    num_qubits: int = 2048
    annealing: AnnealingFunctions = field(default_factory=AnnealingFunctions)
    temperature_ghz: float = 0.12
    field_noise_sigma: float = 0.0
    coupling_noise_sigma: float = 0.0
    programming_time_us: float = 10_000.0
    readout_time_us: float = 120.0
    inter_sample_delay_us: float = 20.0
    h_range: Tuple[float, float] = (-2.0, 2.0)
    j_range: Tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        if self.num_qubits <= 0:
            raise ConfigurationError(f"num_qubits must be positive, got {self.num_qubits}")
        if self.temperature_ghz < 0:
            raise ConfigurationError(
                f"temperature_ghz must be non-negative, got {self.temperature_ghz}"
            )
        if self.field_noise_sigma < 0 or self.coupling_noise_sigma < 0:
            raise ConfigurationError("noise sigmas must be non-negative")
        if (
            self.programming_time_us < 0
            or self.readout_time_us < 0
            or self.inter_sample_delay_us < 0
        ):
            raise ConfigurationError("timing constants must be non-negative")

    # ------------------------------------------------------------------ #
    # Problem conditioning
    # ------------------------------------------------------------------ #

    def normalisation_scale(self, ising: IsingModel) -> float:
        """Scale factor that brings the model into the programmable range."""
        max_field = float(np.max(np.abs(ising.fields))) if ising.num_spins else 0.0
        max_coupling = (
            float(np.max(np.abs(ising.couplings))) if ising.num_spins else 0.0
        )
        limits = []
        if max_field > 0:
            limits.append(max_field / max(abs(self.h_range[0]), abs(self.h_range[1])))
        if max_coupling > 0:
            limits.append(max_coupling / max(abs(self.j_range[0]), abs(self.j_range[1])))
        scale = max(limits) if limits else 1.0
        return max(scale, 1e-12)

    def apply_control_noise(
        self, fields: np.ndarray, couplings: np.ndarray, rng: RandomState = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Perturb normalised fields/couplings with ICE-like Gaussian noise."""
        if self.field_noise_sigma == 0.0 and self.coupling_noise_sigma == 0.0:
            return fields, couplings
        generator = ensure_rng(rng)
        noisy_fields = fields + generator.normal(0.0, self.field_noise_sigma, size=fields.shape)
        noisy_couplings = couplings.copy()
        if self.coupling_noise_sigma > 0.0:
            rows, cols = np.nonzero(np.triu(couplings, k=1))
            noise = generator.normal(0.0, self.coupling_noise_sigma, size=rows.size)
            noisy_couplings[rows, cols] += noise
        return noisy_fields, noisy_couplings

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #

    @property
    def relative_temperature(self) -> float:
        """Operating temperature normalised by the problem energy scale B(1)."""
        return self.temperature_ghz / self.annealing.problem_max_ghz

    def qpu_access_time_us(self, schedule: AnnealSchedule, num_reads: int) -> float:
        """Estimate total QPU access time for ``num_reads`` anneals of a schedule."""
        if num_reads <= 0:
            raise ConfigurationError(f"num_reads must be positive, got {num_reads}")
        per_read = schedule.duration_us + self.readout_time_us + self.inter_sample_delay_us
        return self.programming_time_us + num_reads * per_read

    def describe(self) -> Dict[str, float]:
        """Summary dictionary used in sampler metadata."""
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "temperature_ghz": self.temperature_ghz,
            "relative_temperature": self.relative_temperature,
            "field_noise_sigma": self.field_noise_sigma,
            "coupling_noise_sigma": self.coupling_noise_sigma,
        }
