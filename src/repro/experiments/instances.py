"""Synthesis of MIMO-detection QUBO instances per the paper's protocol.

Section 4.2: "We synthesize 10-20 (QUBO) instances of random MIMO detection
for various user numbers and modulations (BPSK, QPSK, 16-QAM, and 64-QAM)
with unit gain signal and unit gain wireless channel with random phase. [...]
In the experiments, we exclude the wireless noise (AWGN)."

Because the protocol is noiseless, the transmitted symbol vector is an exact
zero-residual solution of the ML objective and therefore a ground state of the
QuAMax QUBO.  :func:`synthesize_instance` exploits that to provide the exact
ground-state energy for instances far too large to brute-force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.qubo.model import QUBOModel
from repro.transform.mimo_to_qubo import MIMOQuboEncoding, mimo_to_qubo
from repro.utils.rng import stable_seed
from repro.utils.validation import require_positive
from repro.wireless.channel import UnitGainRandomPhaseChannel
from repro.wireless.mimo import MIMOConfig, MIMOTransmission, simulate_transmission
from repro.wireless.modulation import get_modulation

__all__ = [
    "InstanceBundle",
    "synthesize_instance",
    "synthesize_instances",
    "variables_for",
    "paper_figure6_configurations",
    "instance_qubos",
]


@dataclass(frozen=True)
class InstanceBundle:
    """One synthetic detection instance with its QUBO encoding and ground truth.

    Attributes
    ----------
    transmission:
        The simulated channel use (instance + transmitted payload).
    encoding:
        The QuAMax QUBO encoding of the instance.
    ground_state:
        A ground-state bitstring of the QUBO (the transmitted payload's
        encoding in the noiseless protocol).
    ground_energy:
        Its (negative) QUBO energy.
    """

    transmission: MIMOTransmission
    encoding: MIMOQuboEncoding
    ground_state: np.ndarray
    ground_energy: float

    @property
    def num_variables(self) -> int:
        """QUBO variable count of the instance."""
        return self.encoding.num_variables

    @property
    def modulation(self) -> str:
        """Modulation name of the instance."""
        return self.transmission.instance.modulation

    @property
    def num_users(self) -> int:
        """Number of spatial streams."""
        return self.transmission.instance.num_users

    def describe(self) -> str:
        """One-line description used in benchmark output."""
        return (
            f"{self.num_users}-user {self.modulation} "
            f"({self.num_variables} variables, E_g = {self.ground_energy:.3f})"
        )


def variables_for(num_users: int, modulation: str) -> int:
    """QUBO variable count for a user count and modulation."""
    return num_users * get_modulation(modulation).bits_per_symbol


def paper_figure6_configurations(num_variables: int = 36) -> List[Tuple[int, str]]:
    """The (users, modulation) pairs giving ``num_variables``-variable problems.

    Figure 6 uses 36-variable decoding problems for every modulation: 36-user
    BPSK, 18-user QPSK, 9-user 16-QAM and 6-user 64-QAM.
    """
    configurations = []
    for modulation in ("BPSK", "QPSK", "16-QAM", "64-QAM"):
        bits = get_modulation(modulation).bits_per_symbol
        if num_variables % bits == 0:
            configurations.append((num_variables // bits, modulation))
    return configurations


def synthesize_instance(num_users: int, modulation: str, seed: int = 0) -> InstanceBundle:
    """Synthesize one noiseless MIMO detection instance with known ground truth.

    The channel is the paper's unit-gain random-phase channel.

    Parameters
    ----------
    num_users, modulation:
        Link configuration (receive antennas = users, the paper's setting).
    seed:
        Deterministic instance seed; the same seed always yields the same
        instance regardless of call order.
    """
    config = MIMOConfig(num_users=num_users, modulation=modulation, snr_db=None)
    rng = np.random.default_rng(stable_seed("instance", num_users, modulation, seed))
    transmission = simulate_transmission(config, UnitGainRandomPhaseChannel(), rng)
    encoding = mimo_to_qubo(transmission.instance)

    ground_state = encoding.symbols_to_bits(transmission.transmitted_symbols)
    return InstanceBundle(
        transmission=transmission,
        encoding=encoding,
        ground_state=np.asarray(ground_state, dtype=np.int8),
        ground_energy=float(encoding.qubo.energy(ground_state)),
    )


def instance_qubos(bundles: Sequence[InstanceBundle]) -> List[QUBOModel]:
    """The QUBO models of a bundle list, in order.

    Convenience for the experiment drivers, which hand whole instance batches
    to the batched solvers/samplers (``solve_batch`` / ``sample_qubo_batch``)
    instead of looping.
    """
    return [bundle.encoding.qubo for bundle in bundles]


def synthesize_instances(
    count: int,
    num_users: int,
    modulation: str,
    base_seed: int = 0,
) -> List[InstanceBundle]:
    """Synthesize ``count`` independent instances of one configuration."""
    require_positive(count, "count")
    return [
        synthesize_instance(num_users, modulation, seed=base_seed + index)
        for index in range(count)
    ]
