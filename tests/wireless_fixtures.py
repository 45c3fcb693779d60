"""Wireless fixtures and the exact ML detector shared by the tests.

No study needs these, so they live beside the tests that use them:

* :class:`IdentityChannel` gives a noiseless identity channel matrix, so a
  detector's output can be checked against the transmitted symbols by eye;
* :func:`maximum_likelihood_detect` enumerates every constellation vector.
  It is the reference oracle for the sphere decoders and for the QUBO
  ground state of the MIMO -> QUBO transform.
"""

import itertools
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState
from repro.utils.validation import require_positive
from repro.wireless.channel import ChannelModel
from repro.wireless.mimo import MIMODetectionResult, MIMOInstance

__all__ = ["IdentityChannel", "maximum_likelihood_detect"]


class IdentityChannel(ChannelModel):
    """A noiseless identity channel, useful for unit tests and debugging."""

    def sample(
        self,
        receive_antennas: int,
        transmit_antennas: int,
        rng: RandomState = None,
    ) -> np.ndarray:
        require_positive(receive_antennas, "receive_antennas")
        require_positive(transmit_antennas, "transmit_antennas")
        matrix = np.zeros((receive_antennas, transmit_antennas), dtype=complex)
        for index in range(min(receive_antennas, transmit_antennas)):
            matrix[index, index] = 1.0
        return matrix


def maximum_likelihood_detect(
    instance: MIMOInstance, max_variables: int = 24
) -> MIMODetectionResult:
    """Exhaustive maximum-likelihood detection.

    Enumerates every constellation vector, so the cost is
    ``M ** num_users``; the ``max_variables`` guard (measured in equivalent
    QUBO variables, i.e. payload bits) protects against accidental
    exponential blow-ups.  Experiments that need exact optima for larger
    instances should use the QUBO-domain exhaustive solver on the transformed
    problem instead, which is equivalent but shares its implementation with
    the solver stack.
    """
    modulation = instance.modulation_scheme
    total_bits = instance.qubo_variable_count
    if total_bits > max_variables:
        raise ConfigurationError(
            f"exhaustive ML over {total_bits} bits exceeds max_variables="
            f"{max_variables}; raise the limit explicitly if this is intended"
        )

    best_objective = np.inf
    best_indices: Tuple[int, ...] = ()
    for indices in itertools.product(range(modulation.order), repeat=instance.num_users):
        candidate = modulation.modulate_indices(indices)
        objective = instance.objective(candidate)
        if objective < best_objective:
            best_objective = objective
            best_indices = indices

    symbols = modulation.modulate_indices(best_indices)
    bits = np.concatenate(
        [np.asarray(modulation.bits_for_index(index), dtype=int) for index in best_indices]
    )
    return MIMODetectionResult(
        symbols=symbols,
        bits=bits,
        objective_value=float(best_objective),
        algorithm="ml-exhaustive",
        metadata={"enumerated": modulation.order ** instance.num_users},
    )
