"""Wireless fixtures and the exact ML detector shared by the tests.

No study needs these, so they live beside the tests that use them:

* :class:`IdentityChannel` gives a noiseless identity channel matrix, so a
  detector's output can be checked against the transmitted symbols by eye;
* :func:`maximum_likelihood_detect` enumerates every constellation vector.
  It is the reference oracle for the sphere decoders and for the QUBO
  ground state of the MIMO -> QUBO transform;
* :func:`symbol_index` maps an exact constellation point back to its index
  and rejects any other value, so a test can check that a detector outputs
  constellation points and that modulation round-trips;
* :func:`gray_decode` inverts :func:`repro.wireless.modulation.gray_code`,
  and :func:`gray_bits_to_transform_bits` inverts
  :func:`repro.transform.symbol_mapping.transform_bits_to_gray_bits`: the
  round-trip oracles of the Gray labelling and of the transform's payload
  mapping.
"""

import itertools
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState
from repro.utils.validation import require_positive
from repro.wireless.channel import ChannelModel
from repro.wireless.mimo import MIMODetectionResult, MIMOInstance
from repro.wireless.modulation import Modulation, bits_to_int, int_to_bits

__all__ = [
    "IdentityChannel",
    "maximum_likelihood_detect",
    "symbol_index",
    "gray_decode",
    "gray_bits_to_transform_bits",
]


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
    points = modulation.points
    for indices in itertools.product(range(modulation.order), repeat=instance.num_users):
        candidate = points[list(indices)]
        objective = instance.objective(candidate)
        if objective < best_objective:
            best_objective = objective
            best_indices = indices

    symbols = points[list(best_indices)]
    width = modulation.bits_per_symbol
    bits = np.concatenate(
        [np.asarray(int_to_bits(index, width), dtype=int) for index in best_indices]
    )
    return MIMODetectionResult(
        symbols=symbols,
        bits=bits,
        objective_value=float(best_objective),
        algorithm="ml-exhaustive",
        metadata={"enumerated": modulation.order ** instance.num_users},
    )


def symbol_index(modulation: Modulation, symbol: complex, tolerance: float = 1e-9) -> int:
    """Return the index of an exact constellation point.

    Raises :class:`ConfigurationError` if ``symbol`` is not (within
    ``tolerance``) a constellation point.
    """
    distances = np.abs(modulation.points - symbol)
    index = int(np.argmin(distances))
    if distances[index] > tolerance:
        raise ConfigurationError(f"{symbol!r} is not a {modulation.name} constellation point")
    return index


def gray_decode(code: int) -> int:
    """Invert :func:`repro.wireless.modulation.gray_code`."""
    if code < 0:
        raise ValueError(f"code must be non-negative, got {code}")
    value = 0
    while code:
        value ^= code
        code >>= 1
    return value


def gray_bits_to_transform_bits(bits: Sequence[int]) -> Tuple[int, ...]:
    """Convert Gray-coded payload bits into the transform bits of that dimension."""
    width = len(list(bits))
    label = bits_to_int(bits)
    return int_to_bits(gray_decode(label), width)
