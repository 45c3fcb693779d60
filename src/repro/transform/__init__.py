"""Reduction of MIMO maximum-likelihood detection to QUBO form.

The paper applies the QuAMax mapping (Kim et al., SIGCOMM'19) to turn the ML
detection objective ``||y - H x||^2`` into the QUBO of Eq. 1, one binary
variable per payload bit.  This package implements that reduction and its
inverse:

* :mod:`repro.transform.symbol_mapping` — per-modulation mapping between QUBO
  variables, per-dimension amplitudes, and Gray-coded payload bits.
* :mod:`repro.transform.mimo_to_qubo` — the quadratic-form expansion producing
  a :class:`repro.qubo.QUBOModel` from a :class:`repro.wireless.MIMOInstance`;
  the resulting :class:`MIMOQuboEncoding` decodes a QUBO bitstring back into
  detected symbols and payload bits.
"""

from repro.transform.symbol_mapping import (
    SymbolBitMapping,
    transform_bits_to_amplitude,
    amplitude_to_transform_bits,
    transform_bits_to_gray_bits,
)
from repro.transform.mimo_to_qubo import (
    MIMOQuboEncoding,
    mimo_to_qubo,
)

__all__ = [
    "SymbolBitMapping",
    "transform_bits_to_amplitude",
    "amplitude_to_transform_bits",
    "transform_bits_to_gray_bits",
    "MIMOQuboEncoding",
    "mimo_to_qubo",
]
