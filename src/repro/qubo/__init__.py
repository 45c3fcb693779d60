"""QUBO / Ising substrate.

Quadratic Unconstrained Binary Optimization (QUBO) is the problem form both
quantum annealers and most Ising machines accept (paper Eq. 1).  This package
provides:

* :mod:`repro.qubo.model` — the :class:`QUBOModel` container (upper-triangular
  coefficients, energy evaluation, algebra).
* :mod:`repro.qubo.ising` — the equivalent :class:`IsingModel` (+/-1 spins)
  and the exact QUBO -> Ising conversion the annealer runs on.
* :mod:`repro.qubo.preprocessing` — the variable-prefixing simplification the
  paper evaluates in Figure 3.
* :mod:`repro.qubo.constraints` — the soft-information constraint augmentation
  of Figure 4.
* :mod:`repro.qubo.generators` — the structure-free random QUBO that the
  ``anneal-hpo`` ablation target anneals.
"""

from repro.qubo.model import QUBOModel
from repro.qubo.ising import IsingModel, qubo_to_ising
from repro.qubo.energy import brute_force_minimum
from repro.qubo.preprocessing import (
    PreprocessingReport,
    simplify_qubo,
    find_fixable_variables,
)
from repro.qubo.constraints import (
    SoftConstraint,
    add_soft_constraints,
)
from repro.qubo.generators import random_qubo

__all__ = [
    "QUBOModel",
    "IsingModel",
    "qubo_to_ising",
    "brute_force_minimum",
    "PreprocessingReport",
    "simplify_qubo",
    "find_fixable_variables",
    "SoftConstraint",
    "add_soft_constraints",
    "random_qubo",
]
