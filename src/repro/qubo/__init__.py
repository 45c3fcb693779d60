"""QUBO / Ising substrate.

Quadratic Unconstrained Binary Optimization (QUBO) is the problem form both
quantum annealers and most Ising machines accept (paper Eq. 1).  This package
provides:

* :mod:`repro.qubo.model` — the :class:`QUBOModel` container (upper-triangular
  coefficients, energy evaluation, algebra).
* :mod:`repro.qubo.ising` — the equivalent :class:`IsingModel` (+/-1 spins)
  and exact conversions in both directions.
* :mod:`repro.qubo.preprocessing` — the variable-prefixing simplification the
  paper evaluates in Figure 3.
* :mod:`repro.qubo.constraints` — the soft-information constraint augmentation
  of Figure 4.
* :mod:`repro.qubo.generators` — random QUBO instance generators for tests and
  benchmarks that do not need the MIMO structure.
"""

from repro.qubo.model import QUBOModel
from repro.qubo.ising import IsingModel, qubo_to_ising, ising_to_qubo
from repro.qubo.energy import (
    qubo_energy,
    ising_energy,
    energy_landscape,
    brute_force_minimum,
)
from repro.qubo.preprocessing import (
    PreprocessingReport,
    simplify_qubo,
    find_fixable_variables,
)
from repro.qubo.constraints import (
    SoftConstraint,
    add_soft_constraints,
    pairwise_agreement_constraint,
)
from repro.qubo.generators import (
    random_qubo,
    random_ising,
    planted_solution_qubo,
)

__all__ = [
    "QUBOModel",
    "IsingModel",
    "qubo_to_ising",
    "ising_to_qubo",
    "qubo_energy",
    "ising_energy",
    "energy_landscape",
    "brute_force_minimum",
    "PreprocessingReport",
    "simplify_qubo",
    "find_fixable_variables",
    "SoftConstraint",
    "add_soft_constraints",
    "pairwise_agreement_constraint",
    "random_qubo",
    "random_ising",
    "planted_solution_qubo",
]
