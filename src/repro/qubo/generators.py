"""Random QUBO instance generator.

The paper's experiments use MIMO-detection QUBOs produced by the QuAMax
transform (see :mod:`repro.transform`); the ``anneal-hpo`` ablation target
(:mod:`repro.ablation.targets`) anneals a structure-free dense or sparse
random QUBO instead.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.qubo.model import QUBOModel
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_non_negative

__all__ = ["random_qubo"]


def random_qubo(
    num_variables: int,
    density: float = 1.0,
    rng: RandomState = None,
) -> QUBOModel:
    """Draw a random QUBO with standard Gaussian coefficients.

    Parameters
    ----------
    num_variables:
        Problem size.
    density:
        Probability that each off-diagonal coupling is present (1.0 gives a
        fully dense model, matching the density of MIMO-detection QUBOs).
    """
    require_non_negative(num_variables, "num_variables")
    if not 0.0 <= density <= 1.0:
        raise ConfigurationError(f"density must lie in [0, 1], got {density}")

    generator = ensure_rng(rng)
    matrix = np.zeros((num_variables, num_variables))
    diagonal = generator.normal(0.0, 1.0, size=num_variables)
    matrix[np.diag_indices(num_variables)] = diagonal
    for i in range(num_variables):
        for j in range(i + 1, num_variables):
            if generator.random() < density:
                matrix[i, j] = generator.normal(0.0, 1.0)
    return QUBOModel(coefficients=matrix)
