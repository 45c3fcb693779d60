"""Shared low-level utilities used across the repro library.

The submodules are intentionally small and dependency-free (beyond numpy):

* :mod:`repro.utils.rng` — reproducible random-number-generator plumbing.
* :mod:`repro.utils.linalg` — complex/real decompositions used by the MIMO
  detection transform and linear detectors.
* :mod:`repro.utils.validation` — argument checking helpers shared by the
  public API surface.
* :mod:`repro.utils.batching` — bounded chunking of instance batches.
"""

from repro.utils.rng import (
    BatchRandomState,
    RandomState,
    ensure_rng,
    ensure_rng_batch,
    spawn_rngs,
)
from repro.utils.batching import iter_batches
from repro.utils.linalg import (
    complex_to_real_stacked,
    real_to_complex_stacked,
    hermitian,
    is_hermitian,
    vector_norm_squared,
)
from repro.utils.validation import (
    require,
    require_positive,
    require_in_range,
    require_power_of_two,
    require_probability,
)

__all__ = [
    "BatchRandomState",
    "RandomState",
    "ensure_rng",
    "ensure_rng_batch",
    "iter_batches",
    "spawn_rngs",
    "complex_to_real_stacked",
    "real_to_complex_stacked",
    "hermitian",
    "is_hermitian",
    "vector_norm_squared",
    "require",
    "require_positive",
    "require_in_range",
    "require_power_of_two",
    "require_probability",
]
