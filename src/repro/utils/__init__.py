"""Shared low-level utilities used across the repro library.

The submodules are intentionally small and dependency-free (beyond numpy):

* :mod:`repro.utils.rng` — reproducible random-number-generator plumbing.
* :mod:`repro.utils.validation` — argument checking helpers shared by the
  public API surface.
* :mod:`repro.utils.batching` — bounded chunking of instance batches.
* :mod:`repro.utils.jsonable` — the JSON reducer for result artifacts.
"""

from repro.utils.rng import (
    BatchRandomState,
    RandomState,
    ensure_rng,
    ensure_rng_batch,
    spawn_rngs,
)
from repro.utils.batching import iter_batches
from repro.utils.jsonable import to_jsonable
from repro.utils.validation import (
    require,
    require_positive,
)

__all__ = [
    "BatchRandomState",
    "RandomState",
    "ensure_rng",
    "ensure_rng_batch",
    "iter_batches",
    "to_jsonable",
    "spawn_rngs",
    "require",
    "require_positive",
]
