"""Shared low-level utilities used across the repro library.

The submodules are intentionally small and dependency-free (beyond numpy):

* :mod:`repro.utils.rng` — reproducible random-number-generator plumbing.
* :mod:`repro.utils.validation` — argument checking helpers shared by the
  public API surface.
* :mod:`repro.utils.batching` — bounded chunking of instance batches.
* :mod:`repro.utils.jsonable` — the JSON reducer for result artifacts.
"""
