"""Reproducible random number generation.

Every stochastic component in the library (channel synthesis, annealing
samplers, traffic generators) accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng` normalises
those three cases into a :class:`numpy.random.Generator` so call sites never
have to special-case the seed type, and :func:`spawn_rngs` derives independent
child generators for parallel or repeated experiments.

The batched engine adds a fourth accepted form: an explicit *sequence* of
generators, one per instance in a batch.  :func:`ensure_rng_batch` normalises
a root seed or such a sequence into a list of per-instance child generators.
Because instance ``b`` only ever consumes randomness from child ``b``, a
batched run and the equivalent sequential loop produce bitwise-identical
results, and experiment outputs do not depend on how instances are grouped
into batches.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import require_non_negative

__all__ = [
    "RandomState",
    "BatchRandomState",
    "ensure_rng",
    "ensure_rng_batch",
    "spawn_rngs",
    "stable_seed",
]

# Public alias used in type hints across the library.
RandomState = Union[None, int, np.random.Generator]

# Seed form accepted by batched entry points: a single root (spawned into one
# child per instance) or an explicit per-instance generator sequence.
BatchRandomState = Union[RandomState, Sequence[np.random.Generator]]


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    seed:
        ``None`` for nondeterministic entropy, an ``int`` for a reproducible
        stream, or an existing ``Generator`` which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(
        "seed must be None, an int, or a numpy.random.Generator; "
        f"got {type(seed).__name__}"
    )


def spawn_rngs(seed: RandomState, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    The children are derived through numpy's ``spawn`` mechanism when a
    ``Generator`` is supplied, and through a ``SeedSequence`` when an integer
    seed is supplied, so repeated calls with the same integer seed produce the
    same family of streams.
    """
    require_non_negative(count, "count")
    if isinstance(seed, np.random.Generator):
        return [np.random.default_rng(s) for s in seed.bit_generator.seed_seq.spawn(count)]
    sequence = np.random.SeedSequence(seed if seed is not None else None)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def ensure_rng_batch(seed: BatchRandomState, count: int) -> List[np.random.Generator]:
    """Normalise a batch seed specification into ``count`` per-instance generators.

    Accepts everything :func:`ensure_rng` accepts — in which case ``count``
    statistically independent children are spawned from the root — or an
    explicit sequence of :class:`numpy.random.Generator` objects, which is
    validated for length and returned as a list.  Instance ``b`` of a batched
    call must draw exclusively from child ``b``; this is what makes batched
    results independent of how a workload is split into batches.
    """
    require_non_negative(count, "count")
    if isinstance(seed, (list, tuple)):
        if len(seed) != count:
            raise ConfigurationError(f"{len(seed)} generators supplied for a batch of {count}")
        for item in seed:
            if not isinstance(item, np.random.Generator):
                raise TypeError(
                    "an explicit batch seed must contain numpy.random.Generator "
                    f"objects, got {type(item).__name__}"
                )
        return list(seed)
    return spawn_rngs(seed, count)


def stable_seed(*components: Union[int, str, float]) -> int:
    """Derive a deterministic 32-bit seed from heterogeneous components.

    Used by experiment runners so that (instance index, modulation, size)
    always map to the same synthetic instance regardless of execution order.
    """
    acc = 0x811C9DC5
    for component in components:
        text = repr(component)
        for char in text.encode("utf-8"):
            acc ^= char
            acc = (acc * 0x01000193) & 0xFFFFFFFF
    return acc
