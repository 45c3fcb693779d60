"""Chunking helper for the batched multi-instance engine.

:class:`~repro.annealing.sampler.QuantumAnnealerSimulator` uses
:func:`iter_batches` to split a large instance batch into kernel calls of a
bounded size.  Because every instance draws from its own child generator,
results are identical whatever chunking is chosen.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple, TypeVar

from repro.utils.validation import require_positive

Item = TypeVar("Item")

__all__ = ["iter_batches"]


def iter_batches(items: Sequence[Item], size: int) -> Iterator[Tuple[int, List[Item]]]:
    """Yield ``(start_index, chunk)`` pairs of at most ``size`` items, in order."""
    require_positive(size, "chunk size")
    for start in range(0, len(items), size):
        yield start, list(items[start : start + size])
