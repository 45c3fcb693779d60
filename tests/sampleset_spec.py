"""Executable specification of SampleSet aggregation.

The read-by-read aggregation :class:`repro.annealing.sampleset.SampleSet`
is specified by: one record per read, duplicates merged by bitstring in read
order (the first occurrence keeps its energy), records sorted by
``(energy, bits)``, and every statistic computed record by record.  The
production class stores columns and aggregates with array operations;
``tests/test_sampleset.py`` checks it against these functions for exact
equality.

:func:`score_twice_reference` keeps the sampler's former two-step QUBO
construction (score under the Ising form, aggregate, re-score the distinct
rows under the QUBO, re-sort), which the one-pass QUBO path must match bit
for bit (``tests/test_per_instance_bitwise.py``).
"""

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.annealing.sampleset import SampleRecord, SampleSet
from repro.qubo.ising import qubo_to_ising
from repro.qubo.model import QUBOModel

__all__ = [
    "record_key",
    "merge_records_reference",
    "from_arrays_reference",
    "score_twice_reference",
    "expanded_energies_reference",
    "success_probability_reference",
    "expectation_energy_reference",
]


def record_key(record: SampleRecord) -> Tuple[int, ...]:
    """The record's assignment as a tuple of ints (hashable, orderable)."""
    return tuple(int(bit) for bit in record.assignment)


def merge_records_reference(records: Iterable[SampleRecord]) -> List[SampleRecord]:
    """Merge records by bitstring and sort them by ``(energy, bits)``."""
    merged: Dict[Tuple[int, ...], SampleRecord] = {}
    for record in records:
        key = record_key(record)
        if key in merged:
            existing = merged[key]
            merged[key] = SampleRecord(
                assignment=existing.assignment,
                energy=existing.energy,
                num_occurrences=existing.num_occurrences + record.num_occurrences,
            )
        else:
            merged[key] = record
    return sorted(merged.values(), key=lambda item: (item.energy, record_key(item)))


def from_arrays_reference(assignments: np.ndarray, energies) -> List[SampleRecord]:
    """One record per read, then :func:`merge_records_reference`."""
    assignments = np.asarray(assignments, dtype=np.int8)
    energies = np.asarray(energies, dtype=float).ravel()
    return merge_records_reference(
        SampleRecord(assignment=assignment, energy=float(energy))
        for assignment, energy in zip(assignments, energies)
    )


def score_twice_reference(qubo: QUBOModel, spins: np.ndarray) -> List[SampleRecord]:
    """A QUBO instance's sample set the way the sampler used to build it.

    Every read of the ``(reads, n)`` +/-1 ``spins`` is scored under the
    QUBO's Ising form and aggregated (:meth:`SampleSet.from_arrays`); then
    the distinct rows are re-scored under the QUBO and re-sorted by
    ``(energy, bits)``.
    """
    bits = ((spins + 1) // 2).astype(np.int8)
    by_ising = SampleSet.from_arrays(bits, qubo_to_ising(qubo).energies(spins))
    rows = by_ising.assignments()
    energies = qubo.energies(rows)
    return merge_records_reference(
        SampleRecord(assignment=row, energy=float(energy), num_occurrences=int(count))
        for row, energy, count in zip(rows, energies, by_ising.occurrences())
    )


def expanded_energies_reference(records: List[SampleRecord]) -> np.ndarray:
    """One energy per read, records in order."""
    if not records:
        return np.empty(0)
    return np.concatenate(
        [np.full(record.num_occurrences, record.energy) for record in records]
    )


def success_probability_reference(
    records: List[SampleRecord], ground_energy: float, tolerance: float = 1e-6
) -> float:
    """Fraction of reads whose energy is within ``tolerance`` of the ground."""
    num_reads = int(sum(record.num_occurrences for record in records))
    if num_reads == 0:
        return 0.0
    hits = sum(
        record.num_occurrences
        for record in records
        if record.energy <= ground_energy + tolerance
    )
    return hits / num_reads


def expectation_energy_reference(records: List[SampleRecord]) -> float:
    """Occurrence-weighted mean energy."""
    energies = np.array([record.energy for record in records])
    weights = np.array([record.num_occurrences for record in records], dtype=int)
    return float(np.average(energies, weights=weights))
