"""Executable specification of SampleSet aggregation.

The record-by-record aggregation :class:`repro.annealing.sampleset.SampleSet`
is specified by: one record per read, duplicates merged by bitstring key in
read order (the first occurrence keeps its energy, chain-break fractions are
occurrence-weighted), records sorted by ``(energy, key)``, and every
statistic computed record by record.  The production class stores columns
and aggregates with array operations; ``tests/test_sampleset.py`` checks it
against these functions for exact equality.
"""

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.annealing.sampleset import SampleRecord

__all__ = [
    "merge_records_reference",
    "from_arrays_reference",
    "expanded_energies_reference",
    "success_probability_reference",
    "expectation_energy_reference",
]


def merge_records_reference(records: Iterable[SampleRecord]) -> List[SampleRecord]:
    """Merge records by bitstring and sort them by ``(energy, key)``."""
    merged: Dict[Tuple[int, ...], SampleRecord] = {}
    for record in records:
        key = record.key
        if key in merged:
            existing = merged[key]
            total = existing.num_occurrences + record.num_occurrences
            weighted_breaks = (
                existing.chain_break_fraction * existing.num_occurrences
                + record.chain_break_fraction * record.num_occurrences
            ) / total
            merged[key] = SampleRecord(
                assignment=existing.assignment,
                energy=existing.energy,
                num_occurrences=total,
                chain_break_fraction=weighted_breaks,
            )
        else:
            merged[key] = record
    return sorted(merged.values(), key=lambda item: (item.energy, item.key))


def from_arrays_reference(assignments: np.ndarray, energies) -> List[SampleRecord]:
    """One record per read, then :func:`merge_records_reference`."""
    assignments = np.asarray(assignments, dtype=np.int8)
    energies = np.asarray(energies, dtype=float).ravel()
    return merge_records_reference(
        SampleRecord(assignment=assignment, energy=float(energy))
        for assignment, energy in zip(assignments, energies)
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
