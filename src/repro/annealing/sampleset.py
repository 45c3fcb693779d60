"""Sample containers in the style of the D-Wave Ocean SDK.

A sampler call produces many anneal *reads*; each read yields one bitstring
and its energy.  :class:`SampleSet` aggregates identical bitstrings, keeps the
collection sorted by energy, and provides the aggregate statistics the paper's
metrics are computed from (ground-state hit counts, energy distributions,
sample weights).

A sample set is stored as columns — distinct assignments, energies,
occurrence counts and chain-break fractions, one row per distinct bitstring
in ``(energy, bits)`` order — so aggregating a sampler's reads and computing
its statistics are array operations.  :class:`SampleRecord` objects are built
only when a caller iterates, indexes or asks for :attr:`SampleSet.records`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionError

__all__ = ["SampleRecord", "SampleSet"]


@dataclass(frozen=True)
class SampleRecord:
    """One distinct bitstring observed by a sampler.

    Attributes
    ----------
    assignment:
        The 0/1 assignment.
    energy:
        Its energy under the problem the sampler was given.
    num_occurrences:
        How many reads returned exactly this assignment.
    chain_break_fraction:
        Fraction of embedded chains that were broken in the raw hardware
        sample (0.0 when the problem was not embedded).
    """

    assignment: np.ndarray
    energy: float
    num_occurrences: int = 1
    chain_break_fraction: float = 0.0

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int8).ravel()
        object.__setattr__(self, "assignment", assignment)
        if self.num_occurrences <= 0:
            raise ValueError(
                f"num_occurrences must be positive, got {self.num_occurrences}"
            )
        if not 0.0 <= self.chain_break_fraction <= 1.0:
            raise ValueError(
                "chain_break_fraction must lie in [0, 1], "
                f"got {self.chain_break_fraction}"
            )

    @property
    def key(self) -> Tuple[int, ...]:
        """Hashable form of the assignment, used for aggregation."""
        return tuple(int(bit) for bit in self.assignment)


def _row_keys(assignments: np.ndarray) -> np.ndarray:
    """One opaque key per row of a ``(k, n)`` int8 array.

    Keys compare equal iff the rows do, and sort like the rows' integer
    tuples: flipping the sign bit maps signed int8 order onto the unsigned
    byte order that void keys compare in.
    """
    rows, width = assignments.shape
    if width == 0:
        return np.zeros(rows, dtype=np.uint8)
    flipped = np.bitwise_xor(assignments, np.int8(-128), order="C").view(np.uint8)
    return flipped.view(np.dtype((np.void, width))).ravel()


def _energy_bits_order(assignments: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Permutation sorting distinct rows by ``(energy, bits)``."""
    by_bits = np.argsort(_row_keys(assignments), kind="stable")
    return by_bits[np.argsort(energies[by_bits], kind="stable")]


class SampleSet:
    """An energy-sorted, aggregated collection of sampler reads.

    Parameters
    ----------
    records:
        Sample records; duplicates (same bitstring) are merged and their
        occurrence counts summed.  :meth:`from_arrays` is the fast path for
        raw reads.
    metadata:
        Sampler-provided context (schedule, timing, backend name, ...).
    """

    def __init__(
        self,
        records: Iterable[SampleRecord],
        metadata: Optional[Dict] = None,
    ) -> None:
        merged: Dict[Tuple[int, ...], SampleRecord] = {}
        for record in records:
            key = record.key
            if key in merged:
                existing = merged[key]
                total = existing.num_occurrences + record.num_occurrences
                # Occurrence-weighted chain-break fraction keeps the aggregate meaningful.
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

        sizes = {record.assignment.size for record in merged.values()}
        if len(sizes) > 1:
            raise DimensionError(
                f"all samples must have the same length, got lengths {sorted(sizes)}"
            )
        distinct = list(merged.values())
        assignments = np.array(
            [record.assignment for record in distinct], dtype=np.int8
        ).reshape(len(distinct), sizes.pop() if sizes else 0)
        energies = np.array([record.energy for record in distinct], dtype=float)
        order = _energy_bits_order(assignments, energies)
        self._set_columns(
            assignments[order],
            energies[order],
            np.array([record.num_occurrences for record in distinct], dtype=int)[order],
            np.array([record.chain_break_fraction for record in distinct], dtype=float)[order],
            metadata,
        )

    def _set_columns(self, assignments, energies, occurrences, chain_breaks, metadata) -> None:
        self._assignments = assignments
        self._energies = energies
        self._occurrences = occurrences
        self._chain_breaks = chain_breaks
        self._records: Optional[List[SampleRecord]] = None
        self.metadata: Dict = dict(metadata) if metadata else {}

    @classmethod
    def _from_columns(cls, assignments, energies, occurrences, chain_breaks, metadata):
        """A sample set over columns already aggregated and in order."""
        sampleset = cls.__new__(cls)
        sampleset._set_columns(assignments, energies, occurrences, chain_breaks, metadata)
        return sampleset

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_arrays(
        cls,
        assignments: np.ndarray,
        energies: Sequence[float],
        metadata: Optional[Dict] = None,
    ) -> "SampleSet":
        """Build a sample set from parallel arrays of assignments and energies.

        Identical rows are counted together and keep the energy of their
        first read; the distinct rows are ordered by ``(energy, bits)``.
        """
        assignments = np.atleast_2d(np.asarray(assignments, dtype=np.int8))
        energies = np.asarray(energies, dtype=float).ravel()
        if assignments.shape[0] != energies.size:
            raise DimensionError(
                f"{assignments.shape[0]} assignments but {energies.size} energies"
            )
        _, first, inverse = np.unique(
            _row_keys(assignments), return_index=True, return_inverse=True
        )
        counts = np.bincount(inverse, minlength=first.size)
        # ``first`` lists the distinct rows in bit order, so a stable sort by
        # energy yields the (energy, bits) order.
        order = np.argsort(energies[first], kind="stable")
        rows = first[order]
        return cls._from_columns(
            assignments[rows], energies[rows], counts[order], np.zeros(rows.size), metadata
        )

    def with_energies(self, energies: Sequence[float]) -> "SampleSet":
        """The same distinct samples and counts, re-scored and re-sorted.

        ``energies`` is aligned with the current record order; metadata is
        kept.
        """
        energies = np.asarray(energies, dtype=float).ravel()
        if energies.size != len(self):
            raise DimensionError(f"{energies.size} energies for {len(self)} records")
        order = _energy_bits_order(self._assignments, energies)
        return SampleSet._from_columns(
            self._assignments[order],
            energies[order],
            self._occurrences[order],
            self._chain_breaks[order],
            self.metadata,
        )

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._energies.size

    def __iter__(self) -> Iterator[SampleRecord]:
        return iter(self._materialised())

    def __getitem__(self, index: int) -> SampleRecord:
        return self._materialised()[index]

    def _record(self, index: int) -> SampleRecord:
        return SampleRecord(
            assignment=self._assignments[index],
            energy=float(self._energies[index]),
            num_occurrences=int(self._occurrences[index]),
            chain_break_fraction=float(self._chain_breaks[index]),
        )

    def _materialised(self) -> List[SampleRecord]:
        """The records, built from the columns on first use."""
        if self._records is None:
            self._records = [self._record(index) for index in range(len(self))]
        return self._records

    @property
    def records(self) -> List[SampleRecord]:
        """All distinct records, lowest energy first."""
        return list(self._materialised())

    def assignments(self) -> np.ndarray:
        """The distinct assignments as a ``(len(self), n)`` int8 array, in record order."""
        return self._assignments.copy()

    @property
    def num_reads(self) -> int:
        """Total number of reads represented (sum of occurrence counts)."""
        return int(self._occurrences.sum())

    @property
    def num_variables(self) -> int:
        """Number of variables per sample (0 for an empty set)."""
        return int(self._assignments.shape[1]) if len(self) else 0

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def first(self) -> SampleRecord:
        """The lowest-energy record."""
        if not len(self):
            raise IndexError("sample set is empty")
        return self._record(0) if self._records is None else self._records[0]

    def lowest_energy(self) -> float:
        """Lowest energy observed."""
        if not len(self):
            raise IndexError("sample set is empty")
        return float(self._energies[0])

    def energies(self, expanded: bool = False) -> np.ndarray:
        """Energies of the records.

        With ``expanded=True`` each energy is repeated by its occurrence count
        so the result has one entry per read (what the paper's ΔE%
        distributions are computed over).
        """
        if expanded:
            return np.repeat(self._energies, self._occurrences)
        return self._energies.copy()

    def occurrences(self) -> np.ndarray:
        """Occurrence counts aligned with :meth:`energies` (non-expanded)."""
        return self._occurrences.copy()

    def success_probability(self, ground_energy: float, tolerance: float = 1e-6) -> float:
        """Fraction of reads that reached the ground-state energy."""
        if self.num_reads == 0:
            return 0.0
        hits = int(self._occurrences[self._energies <= ground_energy + tolerance].sum())
        return hits / self.num_reads

    def expectation_energy(self) -> float:
        """Occurrence-weighted mean energy of the reads."""
        if self.num_reads == 0:
            raise ValueError("cannot compute the expectation of an empty sample set")
        return float(np.average(self._energies, weights=self._occurrences))

    def truncate(self, max_records: int) -> "SampleSet":
        """Keep only the ``max_records`` lowest-energy records."""
        keep = slice(None, max_records)
        return SampleSet._from_columns(
            self._assignments[keep],
            self._energies[keep],
            self._occurrences[keep],
            self._chain_breaks[keep],
            self.metadata,
        )

    def merge(self, other: "SampleSet") -> "SampleSet":
        """Combine two sample sets (metadata of ``self`` wins on conflicts)."""
        metadata = dict(other.metadata)
        metadata.update(self.metadata)
        return SampleSet(self.records + other.records, metadata)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not len(self):
            return "SampleSet(empty)"
        return (
            f"SampleSet(num_reads={self.num_reads}, distinct={len(self)}, "
            f"best_energy={self.lowest_energy():.6g})"
        )
