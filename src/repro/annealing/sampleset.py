"""Sample containers in the style of the D-Wave Ocean SDK.

A sampler call produces many anneal *reads*; each read yields one bitstring
and its energy.  :class:`SampleSet` aggregates identical bitstrings, keeps the
collection sorted by energy, and provides the aggregate statistics the paper's
metrics are computed from (ground-state hit counts, energy distributions,
sample weights).

A sample set is stored as columns — distinct assignments, energies and
occurrence counts, one row per distinct bitstring in ``(energy, bits)``
order — built from a sampler's reads by :meth:`SampleSet.from_arrays`, so
aggregating the reads and computing their statistics are array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.qubo.model import OPTIMUM_TOLERANCE
from repro.utils.validation import require, require_positive

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
    """

    assignment: np.ndarray
    energy: float
    num_occurrences: int = 1

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int8).ravel()
        object.__setattr__(self, "assignment", assignment)
        require_positive(self.num_occurrences, "num_occurrences")


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


class SampleSet:
    """An energy-sorted, aggregated collection of sampler reads.

    Build one from raw reads with :meth:`from_arrays`; the constructor takes
    columns that are already aggregated and in ``(energy, bits)`` order.

    Parameters
    ----------
    assignments / energies / occurrences:
        One row per distinct bitstring: its int8 assignment, its energy and
        how many reads returned it.
    metadata:
        Sampler-provided context (schedule, timing, backend name, ...).
    """

    def __init__(
        self,
        assignments: np.ndarray,
        energies: np.ndarray,
        occurrences: np.ndarray,
        metadata: Optional[Dict],
    ) -> None:
        self._assignments = assignments
        self._energies = energies
        self._occurrences = occurrences
        self.metadata: Dict = dict(metadata) if metadata else {}

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
            raise ConfigurationError(
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
        return cls(assignments[rows], energies[rows], counts[order], metadata)

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._energies.size

    def assignments(self) -> np.ndarray:
        """The distinct assignments as a ``(len(self), n)`` int8 array, in record order."""
        return self._assignments.copy()

    @property
    def num_reads(self) -> int:
        """Total number of reads represented (sum of occurrence counts)."""
        return int(self._occurrences.sum())

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def first(self) -> SampleRecord:
        """The lowest-energy record."""
        if not len(self):
            raise IndexError("sample set is empty")
        return SampleRecord(
            assignment=self._assignments[0],
            energy=float(self._energies[0]),
            num_occurrences=int(self._occurrences[0]),
        )

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

    def success_probability(self, ground_energy: float) -> float:
        """Fraction of reads within ``OPTIMUM_TOLERANCE`` of the ground-state energy."""
        if self.num_reads == 0:
            return 0.0
        hits = int(self._occurrences[self._energies <= ground_energy + OPTIMUM_TOLERANCE].sum())
        return hits / self.num_reads

    def expectation_energy(self) -> float:
        """Occurrence-weighted mean energy of the reads."""
        require(self.num_reads > 0, "cannot compute the expectation of an empty sample set")
        return float(np.average(self._energies, weights=self._occurrences))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not len(self):
            return "SampleSet(empty)"
        return (
            f"SampleSet(num_reads={self.num_reads}, distinct={len(self)}, "
            f"best_energy={self.lowest_energy():.6g})"
        )
