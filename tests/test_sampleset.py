"""Tests for repro.annealing.sampleset."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing.sampleset import SampleRecord, SampleSet
from repro.exceptions import DimensionError
from tests.sampleset_spec import (
    expanded_energies_reference,
    expectation_energy_reference,
    from_arrays_reference,
    merge_records_reference,
    success_probability_reference,
)


def _record(bits, energy, count=1, breaks=0.0):
    return SampleRecord(
        assignment=np.asarray(bits, dtype=np.int8),
        energy=energy,
        num_occurrences=count,
        chain_break_fraction=breaks,
    )


class TestSampleRecord:
    def test_key(self):
        assert _record([1, 0, 1], -1.0).key == (1, 0, 1)

    def test_invalid_occurrences(self):
        with pytest.raises(ValueError):
            _record([1], 0.0, count=0)

    def test_invalid_chain_breaks(self):
        with pytest.raises(ValueError):
            _record([1], 0.0, breaks=1.5)


class TestSampleSetAggregation:
    def test_duplicates_merged(self):
        sampleset = SampleSet([_record([0, 1], -1.0), _record([0, 1], -1.0, count=2)])
        assert len(sampleset) == 1
        assert sampleset.num_reads == 3

    def test_sorted_by_energy(self):
        sampleset = SampleSet([_record([1, 1], 2.0), _record([0, 0], -3.0), _record([1, 0], 0.0)])
        energies = sampleset.energies()
        assert list(energies) == sorted(energies)
        assert sampleset.first.energy == -3.0

    def test_chain_break_weighted_merge(self):
        sampleset = SampleSet(
            [_record([1], 0.0, count=1, breaks=0.0), _record([1], 0.0, count=3, breaks=1.0)]
        )
        assert sampleset.records[0].chain_break_fraction == pytest.approx(0.75)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DimensionError):
            SampleSet([_record([1], 0.0), _record([1, 0], 0.0)])

    def test_from_arrays(self):
        sampleset = SampleSet.from_arrays(np.array([[0, 1], [0, 1], [1, 1]]), [1.0, 1.0, 2.0])
        assert len(sampleset) == 2
        assert sampleset.num_reads == 3

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(DimensionError):
            SampleSet.from_arrays(np.array([[0, 1]]), [1.0, 2.0])


class TestSampleSetStatistics:
    @pytest.fixture
    def sampleset(self):
        return SampleSet(
            [
                _record([0, 0], -5.0, count=2),
                _record([0, 1], -3.0, count=3),
                _record([1, 1], 1.0, count=5),
            ],
            metadata={"schedule_duration_us": 2.0},
        )

    def test_num_reads_and_variables(self, sampleset):
        assert sampleset.num_reads == 10
        assert sampleset.num_variables == 2

    def test_lowest_energy(self, sampleset):
        assert sampleset.lowest_energy() == -5.0

    def test_expanded_energies(self, sampleset):
        expanded = sampleset.energies(expanded=True)
        assert expanded.size == 10
        assert np.sum(expanded == -5.0) == 2

    def test_success_probability(self, sampleset):
        assert sampleset.success_probability(-5.0) == pytest.approx(0.2)
        assert sampleset.success_probability(-10.0) == 0.0

    def test_expectation(self, sampleset):
        expected = (2 * -5.0 + 3 * -3.0 + 5 * 1.0) / 10
        assert sampleset.expectation_energy() == pytest.approx(expected)

    def test_truncate(self, sampleset):
        truncated = sampleset.truncate(1)
        assert len(truncated) == 1
        assert truncated.first.energy == -5.0

    def test_merge(self, sampleset):
        other = SampleSet([_record([0, 0], -5.0)], metadata={"extra": 1})
        merged = sampleset.merge(other)
        assert merged.num_reads == 11
        assert merged.metadata["schedule_duration_us"] == 2.0
        assert merged.metadata["extra"] == 1

    def test_empty_set_behaviour(self):
        empty = SampleSet([])
        assert len(empty) == 0
        assert empty.num_reads == 0
        assert empty.success_probability(0.0) == 0.0
        with pytest.raises(IndexError):
            _ = empty.first
        with pytest.raises(ValueError):
            empty.expectation_energy()

    def test_iteration_and_indexing(self, sampleset):
        records = list(sampleset)
        assert records[0] is sampleset[0]
        assert len(records) == 3


#: A few energies so that equal energies (ordered by bits alone) are common.
_ENERGIES = st.sampled_from([-3.5, -1.0, -0.0, 0.0, 0.25, 2.0])


@st.composite
def _reads(draw, max_reads=40):
    """``(assignments, energies)`` of up to ``max_reads`` 0/1 reads."""
    variables = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=0, max_value=max_reads))
    bits = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=variables, max_size=variables),
            min_size=count,
            max_size=count,
        )
    )
    energies = draw(st.lists(_ENERGIES, min_size=count, max_size=count))
    return np.array(bits, dtype=np.int8).reshape(count, variables), energies


def _bits_equal(expected, actual):
    assert expected.dtype == actual.dtype
    assert expected.tobytes() == actual.tobytes()


def _assert_matches_reference(sampleset, reference):
    """Records, order, counts and every statistic equal the spec exactly."""
    assert len(sampleset) == len(reference)
    for record, expected in zip(sampleset.records, reference):
        _bits_equal(expected.assignment, record.assignment)
        assert record.energy == expected.energy
        assert np.signbit(record.energy) == np.signbit(expected.energy)
        assert record.num_occurrences == expected.num_occurrences
        assert record.chain_break_fraction == expected.chain_break_fraction
    _bits_equal(np.array([r.energy for r in reference], dtype=float), sampleset.energies())
    _bits_equal(
        np.array([r.num_occurrences for r in reference], dtype=int), sampleset.occurrences()
    )
    _bits_equal(expanded_energies_reference(reference), sampleset.energies(expanded=True))
    assert sampleset.num_reads == sum(r.num_occurrences for r in reference)
    for ground in (-3.5, -1.0, 0.0, 2.0):
        assert sampleset.success_probability(ground) == success_probability_reference(
            reference, ground
        )
    if reference:
        assert sampleset.expectation_energy() == expectation_energy_reference(reference)
        assert sampleset.lowest_energy() == reference[0].energy
        _bits_equal(reference[0].assignment, sampleset.first.assignment)
        _bits_equal(
            np.array([r.assignment for r in reference]), sampleset.assignments()
        )
        assert sampleset.num_variables == reference[0].assignment.size
    else:
        assert sampleset.num_variables == 0


class TestColumnarAggregation:
    """from_arrays (columns) against the record-by-record spec."""

    @settings(max_examples=200, deadline=None)
    @given(reads=_reads())
    def test_from_arrays_matches_spec(self, reads):
        assignments, energies = reads
        _assert_matches_reference(
            SampleSet.from_arrays(assignments, energies),
            from_arrays_reference(assignments, energies),
        )

    @settings(max_examples=100, deadline=None)
    @given(
        reads=_reads(max_reads=12),
        counts=st.lists(st.integers(1, 4), min_size=12, max_size=12),
        breaks=st.lists(st.sampled_from([0.0, 0.25, 1.0 / 3.0, 1.0]), min_size=12, max_size=12),
    )
    def test_record_constructor_matches_spec(self, reads, counts, breaks):
        assignments, energies = reads
        records = [
            _record(bits, energy, count, fraction)
            for bits, energy, count, fraction in zip(assignments, energies, counts, breaks)
        ]
        _assert_matches_reference(SampleSet(records), merge_records_reference(records))

    @settings(max_examples=100, deadline=None)
    @given(reads=_reads(), data=st.data())
    def test_with_energies_matches_spec(self, reads, data):
        assignments, energies = reads
        sampleset = SampleSet.from_arrays(assignments, energies)
        rescored = data.draw(st.lists(_ENERGIES, min_size=len(sampleset), max_size=len(sampleset)))
        reference = merge_records_reference(
            SampleRecord(
                assignment=record.assignment,
                energy=energy,
                num_occurrences=record.num_occurrences,
                chain_break_fraction=record.chain_break_fraction,
            )
            for record, energy in zip(sampleset.records, rescored)
        )
        _assert_matches_reference(sampleset.with_energies(rescored), reference)

    @pytest.mark.parametrize(
        "assignments, energies",
        [
            pytest.param([[1, 0, 1]] * 5, [0.5] * 5, id="all-duplicate"),
            pytest.param([[0, 0], [0, 1], [1, 0], [1, 1]], [3.0, 2.0, 1.0, 0.0], id="all-distinct"),
            pytest.param([[1, 0, 0, 1]], [-2.0], id="single-read"),
            pytest.param(np.empty((0, 3)), [], id="empty"),
            pytest.param([[1], [0], [1], [1]], [1.0, -1.0, 1.0, 1.0], id="one-variable"),
            pytest.param(
                [[1, 1, 0], [0, 1, 1], [1, 0, 0], [0, 0, 1], [0, 1, 1]],
                [0.0] * 5,
                id="equal-energies",
            ),
            pytest.param(
                [[0, 1], [0, 1], [1, 0]], [2.0, -7.0, 2.0], id="first-occurrence-energy"
            ),
        ],
    )
    def test_edge_cases(self, assignments, energies):
        assignments = np.asarray(assignments, dtype=np.int8)
        _assert_matches_reference(
            SampleSet.from_arrays(assignments, energies),
            from_arrays_reference(assignments, energies),
        )

    def test_signed_assignments_sort_like_tuples(self):
        spins = np.array([[1, -1], [-1, 1], [-1, -1], [1, 1]], dtype=np.int8)
        sampleset = SampleSet.from_arrays(spins, [0.0] * 4)
        assert [record.key for record in sampleset] == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_records_are_built_once(self):
        sampleset = SampleSet.from_arrays(np.array([[0, 1], [1, 1]]), [1.0, 0.0])
        assert sampleset.records[0] is sampleset[0] is sampleset.first
        assert sampleset.records is not sampleset.records

    def test_columns_are_copies(self):
        sampleset = SampleSet.from_arrays(np.array([[0, 1], [1, 1]]), [1.0, 0.0])
        sampleset.assignments()[:] = 7
        sampleset.energies()[:] = 7.0
        sampleset.occurrences()[:] = 7
        assert sampleset.first.key == (1, 1)
        assert sampleset.lowest_energy() == 0.0
        assert sampleset.num_reads == 2

    def test_with_energies_length_mismatch(self):
        sampleset = SampleSet.from_arrays(np.array([[0, 1], [1, 1]]), [1.0, 0.0])
        with pytest.raises(DimensionError):
            sampleset.with_energies([1.0])
