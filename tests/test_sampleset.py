"""Tests for repro.annealing.sampleset."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing.sampleset import SampleRecord, SampleSet
from repro.exceptions import ConfigurationError
from tests.sampleset_spec import (
    expanded_energies_reference,
    expectation_energy_reference,
    from_arrays_reference,
    success_probability_reference,
)


class TestSampleRecord:
    def test_invalid_occurrences(self):
        with pytest.raises(ConfigurationError, match="num_occurrences must be positive, got 0"):
            SampleRecord(assignment=np.array([1], dtype=np.int8), energy=0.0, num_occurrences=0)


class TestSampleSetAggregation:
    def test_duplicates_merged(self):
        sampleset = SampleSet.from_arrays(np.array([[0, 1]] * 3), [-1.0] * 3)
        assert len(sampleset) == 1
        assert sampleset.num_reads == 3

    def test_sorted_by_energy(self):
        sampleset = SampleSet.from_arrays(np.array([[1, 1], [0, 0], [1, 0]]), [2.0, -3.0, 0.0])
        energies = sampleset.energies()
        assert list(energies) == sorted(energies)
        assert sampleset.first.energy == -3.0

    def test_from_arrays(self):
        sampleset = SampleSet.from_arrays(np.array([[0, 1], [0, 1], [1, 1]]), [1.0, 1.0, 2.0])
        assert len(sampleset) == 2
        assert sampleset.num_reads == 3

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="1 assignments but 2 energies"):
            SampleSet.from_arrays(np.array([[0, 1]]), [1.0, 2.0])


class TestSampleSetStatistics:
    @pytest.fixture
    def sampleset(self):
        # Reads of three distinct bitstrings, 2, 3 and 5 times over.
        rows = [[1, 1]] * 5 + [[0, 1]] * 3 + [[0, 0]] * 2
        energies = [1.0] * 5 + [-3.0] * 3 + [-5.0] * 2
        return SampleSet.from_arrays(
            np.array(rows), energies, metadata={"schedule_duration_us": 2.0}
        )

    def test_num_reads_and_variables(self, sampleset):
        assert sampleset.num_reads == 10
        assert sampleset.assignments().shape == (3, 2)

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

    def test_empty_set_behaviour(self):
        empty = SampleSet.from_arrays(np.empty((0, 2)), [])
        assert len(empty) == 0
        assert empty.num_reads == 0
        assert empty.success_probability(0.0) == 0.0
        with pytest.raises(IndexError):
            _ = empty.first
        with pytest.raises(ConfigurationError, match="expectation of an empty sample set"):
            empty.expectation_energy()


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
    """Columns, order, counts and every statistic equal the spec exactly."""
    assert len(sampleset) == len(reference)
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
        _bits_equal(
            np.array([r.assignment for r in reference]), sampleset.assignments()
        )
        assert sampleset.expectation_energy() == expectation_energy_reference(reference)
        assert sampleset.lowest_energy() == reference[0].energy
        first = sampleset.first
        _bits_equal(reference[0].assignment, first.assignment)
        assert first.energy == reference[0].energy
        assert np.signbit(first.energy) == np.signbit(reference[0].energy)
        assert first.num_occurrences == reference[0].num_occurrences


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
        assert sampleset.assignments().tolist() == [[-1, -1], [-1, 1], [1, -1], [1, 1]]

    def test_columns_are_copies(self):
        sampleset = SampleSet.from_arrays(np.array([[0, 1], [1, 1]]), [1.0, 0.0])
        sampleset.assignments()[:] = 7
        sampleset.energies()[:] = 7.0
        sampleset.occurrences()[:] = 7
        assert sampleset.first.assignment.tolist() == [1, 1]
        assert sampleset.lowest_energy() == 0.0
        assert sampleset.num_reads == 2
