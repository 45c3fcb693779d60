"""Bitwise pins of the per-instance steps around the anneal kernel.

Every QUBO an evaluated serving run solves passes through the MIMO
transform, :func:`~repro.qubo.ising.qubo_to_ising`, the QUBO and Ising
folds, Greedy Search, the initial-state validators and the SVMC backend's
start angles and end-of-anneal projection, and the sampler scores its reads.
Each test here restates one of those steps in its plain numpy form —
numpy-scalar indexing, ``np.triu``/``np.tril``, ``np.isin``, one
``np.isclose`` per instance, the former two-step QUBO scoring — and requires
the library to give the same bytes, signed zeros included.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing import kernels
from repro.annealing import sampler as sampler_module
from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.annealing.schedule import forward_anneal_schedule, reverse_anneal_schedule
from repro.annealing.svmc import SpinVectorMonteCarloBackend, broadcast_initial_spins
from repro.classical.greedy import greedy_search
from repro.exceptions import ConfigurationError
from repro.qubo.ising import IsingModel, bits_to_spins, qubo_to_ising
from repro.qubo.model import QUBOModel
from repro.transform.mimo_to_qubo import _amplitude_map, mimo_to_qubo
from repro.utils.rng import spawn_rngs
from repro.wireless.mimo import MIMOConfig, simulate_transmission
from tests.noisy_sampler import NoisySampler
from tests.sampleset_spec import score_twice_reference


def _fold_ising(fields, couplings, offset):
    """``IsingModel``'s fold: strictly upper couplings, diagonal into the offset."""
    couplings = np.asarray(couplings, dtype=float)
    upper = np.triu(couplings, k=1) + np.tril(couplings, k=-1).T
    extra = float(np.sum(np.diagonal(couplings)))
    return np.asarray(fields, dtype=float).ravel(), upper, float(offset) + extra


def _qubo_to_ising_loop(qubo):
    """The conversion loop on numpy scalars, then the Ising fold."""
    n = qubo.num_variables
    matrix = qubo.coefficients
    fields = np.zeros(n)
    couplings = np.zeros((n, n))
    offset = qubo.offset
    for i in range(n):
        linear = matrix[i, i]
        fields[i] += linear / 2.0
        offset += linear / 2.0
        for j in range(i + 1, n):
            quad = matrix[i, j]
            if quad == 0.0:
                continue
            couplings[i, j] += quad / 4.0
            fields[i] += quad / 4.0
            fields[j] += quad / 4.0
            offset += quad / 4.0
    return _fold_ising(fields, couplings, offset)


def _greedy_loop(qubo):
    """Greedy Search on numpy arrays: argmax over the unset marginals."""
    n = qubo.num_variables
    assignment = np.zeros(n, dtype=np.int8)
    matrix = qubo.coefficients
    marginal = np.diagonal(matrix).astype(float).copy()
    assigned = np.zeros(n, dtype=bool)
    for _ in range(n):
        remaining = np.where(~assigned)[0]
        index = int(remaining[np.argmax(np.abs(marginal[remaining]))])
        value = 1 if marginal[index] < 0 else 0
        assignment[index] = value
        assigned[index] = True
        if value == 1:
            for other in np.where(~assigned)[0]:
                low, high = (index, other) if index < other else (other, index)
                marginal[other] += matrix[low, high]
    return assignment


def _signed_zero_matrix(rng, n):
    """A square matrix mixing normals, ``0.0``, ``-0.0``, subnormals and integers.

    Both triangles are filled, so the QUBO fold meets ``-0.0 + -0.0`` and
    ``-0.0 + 0.0`` pairs; ``-5e-324 / 4`` underflows to ``-0.0``.
    """
    pool = np.array([0.0, -0.0, -5e-324, 5e-324, 1.0, -2.0, 3.0])
    picks = pool[rng.integers(0, pool.size, (n, n))]
    return np.where(rng.random((n, n)) < 0.5, rng.normal(size=(n, n)), picks)


def _qubo_cases():
    rng = np.random.default_rng(2024)
    cases = [
        ("empty", QUBOModel(np.zeros((0, 0)))),
        ("one", QUBOModel(np.array([[-0.0]]), offset=-0.0)),
        ("one-negative", QUBOModel(np.array([[-1.5]]), offset=0.25)),
        ("diagonal", QUBOModel(np.diag([-0.0, 0.0, 1.5, -2.25, 5e-324]), offset=-0.0)),
        ("all-negative-zero", QUBOModel(np.full((4, 4), -0.0), offset=-0.0)),
    ]
    for n in (2, 3, 7, 16):
        for trial in range(3):
            matrix = _signed_zero_matrix(rng, n)
            cases.append((f"random-{n}-{trial}", QUBOModel(matrix, offset=rng.normal())))
    for modulation, users in (("BPSK", 5), ("QPSK", 2), ("QPSK", 4), ("16-QAM", 2), ("16-QAM", 4)):
        for seed in (3, 8):
            transmission = simulate_transmission(MIMOConfig(users, modulation), rng=seed)
            qubo = mimo_to_qubo(transmission.instance).qubo
            cases.append((f"mimo-{modulation}-{users}-{seed}", qubo))
    return cases


QUBO_CASES = _qubo_cases()
QUBO_IDS = [name for name, _ in QUBO_CASES]


@pytest.mark.parametrize("qubo", [qubo for _, qubo in QUBO_CASES], ids=QUBO_IDS)
class TestConversionBytes:
    def test_qubo_to_ising_matches_the_scalar_loop(self, qubo):
        fields, couplings, offset = _qubo_to_ising_loop(qubo)
        ising = qubo_to_ising(qubo)
        assert ising.fields.dtype == fields.dtype and ising.fields.shape == fields.shape
        assert ising.fields.tobytes() == fields.tobytes()
        assert ising.couplings.shape == couplings.shape
        assert ising.couplings.tobytes() == couplings.tobytes()
        assert isinstance(ising.offset, float)
        assert ising.offset.hex() == offset.hex()

    def test_greedy_matches_the_array_loop(self, qubo):
        expected = _greedy_loop(qubo)
        actual = greedy_search(qubo)
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_greedy_ties_and_non_finite_marginals(seed):
    # Integer coefficients tie often; a NaN or inf marginal is picked the
    # way np.argmax picks it (the first NaN, else the first largest).
    rng = np.random.default_rng(seed)
    for n in (1, 2, 6, 9):
        matrix = rng.integers(-2, 3, (n, n)).astype(float)
        cells = rng.integers(0, n, (2, 2))
        matrix[cells[0, 0], cells[0, 1]] = np.nan
        matrix[cells[1, 0], cells[1, 1]] = [np.inf, -np.inf][seed % 2]
        qubo = QUBOModel(matrix)
        assert greedy_search(qubo).tobytes() == _greedy_loop(qubo).tobytes()


@pytest.mark.parametrize(
    "modulation,users", [("BPSK", 5), ("QPSK", 3), ("16-QAM", 4), ("64-QAM", 2)]
)
def test_mimo_to_qubo_matches_the_coefficient_loop(modulation, users):
    # The coefficients and names the transform built per instance with
    # scalar loops; the layout is now memoised per shape.
    for seed in (5, 6):
        instance = simulate_transmission(MIMOConfig(users, modulation), rng=seed).instance
        encoding = mimo_to_qubo(instance)
        # The linear map x = A q + b, rebuilt from the per-user bit layouts.
        amplitude = np.zeros((users, encoding.num_variables), dtype=complex)
        offset = np.zeros(users, dtype=complex)
        for mapping in encoding.mappings:
            scale = mapping.modulation.scale
            bits_per_dim = mapping.modulation.bits_per_dimension
            for position, variable in enumerate(mapping.in_phase_indices):
                weight = scale * (1 << (bits_per_dim - 1 - position))
                amplitude[mapping.user_index, variable] += 2.0 * weight
                offset[mapping.user_index] -= weight
            for position, variable in enumerate(mapping.quadrature_indices):
                weight = scale * (1 << (bits_per_dim - 1 - position))
                amplitude[mapping.user_index, variable] += 2.0j * weight
                offset[mapping.user_index] -= 1.0j * weight
        effective = instance.channel_matrix @ amplitude
        residual = instance.received - instance.channel_matrix @ offset
        gram = np.real(np.conjugate(effective.T) @ effective)
        correlation = np.real(np.conjugate(residual) @ effective)
        n = gram.shape[0]
        coefficients = np.zeros((n, n))
        for i in range(n):
            coefficients[i, i] = gram[i, i] - 2.0 * correlation[i]
            for j in range(i + 1, n):
                coefficients[i, j] = 2.0 * gram[i, j]
        expected = QUBOModel(coefficients).coefficients
        assert encoding.qubo.coefficients.tobytes() == expected.tobytes()
        per_user = n // users
        names = tuple(f"u{user}b{bit}" for user in range(users) for bit in range(per_user))
        assert encoding.qubo.variable_names == names
        memoised_amplitude, memoised_offset, _, _ = _amplitude_map(instance.modulation, users)
        assert not memoised_amplitude.flags.writeable
        assert not memoised_offset.flags.writeable


class TestFoldBytes:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
    def test_qubo_fold_matches_triu_plus_tril(self, n):
        rng = np.random.default_rng(n + 40)
        for _ in range(4):
            matrix = _signed_zero_matrix(rng, n)
            expected = np.triu(matrix) + np.tril(matrix, k=-1).T
            folded = QUBOModel(matrix).coefficients
            assert folded.tobytes() == expected.tobytes()
            # A -0.0 on the diagonal comes out as +0.0, as triu + tril gives it.
            assert not np.any(np.signbit(np.diagonal(folded)) & (np.diagonal(folded) == 0.0))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
    def test_ising_fold_matches_triu_plus_tril(self, n):
        rng = np.random.default_rng(n + 80)
        for offset in (-0.0, 0.0, 1.25):
            matrix = _signed_zero_matrix(rng, n)
            fields = rng.normal(size=n)
            expected = _fold_ising(fields, matrix, offset)
            ising = IsingModel(fields=fields, couplings=matrix, offset=offset)
            assert ising.couplings.tobytes() == expected[1].tobytes()
            assert ising.fields.tobytes() == expected[0].tobytes()
            assert ising.offset.hex() == expected[2].hex()

    def test_zero_diagonal_turns_a_negative_zero_offset_positive(self):
        ising = IsingModel(fields=np.zeros(2), couplings=np.zeros((2, 2)), offset=-0.0)
        assert ising.offset.hex() == (0.0).hex()

    def test_fold_does_not_alias_the_input(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        qubo = QUBOModel(matrix)
        ising = IsingModel(fields=np.zeros(2), couplings=matrix)
        matrix[:] = 9.0
        assert qubo.coefficients.tolist() == [[1.0, 5.0], [0.0, 4.0]]
        assert ising.couplings.tolist() == [[0.0, 5.0], [0.0, 0.0]]


class TestInitialStateValidation:
    @pytest.mark.parametrize("bits", [[2], [-1], [0, 1, 2], [1, -1, 0]])
    def test_bits_to_spins_rejects_non_bits(self, bits):
        with pytest.raises(ConfigurationError, match="bits must be 0 or 1"):
            bits_to_spins(bits)

    def test_bits_to_spins_accepts_empty(self):
        spins = bits_to_spins([])
        assert spins.dtype == np.int8 and spins.shape == (0,)

    def test_bits_to_spins_values(self):
        spins = bits_to_spins(np.array([[0, 1], [1, 1]]))
        assert spins.dtype == np.int8
        assert spins.tolist() == [-1, 1, 1, 1]

    @pytest.mark.parametrize("value", [0, 2])
    def test_broadcast_rejects_non_spins(self, value):
        with pytest.raises(ConfigurationError, match="-1 or \\+1"):
            broadcast_initial_spins(np.array([1, value, -1]), 2, 3)
        with pytest.raises(ConfigurationError, match="-1 or \\+1"):
            broadcast_initial_spins(np.array([[1, -1], [value, 1]]), 2, 2)

    def test_broadcast_accepts_empty(self):
        spins = broadcast_initial_spins(np.zeros(0, dtype=np.int8), 3, 0)
        assert spins.dtype == np.int8 and spins.shape == (3, 0)
        spins = broadcast_initial_spins(np.zeros((2, 0)), 2, 0)
        assert spins.dtype == np.int8 and spins.shape == (2, 0)

    def test_broadcast_copies_a_shared_vector(self):
        vector = np.array([1, -1, 1], dtype=np.int8)
        spins = broadcast_initial_spins(vector, 4, 3)
        assert spins.flags.c_contiguous and spins.flags.writeable
        assert spins.tolist() == [[1, -1, 1]] * 4
        spins[0, 0] = -1
        assert vector[0] == 1


#: End-of-anneal cosines the fake kernel writes: exact and signed zeros and
#: values inside ``isclose``'s 1e-8 band are undecided, the rest decided.
_COSINE_POOL = np.array([0.0, -0.0, 5e-9, -5e-9, 1e-8, -1e-8, 2e-8, -3e-7, 0.4, -0.9])


class TestSVMCStartAndProjection:
    """``run_batch``'s start angles and projection against a per-instance oracle.

    The sweep kernel is replaced by a fake that records the start angles and
    writes chosen end cosines, many of them undecided, so each child's
    ``choice`` draw is exercised and compared in (read, spin) order.
    """

    def _run(self, monkeypatch, sizes, initials, reads, seed):
        rng = np.random.default_rng(seed)
        batch, max_size = len(sizes), max(sizes)
        written = np.ones((batch, max_size, reads))
        for index, size in enumerate(sizes):
            picks = rng.integers(0, _COSINE_POOL.size, (size, reads))
            written[index, :size] = _COSINE_POOL[picks]
        seen = {}

        def fake_sweeps(theta, cosines, *args, **kwargs):
            seen["theta"] = theta.copy()
            seen["cosines"] = cosines.copy()
            cosines[...] = written
            return cosines

        monkeypatch.setattr(kernels, "svmc_sweeps", fake_sweeps)
        children = spawn_rngs(seed, batch)
        replays = copy.deepcopy(children)
        fields = [rng.normal(size=size) for size in sizes]
        couplings = [np.triu(rng.normal(size=(size, size)), 1) for size in sizes]
        result = SpinVectorMonteCarloBackend(sweeps_per_microsecond=4).run_batch(
            fields,
            couplings,
            forward_anneal_schedule(1.0),
            reads,
            0.05,
            initial_spins=initials,
            rng=children,
        )
        return result, seen, written, children, replays

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_instance_oracle(self, monkeypatch, seed):
        sizes, reads = [5, 0, 9, 3, 7], 6
        state_rng = np.random.default_rng(seed + 100)
        initials = [
            state_rng.choice(np.array([-1, 1], dtype=np.int8), size=5),
            None,
            None,
            state_rng.choice(np.array([-1, 1], dtype=np.int8), size=(reads, 3)),
            None,
        ]
        result, seen, written, children, replays = self._run(
            monkeypatch, sizes, initials, reads, seed
        )
        assert len(result) == len(sizes)
        for index, (size, replay) in enumerate(zip(sizes, replays)):
            initial = initials[index]
            if initial is not None:
                start = np.broadcast_to(initial, (reads, size))
                angles = np.where(start > 0, 0.0, np.pi).astype(float)
            elif size:
                jitter = replay.normal(0.0, 1e-3, size=(reads, size))
                angles = np.full((reads, size), np.pi / 2.0) + jitter
            else:
                angles = np.zeros((reads, 0))
            start_angles = seen["theta"][index, :size].T
            assert start_angles.tobytes() == np.ascontiguousarray(angles).tobytes()
            assert not np.any(seen["theta"][index, size:])
            cosines = written[index, :size].T
            spins = np.where(cosines > 0.0, 1, -1).astype(np.int8)
            undecided = np.isclose(cosines, 0.0)
            if np.any(undecided):
                spins[undecided] = replay.choice(
                    np.array([-1, 1], dtype=np.int8), size=int(undecided.sum())
                )
            actual = result[index]
            assert actual.dtype == np.int8 and actual.shape == (reads, size)
            # A transposed view of a spin-major block, the layout the
            # sampler's energy evaluation has always been handed.
            assert actual.flags.f_contiguous
            assert actual.tobytes() == spins.tobytes()
            assert children[index].bit_generator.state == replay.bit_generator.state
        # The oracle really met undecided rotors.
        assert np.isclose(written, 0.0).sum() > 10
        # Padding rotors start at theta = 0: cos 1.
        assert np.all(seen["cosines"][1] == 1.0)


# ---------------------------------------------------------------------- #
# Scoring a read does not depend on the other reads of its batch
# ---------------------------------------------------------------------- #


@st.composite
def _scored_batches(draw):
    """``(qubo, rows, permutation)``: a random QUBO over 1-64 variables, a
    batch of 1-300 reads, and a shuffle of that batch."""
    size = draw(st.integers(min_value=1, max_value=64))
    count = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    qubo = QUBOModel(coefficients=np.triu(rng.normal(size=(size, size))), offset=rng.normal())
    return qubo, rng.integers(0, 2, size=(count, size)), rng.permutation(count)


@given(_scored_batches())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_each_read_scores_the_same_bits_alone_in_its_batch_and_shuffled(case):
    # The sampler re-scores its reads under the QUBO in one batch; a read's
    # energy must be the same float however many reads share the batch and
    # in what order.  (``IsingModel.energies`` gives no such guarantee: its
    # ``batch @ fields`` product can round a row differently by batch size.)
    qubo, rows, permutation = case
    batched = qubo.energies(rows)
    shuffled = qubo.energies(rows[permutation])
    for index, row in enumerate(rows):
        alone = qubo.energies(row[None, :])[0]
        assert alone.tobytes() == batched[index].tobytes()
    assert shuffled.tobytes() == batched[permutation].tobytes()


# ---------------------------------------------------------------------- #
# The sampler scores each read once, under the caller's model
# ---------------------------------------------------------------------- #

#: Small integer coefficients: distinct reads often tie in energy, and the
#: instances are small enough that reads repeat.
_TIE_PRONE_COEFFICIENTS = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0])
_FORWARD = forward_anneal_schedule(1.0, pause_s=0.5, pause_duration_us=0.5)
_REVERSE = reverse_anneal_schedule(0.4, 0.5)
_SAMPLERS = [
    pytest.param(QuantumAnnealerSimulator, id="exact"),
    pytest.param(
        lambda **kwargs: NoisySampler(field_noise_sigma=0.05, coupling_noise_sigma=0.05, **kwargs),
        id="control-noise",
    ),
]


def _fast(sampler_class):
    return sampler_class(backend=SpinVectorMonteCarloBackend(sweeps_per_microsecond=4.0), seed=1)


@st.composite
def _qubo_batches(draw):
    """``(qubos, reads, states)``: 1-4 QUBOs of 0-5 variables with tie-prone
    coefficients, 1-40 reads, and 0/1 initial states or ``None`` (forward)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sizes = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4))
    offsets = rng.integers(-2, 3, size=len(sizes)).tolist()
    qubos = [
        QUBOModel(rng.choice(_TIE_PRONE_COEFFICIENTS, size=(n, n)), offset=float(offset))
        for n, offset in zip(sizes, offsets)
    ]
    states = [rng.integers(0, 2, size=n) for n in sizes] if draw(st.booleans()) else None
    return qubos, draw(st.integers(min_value=1, max_value=40)), states


def _record_kernel_spins(patch):
    """Every instance's final spins as the backend returns them, in order."""
    recorded = []
    run_batch = SpinVectorMonteCarloBackend.run_batch

    def recording_run_batch(self, *args, **kwargs):
        result = run_batch(self, *args, **kwargs)
        recorded.extend(result)
        return result

    patch.setattr(SpinVectorMonteCarloBackend, "run_batch", recording_run_batch)
    return recorded


@pytest.mark.parametrize("sampler_class", _SAMPLERS)
@given(case=_qubo_batches())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_qubo_path_matches_the_score_twice_reference(sampler_class, case):
    # Scoring each read once under the QUBO gives the bytes the former
    # construction gave: Ising scores, aggregate, QUBO re-score, re-sort.
    qubos, reads, states = case
    schedule = _FORWARD if states is None else _REVERSE
    with pytest.MonkeyPatch.context() as patch:
        kernel_spins = _record_kernel_spins(patch)
        samplesets = _fast(sampler_class).sample_qubo_batch(qubos, schedule, reads, states, rng=7)
    for qubo, spins, sampleset in zip(qubos, kernel_spins, samplesets, strict=True):
        reference = score_twice_reference(qubo, spins)
        expected_bits = np.array([record.assignment for record in reference], dtype=np.int8)
        expected_energies = np.array([record.energy for record in reference])
        assert sampleset.assignments().tobytes() == expected_bits.tobytes()
        assert sampleset.energies().tobytes() == expected_energies.tobytes()
        assert sampleset.occurrences().tolist() == [r.num_occurrences for r in reference]


@pytest.mark.parametrize("sampler_class", _SAMPLERS)
@pytest.mark.parametrize("form", ["qubo", "ising"])
def test_each_instance_is_scored_once_under_its_own_model(monkeypatch, sampler_class, form):
    # A chunked batch with an empty instance: the QUBO path never scores
    # under the Ising form, and each path scores each instance in one call.
    calls = {QUBOModel: 0, IsingModel: 0}
    for model in calls:
        energies = model.energies

        def counting(self, assignments, model=model, energies=energies):
            calls[model] += 1
            return energies(self, assignments)

        monkeypatch.setattr(model, "energies", counting)
    monkeypatch.setattr(sampler_module, "SPIN_READ_BUDGET", 2 * 6 * 9)
    rng = np.random.default_rng(3)
    qubos = [QUBOModel(np.triu(rng.normal(size=(n, n)))) for n in (4, 0, 6, 3)]
    sampler = _fast(sampler_class)
    if form == "qubo":
        sampler.sample_qubo_batch(qubos, _FORWARD, 9, rng=5)
        assert calls == {QUBOModel: len(qubos), IsingModel: 0}
    else:
        isings = [qubo_to_ising(qubo) for qubo in qubos]
        sampler.sample_ising_batch(isings, _FORWARD, 9, rng=5)
        assert calls == {QUBOModel: 0, IsingModel: len(isings)}
