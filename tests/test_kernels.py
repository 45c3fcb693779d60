"""Tests for repro.annealing.kernels (replica-parallel sweep kernels).

The reference kernels in ``tests/kernel_spec.py`` are the executable
specification: the production kernel of each family must reproduce them
*bit for bit* on every tested configuration — spin counts (including SVMC
batches that cross the fixed 64-rotor chunk boundary), SVMC chunk widths,
read counts, schedules and seeds — for both the SA and SVMC families.  The
suite also locks down the random-draw discipline that keeps experiment
results invariant to batching.
"""

import copy

import numpy as np
import pytest

from repro.annealing import kernels
from repro.annealing.device import AnnealingFunctions
from repro.annealing.kernels import initial_local_fields, sa_sweeps, svmc_sweeps
from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.annealing.schedule import forward_anneal_schedule, reverse_anneal_schedule
from repro.annealing.svmc import SpinVectorMonteCarloBackend
from repro.classical.simulated_annealing import SimulatedAnnealingSolver
from repro.qubo.ising import IsingModel
from repro.qubo.model import QUBOModel
from repro.utils.rng import spawn_rngs
from tests import kernel_spec
from tests.kernel_spec import sa_sweeps_reference, svmc_sweeps_reference

#: Named SVMC sweep schedules exercising every decision branch of the
#: kernel: problem > 0 and problem == 0 sweeps, hot and near-frozen
#: temperatures, and both sides of the activity crossover — every entry
#: mixes gated (activity < 1) and dense (activity = 1) sweeps.
SCHEDULES = {
    "anneal": [
        (0.2, 0.8, 2.0, 1.0),
        (0.6, 0.4, 1.0, 0.6),
        (1.0, 0.05, 0.3, 0.02),
    ],
    "zero-problem": [
        (0.0, 1.0, 2.0, 0.5),
        (0.0, 1.0, 2.0, 1.0),
        (1.0, 0.0, 0.5, 1.0),
    ],
    "cold-quench": [
        (1.0, 0.0, 1e-6, 1.0),
        (1.0, 0.0, 1e-6, 0.4),
    ],
}

#: Named SA temperature schedules (one temperature per sweep): a cooling
#: anneal, a near-frozen quench and a hot random walk.
SA_SCHEDULES = {
    "anneal": [2.0, 1.0, 0.3, 0.05],
    "cold-quench": [1e-6, 1e-6],
    "hot": [50.0, 20.0],
}

#: Batch compositions: equal sizes, ragged sizes (padding lanes), batch of 1.
SIZE_SETS = {
    "single": [6],
    "equal": [5, 5],
    "ragged": [7, 3, 10],
}

#: SA batches add a ragged batch with an empty instance (a lane of pure
#: padding that draws nothing).
SA_SIZE_SETS = {**SIZE_SETS, "ragged-empty": [7, 0, 10]}

#: SVMC batches that cross the fixed 64-rotor chunk boundary: a partial
#: second chunk beside a one-chunk instance, and three chunks.
CROSS_CHUNK_SIZE_SETS = {"cross-chunk": [70, 9], "three-chunks": [130]}

#: SVMC chunk widths the equivalence tests run both kernels at: narrow
#: widths put chunk boundaries inside the small test instances, and the
#: last is the fixed production width.
SVMC_CHUNKS = [1, 4, kernel_spec.SVMC_CHUNK]


def _sa_temperatures(schedule, batch):
    """``(num_sweeps, batch)`` rows: instance ``b`` runs ``schedule`` scaled by ``1 + b/2``."""
    return np.outer(schedule, 1.0 + 0.5 * np.arange(batch))


def _problem_batch(sizes, seed):
    """Random padded (fields, symmetric couplings, mask, sizes) batch."""
    rng = np.random.default_rng(seed)
    batch, max_size = len(sizes), max(sizes)
    padded_fields = np.zeros((batch, max_size))
    symmetric = np.zeros((batch, max_size, max_size))
    mask = np.zeros((batch, max_size), dtype=bool)
    for b, n in enumerate(sizes):
        padded_fields[b, :n] = rng.normal(size=n)
        upper = np.triu(rng.normal(size=(n, n)), 1)
        symmetric[b, :n, :n] = upper + upper.T
        mask[b, :n] = True
    return padded_fields, symmetric, mask, np.array(sizes, dtype=int)


def _sa_state(sizes, reads, seed, padded_fields, symmetric):
    """Fresh SA kernel state (spins, fields, tracked energies and minima)."""
    children = spawn_rngs(seed, len(sizes))
    batch, max_size = len(sizes), max(sizes)
    state = np.ones((batch, max_size, reads))
    for b, n in enumerate(sizes):
        state[b, :n] = children[b].choice([-1.0, 1.0], size=(reads, n)).T
    local = initial_local_fields(padded_fields, symmetric, state)
    energies = 0.5 * (
        np.einsum("bnr,bnr->br", state, local)
        + np.einsum("bnr,bn->br", state, padded_fields)
    )
    tracked = {
        "energies": energies,
        "best_spins": state.copy(),
        "best_energies": energies.copy(),
    }
    return state, local, children, tracked


def _svmc_state(sizes, reads, seed, padded_fields, symmetric):
    """Fresh SVMC rotor state plus the child generators that drive it."""
    children = spawn_rngs(seed, len(sizes))
    batch, max_size = len(sizes), max(sizes)
    theta = np.zeros((batch, max_size, reads))
    for b, n in enumerate(sizes):
        theta[b, :n] = children[b].uniform(0.0, np.pi, size=(reads, n)).T
    cosines = np.cos(theta)
    sines = np.sin(theta)
    local = initial_local_fields(padded_fields, symmetric, cosines)
    return theta, cosines, sines, local, children


def _svmc_chunk_width(monkeypatch, chunk):
    """Run the production SVMC kernel and its spec at ``chunk`` rotors per chunk.

    The fixed width is left unpatched, so a change to either kernel's own
    constant still fails the tests run at it.
    """
    if chunk != kernel_spec.SVMC_CHUNK:
        monkeypatch.setattr(kernels, "_SVMC_CHUNK", chunk)
        monkeypatch.setattr(kernel_spec, "SVMC_CHUNK", chunk)


def _kernel(dispatch, spec, implementation):
    """The test-side ``spec`` for ``"reference"``, else the production entry point."""
    return spec if implementation == "reference" else dispatch


#: Kernels the solver-level tests substitute for production, by name: the
#: (SA, SVMC) pair of the test-side specification.
SPEC_KERNELS = {"reference": (sa_sweeps_reference, svmc_sweeps_reference)}


def _use_kernel(monkeypatch, kernel):
    """Route every solver-level kernel call to the named ``SPEC_KERNELS`` pair."""
    sa, svmc = SPEC_KERNELS[kernel]
    monkeypatch.setattr(kernels, "sa_sweeps_vectorized", sa)
    monkeypatch.setattr(kernels, "svmc_sweeps_vectorized", svmc)


def _run_sa(implementation, sizes, reads, seed, temperatures):
    padded_fields, symmetric, _, size_array = _problem_batch(sizes, seed + 1000)
    state, local, children, tracked = _sa_state(
        sizes, reads, seed, padded_fields, symmetric
    )
    _kernel(sa_sweeps, sa_sweeps_reference, implementation)(
        state, local, symmetric, size_array, children, temperatures, **tracked
    )
    return state, local, tracked


def _run_svmc(implementation, sizes, reads, seed, schedule, **params):
    padded_fields, symmetric, _, size_array = _problem_batch(sizes, seed + 1000)
    theta, cosines, sines, local, children = _svmc_state(
        sizes, reads, seed, padded_fields, symmetric
    )
    _kernel(svmc_sweeps, svmc_sweeps_reference, implementation)(
        theta,
        cosines,
        sines,
        local,
        symmetric,
        size_array,
        children,
        schedule,
        proposal_width=params.get("proposal_width", 0.5),
        uniform_fraction=params.get("uniform_fraction", 0.15),
    )
    return theta, cosines, sines, local


def _assert_sa_bitwise(expected, actual):
    """States, fields, energies and tracked minima are byte-identical."""
    assert expected[0].tobytes() == actual[0].tobytes()
    assert expected[1].tobytes() == actual[1].tobytes()
    for key in ("energies", "best_spins", "best_energies"):
        assert expected[2][key].tobytes() == actual[2][key].tobytes(), key


class TestSAEquivalence:
    """The vectorized SA kernel is bitwise-identical to the reference."""

    @pytest.mark.parametrize("size_key", sorted(SA_SIZE_SETS))
    @pytest.mark.parametrize("schedule_key", sorted(SA_SCHEDULES))
    @pytest.mark.parametrize("reads", [1, 4])
    def test_vectorized_matches_reference(self, size_key, schedule_key, reads):
        sizes = SA_SIZE_SETS[size_key]
        temperatures = _sa_temperatures(SA_SCHEDULES[schedule_key], len(sizes))
        ref = _run_sa("reference", sizes, reads, 7, temperatures)
        vec = _run_sa("vectorized", sizes, reads, 7, temperatures)
        _assert_sa_bitwise(ref, vec)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_seed_sweep(self, seed):
        temperatures = _sa_temperatures(SA_SCHEDULES["anneal"], 2)
        ref = _run_sa("reference", [9, 4], 3, seed, temperatures)
        vec = _run_sa("vectorized", [9, 4], 3, seed, temperatures)
        _assert_sa_bitwise(ref, vec)

    def test_energy_and_best_tracking_match(self, monkeypatch):
        # Per-instance temperatures with exact energy bookkeeping and
        # best-state minima.  The cold quench leaves both instances in local
        # minima; instance 1 is then reheated alone, so in the cold final
        # sweep instance 0 flips nothing while instance 1 descends.
        # Positions where nobody flips skip the commit, and positions where
        # only instance 1 flips commit a zero change for instance 0.
        cold = [1e-9, 1e-9]
        temperatures = np.array(
            [[3.0, 1.0], [0.5, 0.2], [0.05, 0.01], cold, cold, [1e-9, 5.0], cold]
        )
        commits = []
        commit = kernels._commit_flip
        monkeypatch.setattr(
            kernels, "_commit_flip", lambda *args: commits.append(1) or commit(*args)
        )
        ref = _run_sa("reference", [6, 8], 3, 0, temperatures)
        commits.clear()
        vec = _run_sa("vectorized", [6, 8], 3, 0, temperatures)
        _assert_sa_bitwise(ref, vec)
        assert 0 < len(commits) < len(temperatures) * 8
        before = _run_sa("vectorized", [6, 8], 3, 0, temperatures[:-1])[0]
        assert np.array_equal(before[0], vec[0][0])
        assert not np.array_equal(before[1], vec[0][1])

    def test_tracked_energies_are_exact(self):
        # The incrementally-maintained energies equal a from-scratch
        # recomputation (floating-point exactly is too strong across the
        # different reduction, so compare to double rounding).
        sizes, reads, seed = [7, 5], 4, 3
        padded_fields, symmetric, _, size_array = _problem_batch(sizes, seed + 1000)
        state, local, children, tracked = _sa_state(
            sizes, reads, seed, padded_fields, symmetric
        )
        sa_sweeps(
            state,
            local,
            symmetric,
            size_array,
            children,
            _sa_temperatures(SA_SCHEDULES["anneal"], len(sizes)),
            **tracked,
        )
        recomputed = 0.5 * (
            np.einsum("bnr,bnr->br", state, initial_local_fields(padded_fields, symmetric, state))
            + np.einsum("bnr,bn->br", state, padded_fields)
        )
        assert np.allclose(tracked["energies"], recomputed, atol=1e-9)
        assert np.all(tracked["best_energies"] <= tracked["energies"] + 1e-12)

    def test_fill_thresholds_match_generator_draws(self):
        # The spec shares this helper, so its contract is pinned here: per
        # real row, (T_b / 2) * log(u) of the instance's own uniforms;
        # padding rows and empty instances untouched and undrawn.
        sizes, reads = np.array([5, 0, 3]), 4
        temperatures = np.array([0.7, 9.0, 2.5])
        children = spawn_rngs(17, len(sizes))
        replays = copy.deepcopy(children)
        out = np.full((len(sizes), int(sizes.max()), reads), 7.0)
        kernels._sa_fill_thresholds(children, sizes, out, temperatures)
        for index, (size, replay) in enumerate(zip(sizes, replays)):
            expected = np.log(replay.random((size, reads))) * (temperatures[index] / 2.0)
            assert out[index, :size].tobytes() == expected.tobytes()
            assert np.all(out[index, size:] == 7.0)
            assert children[index].random() == replay.random()

    def test_padding_lanes_never_move(self):
        temperatures = _sa_temperatures(SA_SCHEDULES["anneal"], 2)
        state, _, _ = _run_sa("vectorized", [3, 9], 4, 11, temperatures)
        assert np.all(state[0, 3:] == 1.0)


class TestSVMCEquivalence:
    """The vectorized SVMC kernel is bitwise-identical to the reference."""

    @pytest.mark.parametrize("size_key", sorted(SIZE_SETS))
    @pytest.mark.parametrize("schedule_key", sorted(SCHEDULES))
    @pytest.mark.parametrize("reads", [1, 4])
    @pytest.mark.parametrize("chunk", SVMC_CHUNKS)
    def test_vectorized_matches_reference(
        self, monkeypatch, size_key, schedule_key, reads, chunk
    ):
        _svmc_chunk_width(monkeypatch, chunk)
        sizes, schedule = SIZE_SETS[size_key], SCHEDULES[schedule_key]
        # Every schedule runs both the gated and the dense sweep program.
        activities = [row[3] for row in schedule]
        assert min(activities) < 1.0 and max(activities) == 1.0
        ref = _run_svmc("reference", sizes, reads, 7, schedule)
        vec = _run_svmc("vectorized", sizes, reads, 7, schedule)
        for reference, candidate in zip(ref, vec):
            assert reference.tobytes() == candidate.tobytes()

    @pytest.mark.parametrize("size_key", sorted(CROSS_CHUNK_SIZE_SETS))
    @pytest.mark.parametrize("schedule_key", sorted(SCHEDULES))
    @pytest.mark.parametrize("reads", [1, 4])
    def test_fixed_chunk_boundary_matches_reference(self, size_key, schedule_key, reads):
        sizes, schedule = CROSS_CHUNK_SIZE_SETS[size_key], SCHEDULES[schedule_key]
        ref = _run_svmc("reference", sizes, reads, 7, schedule)
        vec = _run_svmc("vectorized", sizes, reads, 7, schedule)
        for reference, candidate in zip(ref, vec):
            assert reference.tobytes() == candidate.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("uniform_fraction", [0.0, 0.3])
    def test_seed_and_mix_sweep(self, seed, uniform_fraction):
        ref = _run_svmc(
            "reference", [70, 5], 3, seed, SCHEDULES["anneal"],
            uniform_fraction=uniform_fraction,
        )
        vec = _run_svmc(
            "vectorized", [70, 5], 3, seed, SCHEDULES["anneal"],
            uniform_fraction=uniform_fraction,
        )
        for reference, candidate in zip(ref, vec):
            assert np.array_equal(reference, candidate)

    def test_state_invariants(self):
        theta, cosines, sines, _ = _run_svmc(
            "vectorized", [4, 70], 5, 13, SCHEDULES["anneal"]
        )
        assert np.all((theta >= 0.0) & (theta <= np.pi))
        # cos/sin caches track the angles (sin via sqrt(1-cos^2)).
        assert np.allclose(cosines, np.cos(theta), atol=1e-12)
        assert np.allclose(sines, np.sqrt(1.0 - np.cos(theta) ** 2), atol=1e-12)
        # Padding rotors of the first (size-4) instance stay at theta = 0.
        assert np.all(theta[0, 4:] == 0.0)



class TestSVMCSharedHelpers:
    """The SVMC draw and proposal helpers, pinned without the spec.

    ``tests/kernel_spec.py`` calls these helpers itself, so the equivalence
    tests cannot see a fault in them; these tests state their contracts
    directly.
    """

    def test_draw_blocks_match_generator_draws(self):
        # Per child: the accept uniforms first, then one normal (scaled as
        # normal(0, w) scales it) and one mix per real position below the
        # gate, packed in batch order; nothing else is drawn, and nothing
        # but the gate test is written into the padding rows.
        sizes, reads, width = np.array([5, 0, 9, 3]), 4, 0.7
        shape = (len(sizes), int(sizes.max()), reads)
        for activity in (0.3, 1.0):
            gate = activity * (1.0 + 2.0**-20)
            children = spawn_rngs(31, len(sizes))
            replays = copy.deepcopy(children)
            uniforms, passing = np.full(shape, 7.0), np.ones(shape, dtype=bool)
            normals, mixes = np.full(uniforms.size, 7.0), np.full(uniforms.size, 7.0)
            count = kernels._svmc_draw_blocks(
                children, sizes, width, activity, uniforms, passing, normals, mixes
            ).size
            offset = 0
            for index, (size, replay) in enumerate(zip(sizes, replays)):
                expected = replay.random((size, reads))
                assert uniforms[index, :size].tobytes() == expected.tobytes()
                chosen = expected < gate
                assert np.array_equal(passing[index, :size], chosen)
                drawn = int(np.count_nonzero(chosen))
                if gate > 1.0:
                    assert drawn == size * reads
                steps = replay.standard_normal(drawn) * width + 0.0
                assert normals[offset : offset + drawn].tobytes() == steps.tobytes()
                assert mixes[offset : offset + drawn].tobytes() == replay.random(drawn).tobytes()
                offset += drawn
                # Each child drew exactly its own blocks, nothing more.
                assert children[index].random() == replay.random()
                # Padding uniforms are not written; at 7.0 no gate passes them.
                assert np.all(uniforms[index, size:] == 7.0)
                assert not np.any(passing[index, size:])
            assert count == offset
            assert np.all(normals[count:] == 7.0) and np.all(mixes[count:] == 7.0)

    @pytest.mark.parametrize("uniform_fraction", [0.0, 0.25])
    def test_propose_block_equals_the_clip_formulation(self, uniform_fraction):
        rng = np.random.default_rng(8)
        shape = (3, 4, 50)
        theta = rng.uniform(0.0, np.pi, shape)
        # Steps wide enough that many sums fall outside [0, pi] on both sides.
        normals = rng.normal(0.0, 2.0, shape) + 0.0
        mixes = rng.random(shape)
        proposed = np.empty(shape)
        kernels._svmc_propose_block(theta, normals, mixes, uniform_fraction, proposed)
        expected = np.clip(theta + normals, 0.0, np.pi)
        if uniform_fraction > 0.0:
            redraw = mixes < uniform_fraction
            expected[redraw] = mixes[redraw] * (np.pi / uniform_fraction)
        assert np.any(theta + normals < 0.0) and np.any(theta + normals > np.pi)
        assert proposed.tobytes() == expected.tobytes()


#: Activities around the SVMC freeze-out gate.  The crossover between the
#: gated and the dense program is full activity, where the gate can no
#: longer reject: the backend's residual floor and a half-open gate (gated
#: program), the largest activity below the crossover (gated program, but
#: the gate margin lets every position pass) and full activity (dense
#: program; keyed both "at-crossover" and "full").
GATE_ACTIVITIES = {
    "floor": 0.02,
    "half": 0.5,
    "below-crossover": float(np.nextafter(1.0, 0.0)),
    "at-crossover": 1.0,
    "full": 1.0,
}

#: Batch compositions for the gated path: one instance, ragged padding, and
#: sizes 65 and 130 (several chunks at any tested width, a partial last
#: chunk at the fixed 64-rotor width).
GATE_SIZES = {"single": [6], "ragged": [7, 3, 10], "multi-chunk": [65, 130, 3]}


def _gate_schedule(activity):
    return [(0.3, 0.7, 1.5, activity), (0.7, 0.3, 0.8, activity), (1.0, 0.05, 0.2, activity)]


def _assert_bitwise(expected, actual):
    for reference, candidate in zip(expected, actual):
        assert reference.tobytes() == candidate.tobytes()


class TestGatedSVMC:
    """Sweeps below the activity crossover evaluate only gate-passing
    proposals; the results stay bit-identical to the spec."""

    @pytest.mark.parametrize("activity_key", sorted(GATE_ACTIVITIES))
    @pytest.mark.parametrize("size_key", sorted(GATE_SIZES))
    @pytest.mark.parametrize("reads", [1, 5])
    @pytest.mark.parametrize("uniform_fraction", [0.0, 0.2])
    @pytest.mark.parametrize("chunk", SVMC_CHUNKS[1:])
    def test_matches_reference(
        self, monkeypatch, activity_key, size_key, reads, uniform_fraction, chunk
    ):
        _svmc_chunk_width(monkeypatch, chunk)
        schedule = _gate_schedule(GATE_ACTIVITIES[activity_key])
        sizes = GATE_SIZES[size_key]
        runs = [
            _run_svmc(
                implementation, sizes, reads, 11, schedule,
                uniform_fraction=uniform_fraction,
            )
            for implementation in ("reference", "vectorized")
        ]
        _assert_bitwise(*runs)

    def test_dense_and_gated_sweeps_interleave(self):
        schedule = [
            (0.2, 0.8, 2.0, 1.0),
            (0.5, 0.5, 1.0, 0.02),
            (0.7, 0.3, 0.6, 1.0),
            (0.9, 0.1, 0.3, 0.3),
            (1.0, 0.0, 0.1, 0.5),
        ]
        runs = [
            _run_svmc(implementation, [65, 9], 3, 5, schedule)
            for implementation in ("reference", "vectorized")
        ]
        _assert_bitwise(*runs)

    @pytest.mark.parametrize("uniform_fraction", [0.0, 0.2])
    def test_uniform_equal_to_activity(self, uniform_fraction):
        # Replay the first sweep's accept uniforms (each child's first draw)
        # on a copy of the children and set the activity to one of them.
        sizes, reads, seed = [7, 4], 6, 23
        padded_fields, symmetric, _, size_array = _problem_batch(sizes, seed + 1000)
        children = _svmc_state(sizes, reads, seed, padded_fields, symmetric)[-1]
        uniforms = copy.deepcopy(children[0]).random((sizes[0], reads))
        activity = float(uniforms[uniforms < 0.5][0])
        # The kernel's own draw helper puts that value among the sweep's
        # accept uniforms, so the gate really meets u == activity.
        drawn = np.full((len(sizes), max(sizes), reads), np.inf)
        kernels._svmc_draw_blocks(
            copy.deepcopy(children), size_array, 0.5, activity, drawn,
            np.zeros(drawn.shape, dtype=bool), np.empty(drawn.size), np.empty(drawn.size),
        )
        assert activity in drawn[0, : sizes[0]]
        schedule = [(0.6, 0.4, 0.7, activity), (0.9, 0.1, 0.3, activity)]
        runs = [
            _run_svmc(
                implementation, sizes, reads, seed, schedule,
                uniform_fraction=uniform_fraction,
            )
            for implementation in ("reference", "vectorized")
        ]
        _assert_bitwise(*runs)

    @pytest.mark.parametrize("activity_key", sorted(GATE_ACTIVITIES))
    def test_crossover_selects_the_path(self, monkeypatch, activity_key):
        calls = []
        gated = kernels._svmc_gated_chunk
        monkeypatch.setattr(
            kernels, "_svmc_gated_chunk", lambda *args: calls.append(1) or gated(*args)
        )
        activity = GATE_ACTIVITIES[activity_key]
        _run_svmc("vectorized", [5], 2, 3, _gate_schedule(activity))
        assert bool(calls) == (activity < 1.0)

    def test_padding_rotors_never_move(self):
        # Padding rows keep zero accept thresholds, which no step (clamped
        # at zero) falls below, so padding lanes stay frozen even when they
        # hold a rotor state that a proposal could change, on gated sweeps
        # and on dense sweeps that follow them.
        mixed = [(0.5, 0.5, 1.0, 0.9), (0.7, 0.3, 0.6, 1.0)] * 2
        for schedule in (_gate_schedule(0.02), mixed):
            sizes, reads = [3, 8], 4
            padded_fields, symmetric, _, size_array = _problem_batch(sizes, 77)
            theta, cosines, sines, local, children = _svmc_state(
                sizes, reads, 5, padded_fields, symmetric
            )
            theta[0, 3:] = np.pi / 3.0
            cosines[0, 3:] = np.cos(np.pi / 3.0)
            sines[0, 3:] = np.sin(np.pi / 3.0)
            padding = [array[0, 3:].copy() for array in (theta, cosines, sines)]
            svmc_sweeps(
                theta, cosines, sines, local, symmetric, size_array, children, schedule,
                proposal_width=0.5, uniform_fraction=0.2,
            )
            for before, array in zip(padding, (theta, cosines, sines)):
                assert before.tobytes() == array[0, 3:].tobytes()

    def test_dense_sweep_clears_packed_draws_from_padding(self):
        # A gated sweep packs its draws over the padding rows of the dense
        # blocks (here instance 0's), and the dense program scales its whole
        # normal block.  Left in place, a huge-width step would overflow
        # there on the next dense sweep.
        schedule = [(0.5, 0.5, 1.0, 0.9), (0.7, 0.3, 0.6, 1.0)] * 2
        with np.errstate(over="raise"):
            runs = [
                _run_svmc(
                    implementation, [3, 6], 4, 2, schedule,
                    proposal_width=1e300,
                )
                for implementation in ("reference", "vectorized")
            ]
        _assert_bitwise(*runs)

    def test_rejects_non_contiguous_state(self):
        padded_fields, symmetric, _, size_array = _problem_batch([4], 1)
        theta, cosines, sines, local, children = _svmc_state([4], 6, 0, padded_fields, symmetric)
        with pytest.raises(ValueError, match="C-contiguous"):
            svmc_sweeps(
                theta[:, :, ::2], cosines[:, :, ::2], sines[:, :, ::2], local[:, :, ::2],
                symmetric, size_array, children, _gate_schedule(0.02),
                proposal_width=0.5, uniform_fraction=0.1,
            )

    def test_transcendentals_match_on_gathered_blocks(self):
        # The gated path relies on numpy's elementwise cos/log giving the
        # same bits on a gathered contiguous 1-D block as on the dense chunk
        # block and on a non-contiguous partial-chunk view.  Fail loudly on
        # a platform where that does not hold.
        rng = np.random.default_rng(42)
        batch, chunk_cap, reads, width = 3, 64, 37, 23
        angles = rng.uniform(0.0, np.pi, size=(batch, chunk_cap, reads))
        uniforms = rng.random((batch, chunk_cap, reads))
        uniforms.reshape(-1)[:4] = [0.0, 1.0, 5e-324, 0.5]
        positions = np.flatnonzero(rng.random((batch, width, reads)) < 0.3)
        for ufunc, values in ((np.cos, angles), (np.log, uniforms)):
            with np.errstate(divide="ignore"):
                dense = ufunc(values)[:, :width].reshape(-1)[positions]
                view = ufunc(values[:, :width]).reshape(-1)[positions]
                gathered = np.take(values[:, :width].reshape(-1), positions)
                # Written into an offset slice of a larger buffer, as the
                # kernel does with its scratch.
                out = np.empty(gathered.size + 1)[1:]
                ufunc(gathered, out=out)
            assert dense.tobytes() == view.tobytes() == out.tobytes()


def _toy_qubo(seed, size=8):
    rng = np.random.default_rng(seed)
    matrix = np.triu(rng.normal(size=(size, size)))
    return QUBOModel(matrix)


def _toy_ising(seed, size=8):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.normal(size=(size, size)), 1)
    return IsingModel(fields=rng.normal(size=size), couplings=upper)


class TestSolverLevelEquivalence:
    """End-to-end runs agree bitwise with the spec swapped in for the kernels."""

    @pytest.mark.parametrize("kernel", sorted(SPEC_KERNELS))
    def test_classical_sa(self, monkeypatch, kernel):
        qubos = [_toy_qubo(seed) for seed in range(3)]
        solver = SimulatedAnnealingSolver(num_sweeps=30)
        baseline = solver.solve_batch(qubos, rng=0)
        _use_kernel(monkeypatch, kernel)
        candidate = solver.solve_batch(qubos, rng=0)
        for expected, actual in zip(baseline, candidate):
            assert np.array_equal(expected.assignment, actual.assignment)
            assert expected.energy == actual.energy

    @pytest.mark.parametrize("kernel", sorted(SPEC_KERNELS))
    @pytest.mark.parametrize("backend_cls", [SpinVectorMonteCarloBackend])
    def test_anneal_backends(self, monkeypatch, kernel, backend_cls):
        ising = _toy_ising(4)
        functions = AnnealingFunctions()
        schedule = forward_anneal_schedule(1.0)
        backend = backend_cls()
        baseline = backend.run(
            ising.fields, ising.couplings, schedule, 6, functions, 0.05,
            rng=np.random.default_rng(2),
        )
        _use_kernel(monkeypatch, kernel)
        candidate = backend.run(
            ising.fields, ising.couplings, schedule, 6, functions, 0.05,
            rng=np.random.default_rng(2),
        )
        assert np.array_equal(baseline, candidate)


class TestDrawDiscipline:
    """Child-RNG consumption is invariant to batching, chunking and reads."""

    @pytest.mark.parametrize("backend_cls", [SpinVectorMonteCarloBackend])
    def test_single_run_is_a_batch_of_one(self, backend_cls):
        ising = _toy_ising(9)
        functions = AnnealingFunctions()
        schedule = forward_anneal_schedule(1.0)
        backend = backend_cls()
        single = backend.run(
            ising.fields, ising.couplings, schedule, 5, functions, 0.05,
            rng=np.random.default_rng(3),
        )
        batched = backend.run_batch(
            [ising.fields], [ising.couplings], schedule, 5, functions, 0.05,
            rng=[np.random.default_rng(3)],
        )
        assert np.array_equal(single, batched[0])

    @pytest.mark.parametrize("backend_cls", [SpinVectorMonteCarloBackend])
    def test_batch_grouping_is_immaterial(self, backend_cls):
        # Lane b of a ragged batch equals a solo run with the same child:
        # padding other instances to a larger common size must not change
        # instance b's draws or dynamics.
        isings = [_toy_ising(s, size=n) for s, n in [(0, 5), (1, 9), (2, 3)]]
        functions = AnnealingFunctions()
        schedule = forward_anneal_schedule(1.0)
        backend = backend_cls()
        batched = backend.run_batch(
            [i.fields for i in isings],
            [i.couplings for i in isings],
            schedule, 4, functions, 0.05,
            rng=[np.random.default_rng(100 + b) for b in range(3)],
        )
        for b, ising in enumerate(isings):
            solo = backend.run(
                ising.fields, ising.couplings, schedule, 4, functions, 0.05,
                rng=np.random.default_rng(100 + b),
            )
            assert np.array_equal(solo, batched[b])

    def test_classical_solver_batch_grouping(self):
        qubos = [_toy_qubo(seed, size=4 + seed) for seed in range(3)]
        solver = SimulatedAnnealingSolver(num_sweeps=25)
        batched = solver.solve_batch(qubos, rng=5)
        children = spawn_rngs(5, 3)
        for qubo, child, expected in zip(qubos, children, batched):
            solo = solver.solve(qubo, rng=child)
            assert np.array_equal(solo.assignment, expected.assignment)
            assert solo.energy == expected.energy

    def test_classical_solver_empty_instance_in_batch(self):
        # An empty QUBO rides through the kernel as a lane of pure padding:
        # it draws nothing and leaves its neighbour's result unchanged.
        qubos = [QUBOModel(np.zeros((0, 0))), _toy_qubo(3, size=7)]
        solver = SimulatedAnnealingSolver(num_sweeps=25)
        batched = solver.solve_batch(qubos, rng=5)
        for qubo, child, expected in zip(qubos, spawn_rngs(5, 2), batched):
            solo = solver.solve(qubo, rng=child)
            assert solo.assignment.tobytes() == expected.assignment.tobytes()
            assert solo.energy == expected.energy
        assert batched[0].assignment.size == 0

    def test_sa_consumes_one_block_per_sweep(self):
        # The SA kernel visits positions one at a time, but each sweep's
        # uniforms are drawn up front as one (size, reads) block per
        # instance: follower draws after the kernel equal a replay of
        # exactly those blocks, and an empty instance draws nothing.
        sizes, reads = [6, 0, 4], 3
        temperatures = _sa_temperatures(SA_SCHEDULES["anneal"], len(sizes))
        padded_fields, symmetric, _, size_array = _problem_batch(sizes, 99)
        state, local, children, tracked = _sa_state(sizes, reads, 21, padded_fields, symmetric)
        replays = copy.deepcopy(children)
        sa_sweeps(state, local, symmetric, size_array, children, temperatures, **tracked)
        for size, child, replay in zip(sizes, children, replays):
            for _ in temperatures:
                replay.random((size, reads))
            assert child.random(4).tobytes() == replay.random(4).tobytes()

    def test_svmc_chunking_consumes_no_extra_draws(self):
        # SVMC draw consumption depends on each instance's own accept
        # uniforms (one proposal per gate-passing position), never on the
        # chunking: across full, partial and residual-floor activity sweeps
        # of instances on both sides of the chunk boundary, follower draws
        # equal a replay of exactly the per-sweep blocks.
        schedule = [(0.2, 0.8, 2.0, 1.0), (0.6, 0.4, 1.0, 0.6), (1.0, 0.05, 0.3, 0.02)]
        sizes, reads = [70, 6, 0], 3
        padded_fields, symmetric, _, size_array = _problem_batch(sizes, 99)
        theta, cosines, sines, local, children = _svmc_state(
            sizes, reads, 21, padded_fields, symmetric
        )
        replays = copy.deepcopy(children)
        svmc_sweeps(
            theta, cosines, sines, local, symmetric, size_array, children, schedule,
            proposal_width=0.5, uniform_fraction=0.15,
        )
        for size, child, replay in zip(sizes, children, replays):
            for *_, activity in schedule:
                passing = int(np.count_nonzero(
                    replay.random((size, reads)) < activity * (1.0 + 2.0**-20)
                ))
                replay.standard_normal(passing)
                replay.random(passing)
            assert child.random(4).tobytes() == replay.random(4).tobytes()

    def test_num_reads_never_shifts_downstream_draws(self):
        # The sampler hands the kernel a *spawned* child, so read count —
        # which scales the kernel's internal consumption — cannot shift any
        # draw made later from the sampler's own stream.  Mirrors
        # test_fading's constant-consumption-across-Doppler test.
        ising = _toy_ising(17)
        schedule = forward_anneal_schedule(1.0)
        second_calls = []
        for first_reads in (2, 40):
            sampler = QuantumAnnealerSimulator(seed=123)
            sampler.sample_ising(ising, schedule, num_reads=first_reads)
            follow_up = sampler.sample_ising(ising, schedule, num_reads=6)
            second_calls.append(follow_up.assignments())
        assert np.array_equal(second_calls[0], second_calls[1])

    def test_reverse_anneal_paths_agree_too(self, monkeypatch):
        # Reverse annealing threads initial states through the backend's
        # kernel; the spec must agree there as well.
        ising = _toy_ising(6, size=6)
        functions = AnnealingFunctions()
        schedule = reverse_anneal_schedule(0.6, 1.0)
        initial = np.array([1, -1, 1, 1, -1, -1], dtype=np.int8)
        backend = SpinVectorMonteCarloBackend()

        def run():
            return backend.run(
                ising.fields, ising.couplings, schedule, 4, functions, 0.05,
                initial_spins=initial, rng=np.random.default_rng(8),
            )

        production = run()
        _use_kernel(monkeypatch, "reference")
        assert np.array_equal(production, run())
