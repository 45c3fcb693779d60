"""Tests for the QuantumAnnealerSimulator front-end."""

import numpy as np
import pytest

from repro.annealing import sampler as sampler_module
from repro.annealing import (
    QuantumAnnealerSimulator,
    SpinVectorMonteCarloBackend,
    forward_anneal_schedule,
    forward_reverse_anneal_schedule,
    reverse_anneal_schedule,
)
from repro.annealing.device import qpu_access_time_us
from repro.exceptions import ConfigurationError
from repro.qubo.ising import IsingModel, bits_to_spins, qubo_to_ising
from repro.qubo.model import QUBOModel
from repro.utils.rng import spawn_rngs
from tests.noisy_sampler import NoisySampler
from tests.qubo_fixtures import planted_solution_qubo

_REVERSE = reverse_anneal_schedule(0.5)


@pytest.fixture
def planted_qubo_and_state(rng):
    planted = rng.integers(0, 2, size=6)
    qubo = planted_solution_qubo(planted, coupling_strength=0.6, field_strength=1.0, rng=rng)
    return qubo, planted


class TestSampleQubo:
    def test_forward_anneal_sampleset(self, planted_qubo_and_state, fast_sampler):
        qubo, planted = planted_qubo_and_state
        sampleset = fast_sampler.sample_qubo(qubo, forward_anneal_schedule(1.0), num_reads=40)
        assert sampleset.num_reads == 40
        assert sampleset.assignments().shape[1] == 6
        assert sampleset.metadata["schedule_name"] == "FA"
        assert sampleset.metadata["backend"] == "spin-vector-monte-carlo"

    def test_energies_match_qubo(self, planted_qubo_and_state, fast_sampler):
        qubo, _ = planted_qubo_and_state
        sampleset = fast_sampler.sample_qubo(qubo, forward_anneal_schedule(1.0), num_reads=30)
        assert np.allclose(sampleset.energies(), qubo.energies(sampleset.assignments()))

    def test_forward_anneal_finds_planted_state(self, planted_qubo_and_state, fast_sampler):
        qubo, planted = planted_qubo_and_state
        schedule = forward_anneal_schedule(1.0, pause_s=0.4, pause_duration_us=1.0)
        sampleset = fast_sampler.sample_qubo(qubo, schedule, num_reads=100)
        ground = qubo.energy(planted)
        assert sampleset.lowest_energy() == pytest.approx(ground)
        assert sampleset.success_probability(ground) > 0.1

    def test_reverse_anneal_requires_initial_state(self, planted_qubo_and_state, fast_sampler):
        qubo, _ = planted_qubo_and_state
        with pytest.raises(ConfigurationError):
            fast_sampler.sample_qubo(qubo, reverse_anneal_schedule(0.5), num_reads=10)

    def test_reverse_anneal_from_ground_state_stays(self, planted_qubo_and_state, fast_sampler):
        qubo, planted = planted_qubo_and_state
        sampleset = fast_sampler.sample_qubo(
            qubo, reverse_anneal_schedule(0.8), num_reads=50, initial_state=planted
        )
        assert sampleset.success_probability(qubo.energy(planted)) > 0.5

    def test_forward_reverse_anneal_runs(self, planted_qubo_and_state, fast_sampler):
        qubo, planted = planted_qubo_and_state
        schedule = forward_reverse_anneal_schedule(turning_s=0.7, switch_s=0.4)
        sampleset = fast_sampler.sample_qubo(qubo, schedule, num_reads=30)
        assert sampleset.num_reads == 30
        assert sampleset.metadata["schedule_name"] == "FR"

    def test_invalid_num_reads(self, planted_qubo_and_state, fast_sampler):
        qubo, _ = planted_qubo_and_state
        with pytest.raises(ConfigurationError):
            fast_sampler.sample_qubo(qubo, forward_anneal_schedule(1.0), num_reads=0)

    def test_reproducible_with_rng(self, planted_qubo_and_state):
        qubo, _ = planted_qubo_and_state
        sampler = QuantumAnnealerSimulator(
            backend=SpinVectorMonteCarloBackend(sweeps_per_microsecond=8), seed=1
        )
        first = sampler.sample_qubo(qubo, forward_anneal_schedule(1.0), num_reads=20, rng=5)
        second = sampler.sample_qubo(qubo, forward_anneal_schedule(1.0), num_reads=20, rng=5)
        assert np.array_equal(
            first.energies(expanded=True), second.energies(expanded=True)
        )

    def test_qpu_access_time_in_metadata(self, planted_qubo_and_state, fast_sampler):
        qubo, _ = planted_qubo_and_state
        schedule = forward_anneal_schedule(1.0)
        sampleset = fast_sampler.sample_qubo(qubo, schedule, num_reads=10)
        expected = qpu_access_time_us(schedule, 10)
        assert sampleset.metadata["qpu_access_time_us"] == pytest.approx(expected)


#: One call breaking each sampling rule, on a batch of a 6-variable QUBO and
#: an empty one under a reverse schedule: ``(num_reads, initial states)``,
#: the states as 0/1 bits (``None`` entries stay ``None``).
_RULE_BREAKERS = {
    "zero-reads": (0, ["planted", []]),
    "one-state-for-two-instances": (5, ["planted"]),
    "no-states": (5, None),
    "missing-state": (5, [None, []]),
    "missing-state-of-an-empty-instance": (5, ["planted", None]),
}


class TestSamplingCallChecks:
    """Each rule is checked once, before anything draws, on every entry."""

    @staticmethod
    def _states(template, planted, to_spins=False):
        if template is None:
            return None
        states = [planted if entry == "planted" else entry for entry in template]
        if to_spins:
            states = [None if s is None else bits_to_spins(s) for s in states]
        return states

    @pytest.mark.parametrize("form", ["qubo", "ising"])
    @pytest.mark.parametrize("case", sorted(_RULE_BREAKERS))
    def test_sampler_rejects_before_any_draw(self, planted_qubo_and_state, form, case):
        qubo, planted = planted_qubo_and_state
        num_reads, template = _RULE_BREAKERS[case]
        sampler = NoisySampler(field_noise_sigma=0.1, coupling_noise_sigma=0.1, seed=1)
        children = spawn_rngs(4, 2)
        before = [child.bit_generator.state for child in children]
        qubos = [qubo, QUBOModel.empty(0)]
        with pytest.raises(ConfigurationError):
            if form == "qubo":
                states = self._states(template, planted)
                sampler.sample_qubo_batch(qubos, _REVERSE, num_reads, states, children)
            else:
                isings = [qubo_to_ising(model) for model in qubos]
                states = self._states(template, planted, to_spins=True)
                sampler.sample_ising_batch(isings, _REVERSE, num_reads, states, children)
        # The noisy sampler draws its control noise from each child first.
        assert [child.bit_generator.state for child in children] == before

    @pytest.mark.parametrize("case", sorted(_RULE_BREAKERS))
    def test_backend_rejects_a_direct_call(self, planted_qubo_and_state, case):
        qubo, planted = planted_qubo_and_state
        num_reads, template = _RULE_BREAKERS[case]
        ising = qubo_to_ising(qubo)
        with pytest.raises(ConfigurationError):
            SpinVectorMonteCarloBackend().run_batch(
                [ising.fields, np.zeros(0)],
                [ising.couplings, np.zeros((0, 0))],
                _REVERSE,
                num_reads,
                0.02,
                initial_spins=self._states(template, planted, to_spins=True),
                rng=3,
            )


class TestSampleIsing:
    def test_ising_energies(self, planted_qubo_and_state, fast_sampler):
        qubo, _ = planted_qubo_and_state
        ising = qubo_to_ising(qubo)
        sampleset = fast_sampler.sample_ising(ising, forward_anneal_schedule(1.0), num_reads=20)
        for assignment, energy in zip(sampleset.assignments(), sampleset.energies()):
            spins = 2 * assignment.astype(int) - 1
            assert energy == pytest.approx(ising.energy(spins))


class TestControlNoise:
    def test_noise_changes_samples_but_energies_still_evaluated_on_clean_model(
        self, planted_qubo_and_state
    ):
        qubo, _ = planted_qubo_and_state
        sampler = NoisySampler(
            field_noise_sigma=0.2,
            coupling_noise_sigma=0.2,
            backend=SpinVectorMonteCarloBackend(sweeps_per_microsecond=8),
            seed=3,
        )
        sampleset = sampler.sample_qubo(qubo, forward_anneal_schedule(1.0), num_reads=20)
        assert np.allclose(sampleset.energies(), qubo.energies(sampleset.assignments()))


class TestSpinReadBudget:
    """Batches beyond the budget reach the backend in chunks that change no sample."""

    @pytest.mark.parametrize(
        "sizes, budget, chunked_calls",
        [
            # Widest instance 6 spins x 7 reads: two instances per call.
            ((3, 6, 2, 5, 4), 2 * 6 * 7, [2, 2, 1]),
        ],
        ids=["logical"],
    )
    def test_chunked_batch_equals_one_submission(
        self, monkeypatch, run_batch_calls, sizes, budget, chunked_calls
    ):
        rng = np.random.default_rng(5)
        isings = [
            IsingModel(rng.normal(size=size), np.triu(rng.normal(size=(size, size)), k=1))
            for size in sizes
        ]

        def sample():
            run_batch_calls.clear()
            sampler = QuantumAnnealerSimulator(
                backend=SpinVectorMonteCarloBackend(sweeps_per_microsecond=8),
                seed=1,
            )
            return sampler.sample_ising_batch(isings, forward_anneal_schedule(1.0), 7, rng=21)

        whole = sample()
        assert run_batch_calls == [5]
        monkeypatch.setattr(sampler_module, "SPIN_READ_BUDGET", budget)
        chunked = sample()
        assert run_batch_calls == chunked_calls
        for expected, actual in zip(whole, chunked, strict=True):
            assert actual.assignments().tobytes() == expected.assignments().tobytes()
            assert actual.energies().tobytes() == expected.energies().tobytes()
            assert actual.occurrences().tobytes() == expected.occurrences().tobytes()
            assert actual.metadata == expected.metadata
