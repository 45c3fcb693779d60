"""Tests for the batched multi-instance engine.

The engine's contract: instance ``b`` of a batch draws exclusively from
per-instance child generator ``b``, so (1) a batch of one is bitwise-identical
to the single-instance path under the same child, (2) a batched run equals
the equivalent sequential loop, and (3) results never depend on how a
workload is grouped into batches.  Padding must make mixed-size and
zero-variable instances safe.
"""

import numpy as np
import pytest

from repro.annealing.backend import pad_problem_batch
from repro.annealing.device import AnnealingFunctions, DeviceModel
from repro.annealing.sa_backend import ScheduleDrivenAnnealingBackend
from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.annealing.schedule import forward_anneal_schedule, reverse_anneal_schedule
from repro.annealing.svmc import SpinVectorMonteCarloBackend
from repro.classical.simulated_annealing import SimulatedAnnealingSolver
from repro.classical.tabu import TabuSearchSolver
from repro.exceptions import ConfigurationError
from repro.hybrid.parameters import sweep_switch_point, sweep_switch_point_batch
from repro.hybrid.pipeline import HybridPipelineSimulator
from repro.hybrid.solver import HybridQuboSolver
from repro.qubo.generators import planted_solution_qubo
from repro.qubo.ising import bits_to_spins, qubo_to_ising
from repro.qubo.model import QUBOModel
from repro.utils.batching import iter_batches
from repro.utils.rng import ensure_rng_batch, spawn_rngs

BACKENDS = [ScheduleDrivenAnnealingBackend, SpinVectorMonteCarloBackend]
FUNCTIONS = AnnealingFunctions()


def _normalised_problem(rng, size):
    """A normalised Ising problem plus its planted QUBO ground state."""
    if size == 0:
        return np.zeros(0), np.zeros((0, 0)), np.zeros(0, dtype=np.int8)
    planted = rng.integers(0, 2, size=size)
    qubo = planted_solution_qubo(planted, coupling_strength=0.6, field_strength=1.0, rng=rng)
    ising = qubo_to_ising(qubo)
    scale = max(ising.max_abs_coefficient(), 1e-12)
    return ising.fields / scale, ising.couplings / scale, planted


def _problem_batch(rng, sizes):
    problems = [_normalised_problem(rng, size) for size in sizes]
    fields = [problem[0] for problem in problems]
    couplings = [problem[1] for problem in problems]
    initials = [
        bits_to_spins(problem[2]) if problem[2].size else np.zeros(0, dtype=np.int8)
        for problem in problems
    ]
    return fields, couplings, initials


class TestEnsureRngBatch:
    def test_spawns_children_from_root(self):
        children = ensure_rng_batch(3, 4)
        assert len(children) == 4
        # Children are the same family spawn_rngs would produce.
        reference = spawn_rngs(3, 4)
        for child, ref in zip(children, reference):
            assert np.array_equal(child.random(5), ref.random(5))

    def test_explicit_sequence_passthrough(self):
        explicit = spawn_rngs(0, 2)
        assert ensure_rng_batch(explicit, 2) == list(explicit)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ensure_rng_batch(spawn_rngs(0, 2), 3)

    def test_non_generator_entries_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng_batch([1, 2], 2)


class TestPadProblemBatch:
    def test_shapes_and_mask(self, rng):
        fields, couplings, _ = _problem_batch(rng, (4, 2, 0))
        padded_fields, symmetric, mask, sizes = pad_problem_batch(fields, couplings)
        assert padded_fields.shape == (3, 4)
        assert symmetric.shape == (3, 4, 4)
        assert mask.tolist() == [[True] * 4, [True, True, False, False], [False] * 4]
        assert sizes.tolist() == [4, 2, 0]
        # Padding lanes are exactly zero everywhere.
        assert np.all(padded_fields[1, 2:] == 0.0)
        assert np.all(symmetric[1, 2:, :] == 0.0)
        assert np.all(symmetric[1, :, 2:] == 0.0)

    def test_mismatched_shapes_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            pad_problem_batch([np.zeros(3)], [np.zeros((2, 2))])
        with pytest.raises(ConfigurationError):
            pad_problem_batch([np.zeros(3), np.zeros(2)], [np.zeros((3, 3))])


@pytest.mark.parametrize("backend_class", BACKENDS)
class TestBackendBatchSemantics:
    def test_batch_of_one_matches_single_path(self, backend_class, rng):
        fields, couplings, _ = _problem_batch(rng, (8,))
        backend = backend_class(sweeps_per_microsecond=12)
        kwargs = dict(
            schedule=forward_anneal_schedule(1.0, pause_s=0.4, pause_duration_us=0.5),
            num_reads=9,
            annealing_functions=FUNCTIONS,
            relative_temperature=0.02,
        )
        (child,) = spawn_rngs(11, 1)
        single = backend.run(fields[0], couplings[0], rng=child, **kwargs)
        batched = backend.run_batch(fields, couplings, rng=11, **kwargs)
        assert len(batched) == 1
        assert np.array_equal(single, batched[0])

    def test_mixed_sizes_match_sequential_loop(self, backend_class, rng):
        sizes = (8, 3, 8, 6)
        fields, couplings, initials = _problem_batch(rng, sizes)
        backend = backend_class(sweeps_per_microsecond=12)
        kwargs = dict(
            schedule=reverse_anneal_schedule(0.45, pause_duration_us=0.5),
            num_reads=6,
            annealing_functions=FUNCTIONS,
            relative_temperature=0.02,
        )
        sequential = [
            backend.run(f, c, initial_spins=i, rng=child, **kwargs)
            for f, c, i, child in zip(fields, couplings, initials, spawn_rngs(21, len(sizes)))
        ]
        batched = backend.run_batch(
            fields, couplings, initial_spins=initials, rng=21, **kwargs
        )
        for expected, actual, size in zip(sequential, batched, sizes):
            assert actual.shape == (6, size)
            assert np.array_equal(expected, actual)

    def test_empty_instances_do_not_crash(self, backend_class, rng):
        fields, couplings, _ = _problem_batch(rng, (5, 0, 3))
        backend = backend_class(sweeps_per_microsecond=8)
        batched = backend.run_batch(
            fields,
            couplings,
            schedule=forward_anneal_schedule(1.0),
            num_reads=4,
            annealing_functions=FUNCTIONS,
            relative_temperature=0.02,
            rng=5,
        )
        assert [spins.shape for spins in batched] == [(4, 5), (4, 0), (4, 3)]

    def test_all_empty_batch(self, backend_class):
        backend = backend_class()
        batched = backend.run_batch(
            [np.zeros(0), np.zeros(0)],
            [np.zeros((0, 0)), np.zeros((0, 0))],
            schedule=forward_anneal_schedule(1.0),
            num_reads=3,
            annealing_functions=FUNCTIONS,
            relative_temperature=0.02,
            rng=5,
        )
        assert [spins.shape for spins in batched] == [(3, 0), (3, 0)]
        assert backend.run_batch(
            [],
            [],
            schedule=forward_anneal_schedule(1.0),
            num_reads=3,
            annealing_functions=FUNCTIONS,
            relative_temperature=0.02,
        ) == []

    def test_batch_grouping_invariance(self, backend_class, rng):
        sizes = (6, 6, 6, 6)
        fields, couplings, _ = _problem_batch(rng, sizes)
        backend = backend_class(sweeps_per_microsecond=8)
        kwargs = dict(
            schedule=forward_anneal_schedule(1.0),
            num_reads=5,
            annealing_functions=FUNCTIONS,
            relative_temperature=0.02,
        )
        children = spawn_rngs(33, 4)
        whole = backend.run_batch(fields, couplings, rng=list(children), **kwargs)
        children = spawn_rngs(33, 4)
        chunked = []
        for start, chunk in iter_batches(list(zip(fields, couplings)), 2):
            chunked.extend(
                backend.run_batch(
                    [pair[0] for pair in chunk],
                    [pair[1] for pair in chunk],
                    rng=children[start : start + len(chunk)],
                    **kwargs,
                )
            )
        for expected, actual in zip(whole, chunked):
            assert np.array_equal(expected, actual)

    def test_missing_initial_state_rejected(self, backend_class, rng):
        fields, couplings, _ = _problem_batch(rng, (4, 4))
        backend = backend_class()
        with pytest.raises(ConfigurationError):
            backend.run_batch(
                fields,
                couplings,
                schedule=reverse_anneal_schedule(0.5),
                num_reads=3,
                annealing_functions=FUNCTIONS,
                relative_temperature=0.02,
                rng=1,
            )


def _qubo_batch(rng, sizes):
    qubos = []
    for size in sizes:
        if size == 0:
            qubos.append(QUBOModel.empty(0))
        else:
            planted = rng.integers(0, 2, size=size)
            qubos.append(
                planted_solution_qubo(
                    planted, coupling_strength=0.6, field_strength=1.0, rng=rng
                )
            )
    return qubos


class TestSamplerBatch:
    def test_sample_qubo_batch_matches_sequential(self, rng):
        qubos = _qubo_batch(rng, (6, 3, 6))
        schedule = forward_anneal_schedule(1.0, pause_s=0.5, pause_duration_us=0.5)
        sampler = QuantumAnnealerSimulator(
            backend=SpinVectorMonteCarloBackend(sweeps_per_microsecond=8), seed=2
        )
        sequential = [
            sampler.sample_qubo(qubo, schedule, num_reads=7, rng=child)
            for qubo, child in zip(qubos, spawn_rngs(13, 3))
        ]
        batched = sampler.sample_qubo_batch(qubos, schedule, num_reads=7, rng=13)
        for expected, actual in zip(sequential, batched):
            assert expected.num_reads == actual.num_reads == 7
            assert np.array_equal(expected.energies(), actual.energies())
            for left, right in zip(expected.records, actual.records):
                assert np.array_equal(left.assignment, right.assignment)
                assert left.num_occurrences == right.num_occurrences

    def test_reverse_anneal_batch_requires_initial_states(self, rng):
        qubos = _qubo_batch(rng, (4, 4))
        sampler = QuantumAnnealerSimulator(seed=1)
        with pytest.raises(ConfigurationError):
            sampler.sample_qubo_batch(
                qubos, reverse_anneal_schedule(0.5), num_reads=5, rng=1
            )

    def test_reverse_anneal_batch_runs(self, rng):
        qubos = _qubo_batch(rng, (4, 6))
        states = [rng.integers(0, 2, qubo.num_variables) for qubo in qubos]
        sampler = QuantumAnnealerSimulator(
            backend=ScheduleDrivenAnnealingBackend(sweeps_per_microsecond=8), seed=1
        )
        samplesets = sampler.reverse_anneal_batch(qubos, states, switch_s=0.45, num_reads=6)
        assert [s.num_variables for s in samplesets] == [4, 6]

    def test_control_noise_consumes_per_instance_children(self, rng):
        # With ICE noise enabled the noise draws also come from the child
        # streams, so batched and sequential paths still agree bitwise.
        device = DeviceModel(field_noise_sigma=0.02, coupling_noise_sigma=0.01)
        sampler = QuantumAnnealerSimulator(
            device=device,
            backend=ScheduleDrivenAnnealingBackend(sweeps_per_microsecond=8),
            seed=4,
        )
        qubos = _qubo_batch(rng, (5, 5))
        schedule = forward_anneal_schedule(1.0)
        sequential = [
            sampler.sample_qubo(qubo, schedule, num_reads=5, rng=child)
            for qubo, child in zip(qubos, spawn_rngs(8, 2))
        ]
        batched = sampler.sample_qubo_batch(qubos, schedule, num_reads=5, rng=8)
        for expected, actual in zip(sequential, batched):
            assert np.array_equal(expected.energies(), actual.energies())

    def test_embedding_falls_back_to_sequential(self, rng):
        qubos = _qubo_batch(rng, (3, 4))
        sampler = QuantumAnnealerSimulator(
            backend=ScheduleDrivenAnnealingBackend(sweeps_per_microsecond=8),
            use_embedding=True,
            seed=6,
        )
        samplesets = sampler.sample_qubo_batch(
            qubos, forward_anneal_schedule(1.0), num_reads=4, rng=6
        )
        assert [s.num_variables for s in samplesets] == [3, 4]


class TestClassicalSolverBatch:
    def test_default_solve_batch_matches_loop(self, rng):
        qubos = _qubo_batch(rng, (6, 4))
        solver = TabuSearchSolver(max_iterations=30)
        sequential = [
            solver.solve(qubo, child) for qubo, child in zip(qubos, spawn_rngs(3, 2))
        ]
        batched = solver.solve_batch(qubos, rng=3)
        for expected, actual in zip(sequential, batched):
            assert np.array_equal(expected.assignment, actual.assignment)
            assert expected.energy == actual.energy

    def test_simulated_annealing_batch_matches_loop(self, rng):
        qubos = _qubo_batch(rng, (8, 3, 0, 5))
        solver = SimulatedAnnealingSolver(num_sweeps=30)
        sequential = [
            solver.solve(qubo, child) for qubo, child in zip(qubos, spawn_rngs(17, 4))
        ]
        batched = solver.solve_batch(qubos, rng=17)
        for expected, actual in zip(sequential, batched):
            assert np.array_equal(expected.assignment, actual.assignment)
            assert expected.energy == actual.energy

    def test_simulated_annealing_batch_grouping_invariance(self, rng):
        qubos = _qubo_batch(rng, (5, 5, 5))
        solver = SimulatedAnnealingSolver(num_sweeps=20)
        children = spawn_rngs(9, 3)
        whole = solver.solve_batch(qubos, rng=list(children))
        children = spawn_rngs(9, 3)
        chunked = solver.solve_batch(qubos[:2], rng=children[:2]) + solver.solve_batch(
            qubos[2:], rng=children[2:]
        )
        for expected, actual in zip(whole, chunked):
            assert np.array_equal(expected.assignment, actual.assignment)


class TestHybridBatch:
    def test_hybrid_solve_batch_matches_sequential(self, rng):
        qubos = _qubo_batch(rng, (6, 4))
        sampler = QuantumAnnealerSimulator(
            backend=ScheduleDrivenAnnealingBackend(sweeps_per_microsecond=8), seed=3
        )
        solver = HybridQuboSolver(sampler=sampler, switch_s=0.45, num_reads=8)
        sequential = [
            solver.solve(qubo, child) for qubo, child in zip(qubos, spawn_rngs(5, 2))
        ]
        batched = solver.solve_batch(qubos, rng=5)
        for expected, actual in zip(sequential, batched):
            assert np.array_equal(expected.best_assignment, actual.best_assignment)
            assert expected.best_energy == actual.best_energy
            assert expected.classical_time_us == actual.classical_time_us

    def test_sweep_switch_point_batch_matches_sequential(self, rng):
        qubos = _qubo_batch(rng, (5, 5))
        grounds = [float(min(qubo.energies(_all_bits(qubo.num_variables)))) for qubo in qubos]
        grid = (0.35, 0.55)
        sampler = QuantumAnnealerSimulator(
            backend=ScheduleDrivenAnnealingBackend(sweeps_per_microsecond=8), seed=2
        )
        states = [rng.integers(0, 2, qubo.num_variables) for qubo in qubos]
        sequential = [
            sweep_switch_point(
                qubo,
                ground,
                method="RA",
                switch_values=grid,
                initial_state=state,
                sampler=sampler,
                num_reads=10,
                rng=child,
            )
            for qubo, ground, state, child in zip(qubos, grounds, states, spawn_rngs(7, 2))
        ]
        batched = sweep_switch_point_batch(
            qubos,
            grounds,
            method="RA",
            switch_values=grid,
            initial_states=states,
            sampler=sampler,
            num_reads=10,
            rng=7,
        )
        for expected_records, actual_records in zip(sequential, batched):
            for expected, actual in zip(expected_records, actual_records):
                assert expected.switch_s == actual.switch_s
                assert expected.success_probability == actual.success_probability
                assert expected.expectation_energy == actual.expectation_energy

    def test_figure6_batch_size_does_not_change_results(self):
        from repro.experiments.driver import run_driver
        from repro.experiments.fig6_distributions import Figure6Config, Figure6Driver

        def run(batch_size):
            config = Figure6Config(
                num_variables=8,
                instances_per_modulation=3,
                num_reads=40,
                modulations=("QPSK",),
                batch_size=batch_size,
            )
            return run_driver(Figure6Driver(), config)

        whole = run(None)
        split = run(2)
        singles = run(1)
        for reference, other in ((whole, split), (whole, singles)):
            for left, right in zip(reference, other):
                assert left.method == right.method
                assert left.mean_delta_e == right.mean_delta_e
                assert left.histogram == right.histogram

    def test_pipeline_batch_size_does_not_change_solutions(self):
        from repro.wireless.mimo import MIMOConfig
        from repro.wireless.traffic import TrafficGenerator

        config = MIMOConfig(num_users=2, modulation="QPSK")
        traffic = TrafficGenerator(config, symbol_period_us=50.0)
        channel_uses = traffic.generate(6, rng=0)

        def run(batch_size):
            sampler = QuantumAnnealerSimulator(
                backend=ScheduleDrivenAnnealingBackend(sweeps_per_microsecond=8), seed=0
            )
            simulator = HybridPipelineSimulator(
                sampler=sampler, num_reads=6, batch_size=batch_size
            )
            return simulator.run(channel_uses, pipelined=True, rng=1)

        whole = run(None)
        per_job = run(1)
        pairs = run(2)
        for report in (per_job, pairs):
            assert [job.best_energy for job in report.jobs] == [
                job.best_energy for job in whole.jobs
            ]
        assert whole.metadata["batch_size"] is None


def _all_bits(size):
    grid = np.indices((2,) * size).reshape(size, -1).T
    return grid
