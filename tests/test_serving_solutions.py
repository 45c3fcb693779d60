"""Evaluated serving solutions against a per-dispatch oracle.

The simulator's event loop only times batches; once it ends, every served
job is solved in batches grouped by (backend, ``shape_key``) and sliced to
a bounded number of QUBO variables per ``backend.solve`` call.  The oracle
here is the per-dispatch solve that grouping replaces: it rebuilds each
dispatched batch from the outcomes (same backend, same start time), solves
it with ``backend.solve`` and the job's own child from
``ensure_rng_batch(rng, n)`` in sorted-id order, and the simulator's
energies and optimum flags must equal it bit for bit — for several batch
ceilings, a pool that demotes (so both backends' grouped paths run), and
groups that span more than one slice.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.annealing import QuantumAnnealerSimulator, SpinVectorMonteCarloBackend
from repro.serving import (
    AnnealerServingBackend,
    BackendPool,
    ClassicalServingBackend,
    RANServingSimulator,
    generate_serving_jobs,
    uniform_cell_profiles,
)
from repro.serving import simulator as simulator_module
from repro.utils.rng import ensure_rng_batch
from repro.wireless import MIMOConfig

_RNG = 31


def _jobs():
    profiles = uniform_cell_profiles(
        num_cells=3,
        users_per_cell=3,
        configs=[MIMOConfig(2, "QPSK"), MIMOConfig(2, "16-QAM"), MIMOConfig(4, "16-QAM")],
        symbol_period_us=120.0,
        turnaround_budget_us=400.0,
        cell_load_factors=[1.0, 1.0, 3.0],
    )
    return generate_serving_jobs(profiles, 10, rng=5)


def _simulator(max_batch_size):
    sampler = QuantumAnnealerSimulator(
        backend=SpinVectorMonteCarloBackend(sweeps_per_microsecond=8), seed=3
    )
    annealer = AnnealerServingBackend(sampler=sampler, num_reads=50, lanes=4)
    return RANServingSimulator(
        pool=BackendPool([annealer] * 2 + [ClassicalServingBackend()]),
        policy="edf",
        max_batch_size=max_batch_size,
        admission_control=True,
        evaluate_solutions=True,
    )


def _dispatched_batches(outcomes):
    """The served batches, rebuilt as (backend name, start time) -> outcomes."""
    batches = defaultdict(list)
    for outcome in outcomes:
        batches[(outcome.backend, outcome.start_us)].append(outcome)
    for members in batches.values():
        assert {outcome.batch_size for outcome in members} == {len(members)}
    return batches


def _oracle(simulator, jobs, outcomes):
    """Per-dispatch solutions: job id -> (energy bits, optimum flag)."""
    by_id = {job.job_id: job for job in jobs}
    ids = sorted(by_id)
    child_of = dict(zip(ids, ensure_rng_batch(_RNG, len(ids))))
    backend_of = {worker.name: worker.backend for worker in simulator.pool.workers}
    expected = {}
    for (name, _), members in _dispatched_batches(outcomes).items():
        batch = [by_id[outcome.job_id] for outcome in members]
        children = [child_of[job.job_id] for job in batch]
        for job, solution in zip(batch, backend_of[name].solve(batch, children)):
            expected[job.job_id] = (solution.best_energy.hex(), solution.detected_optimum)
    return expected


@pytest.mark.parametrize("variables_per_call", [None, 24])
@pytest.mark.parametrize("max_batch_size", [1, 4, None])
def test_grouped_solutions_match_per_dispatch_oracle(
    monkeypatch, max_batch_size, variables_per_call
):
    if variables_per_call is not None:
        monkeypatch.setattr(simulator_module, "_SOLVE_VARIABLES_PER_CALL", variables_per_call)
    jobs = _jobs()
    simulator = _simulator(max_batch_size)
    outcomes = simulator.run(jobs, rng=_RNG).outcomes

    assert any(outcome.demoted for outcome in outcomes)
    assert {outcome.backend_kind for outcome in outcomes} == {"annealer", "classical"}
    # Some (backend, shape) group needs more than one solve call.
    ceiling = simulator_module._SOLVE_VARIABLES_PER_CALL
    group_variables = defaultdict(int)
    backend_of = {worker.name: id(worker.backend) for worker in simulator.pool.workers}
    by_id = {job.job_id: job for job in jobs}
    for outcome in outcomes:
        job = by_id[outcome.job_id]
        group_variables[(backend_of[outcome.backend], job.shape_key)] += job.num_variables
    assert max(group_variables.values()) > ceiling

    actual = {
        outcome.job_id: (outcome.best_energy.hex(), outcome.detected_optimum)
        for outcome in outcomes
    }
    assert actual == _oracle(simulator, jobs, outcomes)


class _SolveSpy:
    """Wraps a backend's ``solve`` to record each call's batch."""

    def __init__(self, backend, calls):
        self._solve = backend.solve
        self._calls = calls
        backend.solve = self

    def __call__(self, jobs, children):
        self._calls.append(list(jobs))
        return self._solve(jobs, children)


def test_solve_calls_are_shape_uniform_bounded_and_cover_every_job():
    jobs = _jobs()
    simulator = _simulator(4)
    calls = []
    for backend in {id(w.backend): w.backend for w in simulator.pool.workers}.values():
        _SolveSpy(backend, calls)
    outcomes = simulator.run(jobs, rng=_RNG).outcomes

    dispatches = len(_dispatched_batches(outcomes))
    assert len(calls) < dispatches
    solved = sorted(job.job_id for call in calls for job in call)
    assert solved == sorted(job.job_id for job in jobs)
    ceiling = simulator_module._SOLVE_VARIABLES_PER_CALL
    for call in calls:
        assert len({job.shape_key for job in call}) == 1
        assert len(call) == 1 or sum(job.num_variables for job in call) <= ceiling


def test_timing_only_run_never_solves():
    jobs = _jobs()
    simulator = _simulator(4)
    simulator.evaluate_solutions = False
    calls = []
    for backend in {id(w.backend): w.backend for w in simulator.pool.workers}.values():
        _SolveSpy(backend, calls)
    outcomes = simulator.run(jobs, rng=_RNG).outcomes
    assert calls == []
    assert all(o.best_energy is None and o.detected_optimum is None for o in outcomes)
