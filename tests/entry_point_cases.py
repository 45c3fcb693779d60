"""Pinned calls of every single-instance entry point of the hybrid solve path.

Each single-instance entry point (``sample_qubo``/``sample_ising``,
``reverse_anneal``, ``HybridQuboSolver.solve``,
``HybridMIMODetector.detect_with_details``, ``sweep_switch_point``,
``HybridPipelineSimulator.run`` and ``AnnealerServingBackend.solve``) is
called on small seeded inputs and its full result is rendered as plain JSON.
:func:`single_entry_point_rows` is the ``single_entry_points`` golden study
shared by ``scripts/regen_golden.py`` and ``tests/test_golden_regression.py``,
so any change to the numbers or the draw order of these paths shows up as a
per-field diff.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.annealing.schedule import forward_anneal_schedule, reverse_anneal_schedule
from repro.annealing.svmc import SpinVectorMonteCarloBackend
from repro.classical.simulated_annealing import SimulatedAnnealingSolver
from repro.classical.zero_forcing import ZeroForcingDetector
from repro.hybrid.parameters import sweep_switch_point
from repro.hybrid.pipeline import HybridPipelineSimulator
from repro.hybrid.solver import DetectorInitializer, HybridMIMODetector, HybridQuboSolver
from repro.qubo.generators import random_qubo
from repro.qubo.ising import bits_to_spins, qubo_to_ising
from repro.serving.backends import AnnealerServingBackend
from repro.serving.workload import generate_serving_jobs, uniform_cell_profiles
from repro.transform.mimo_to_qubo import mimo_to_qubo
from repro.utils.rng import spawn_rngs
from repro.wireless.mimo import MIMOConfig, simulate_transmission
from repro.wireless.traffic import TrafficGenerator
from tests.noisy_sampler import NoisySampler
from tests.qubo_fixtures import planted_solution_qubo


def _plain(value):
    """``value`` as JSON-compatible data (complex numbers as ``[re, im]``)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {item.name: _plain(getattr(value, item.name)) for item in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, np.generic):
        return _plain(value.item())
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _sampleset(sampleset) -> dict:
    return {
        "assignments": _plain(sampleset.assignments()),
        "energies": _plain(sampleset.energies()),
        "occurrences": _plain(sampleset.occurrences()),
        "metadata": _plain(sampleset.metadata),
    }


def _qubo_solution(solution) -> dict:
    # The measured wall time is the one non-deterministic field.
    metadata = {
        key: value
        for key, value in solution.metadata.items()
        if key != "measured_wall_time_us"
    }
    return _plain(
        {
            "assignment": solution.assignment,
            "energy": solution.energy,
            "solver_name": solution.solver_name,
            "compute_time_us": solution.compute_time_us,
            "iterations": solution.iterations,
            "metadata": metadata,
        }
    )


def _hybrid(result) -> dict:
    return {
        "best_assignment": _plain(result.best_assignment),
        "best_energy": result.best_energy,
        "initial_solution": _qubo_solution(result.initial_solution),
        "sampleset": _sampleset(result.sampleset),
        "switch_s": result.switch_s,
        "classical_time_us": result.classical_time_us,
        "quantum_time_us": result.quantum_time_us,
        "metadata": _plain(result.metadata),
    }


def _qubo(seed: int, size: int):
    """A dense random QUBO and a random start state for reverse anneals."""
    rng = np.random.default_rng(seed)
    return random_qubo(size, rng=rng), rng.integers(0, 2, size=size)


def _svmc_sampler(sampler_class=QuantumAnnealerSimulator, **kwargs):
    backend = SpinVectorMonteCarloBackend(sweeps_per_microsecond=4.0)
    return sampler_class(backend=backend, **kwargs)


def _sampler_cases() -> list:
    qubo, start = _qubo(1, 8)
    forward = forward_anneal_schedule(1.0, pause_s=0.5, pause_duration_us=0.5)
    reverse = reverse_anneal_schedule(0.3, 0.5)
    rows = []

    sampler = _svmc_sampler(seed=5)
    rows.append(("sample_qubo/forward", sampler.sample_qubo(qubo, forward, 12, rng=11)))
    # Without an ``rng`` the sampler's own stream is drawn, and it advances.
    for call in range(2):
        sampleset = sampler.sample_qubo(qubo, reverse, 12, initial_state=start)
        rows.append((f"sample_qubo/reverse/sampler_stream/{call}", sampleset))

    noisy = _svmc_sampler(NoisySampler, field_noise_sigma=0.02, coupling_noise_sigma=0.01, seed=6)
    rows.append(("sample_qubo/control_noise", noisy.sample_qubo(qubo, forward, 12, rng=12)))
    ising = qubo_to_ising(qubo)
    rows.append(
        (
            "sample_ising/reverse",
            noisy.sample_ising(ising, reverse, 12, bits_to_spins(start), rng=13),
        )
    )
    # The case keeps the name of the wrapper it once called.
    ra = reverse_anneal_schedule(0.3)
    rows.append(("reverse_anneal", sampler.sample_qubo(qubo, ra, 12, start, rng=14)))
    return [{"case": case, "result": _sampleset(sampleset)} for case, sampleset in rows]


def _hybrid_cases() -> list:
    qubo, _ = _qubo(4, 12)
    rows = []
    for name, classical in (
        ("greedy", None),
        ("simulated_annealing", SimulatedAnnealingSolver(num_sweeps=20)),
    ):
        solver = HybridQuboSolver(
            classical_solver=classical, sampler=_svmc_sampler(seed=8), switch_s=0.3, num_reads=10
        )
        rows.append({"case": f"hybrid_solve/{name}", "result": _hybrid(solver.solve(qubo, rng=21))})

    transmission = simulate_transmission(MIMOConfig(3, "16-QAM"), rng=np.random.default_rng(22))
    detector = HybridMIMODetector(sampler=_svmc_sampler(seed=9), switch_s=0.3, num_reads=10)
    detections = [("greedy", *detector.detect_with_details(transmission.instance, rng=23))]
    # A signal-domain initialiser seeds HybridQuboSolver through DetectorInitializer.
    encoding = mimo_to_qubo(transmission.instance)
    hybrid = HybridQuboSolver(
        classical_solver=DetectorInitializer(ZeroForcingDetector(), encoding),
        sampler=_svmc_sampler(seed=9),
        switch_s=0.3,
        num_reads=10,
    ).solve(encoding.qubo, rng=23)
    detection = encoding.detection_result(hybrid.best_assignment, algorithm="hybrid-gs-ra")
    detections.append(("zero_forcing", detection, hybrid))
    for name, detection, hybrid in detections:
        rows.append(
            {
                "case": f"detect_with_details/{name}",
                "result": {"detection": _plain(detection), "hybrid": _hybrid(hybrid)},
            }
        )
    return rows


def _sweep_cases() -> list:
    rng = np.random.default_rng(5)
    planted = rng.integers(0, 2, size=6)
    qubo = planted_solution_qubo(planted, coupling_strength=0.6, field_strength=1.0, rng=rng)
    ground = float(qubo.energy(planted))
    rows = []
    for method in ("FA", "RA", "FR"):
        records = sweep_switch_point(
            qubo,
            ground,
            method=method,
            switch_values=(0.35, 0.55),
            initial_state=1 - planted if method == "RA" else None,
            sampler=_svmc_sampler(seed=10),
            num_reads=10,
            rng=31,
        )
        rows.append({"case": f"sweep_switch_point/{method}", "result": _plain(records)})
    return rows


def _pipeline_cases() -> list:
    traffic = TrafficGenerator(MIMOConfig(num_users=3, modulation="16-QAM"), symbol_period_us=50.0)
    channel_uses = traffic.generate(4, rng=0)
    rows = []
    for evaluate in (True, False):
        for pipelined in (True, False):
            simulator = HybridPipelineSimulator(
                sampler=_svmc_sampler(seed=11),
                switch_s=0.3,
                num_reads=8,
                evaluate_solutions=evaluate,
            )
            report = simulator.run(channel_uses, pipelined=pipelined, rng=41)
            rows.append(
                {
                    "case": f"pipeline_run/evaluate={evaluate}/pipelined={pipelined}",
                    "result": _plain(report),
                }
            )
    return rows


def _serving_cases() -> list:
    profiles = uniform_cell_profiles(
        num_cells=1,
        users_per_cell=3,
        configs=[MIMOConfig(2, "QPSK"), MIMOConfig(3, "16-QAM")],
        symbol_period_us=100.0,
    )
    jobs = generate_serving_jobs(profiles, jobs_per_user=1, rng=51)
    sampler = _svmc_sampler(seed=12)
    backend = AnnealerServingBackend(sampler=sampler, num_reads=8)
    # The backend turns back at s_p = 0.41; the pinned case turns back at 0.3.
    backend.solver = HybridQuboSolver(sampler=sampler, switch_s=0.3, num_reads=8)
    solutions = backend.solve(jobs, spawn_rngs(52, len(jobs)))
    return [{"case": "annealer_backend_solve", "result": _plain(solutions)}]


def single_entry_point_rows() -> list:
    """One ``{"case", "result"}`` row per pinned single-instance call."""
    return [
        *_sampler_cases(),
        *_hybrid_cases(),
        *_sweep_cases(),
        *_pipeline_cases(),
        *_serving_cases(),
    ]
