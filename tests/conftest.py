"""Shared pytest fixtures.

Fixtures keep test problems tiny (a handful of QUBO variables, a few dozen
anneal reads) so the full suite runs in well under a minute, while still
exercising the same code paths the benchmarks use at full scale.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.annealing import QuantumAnnealerSimulator, SpinVectorMonteCarloBackend
from repro.qubo import QUBOModel, random_qubo
from repro.transform import mimo_to_qubo
from repro.wireless import MIMOConfig, simulate_transmission
from tests.qubo_fixtures import planted_solution_qubo


@pytest.fixture(autouse=True)
def _reset_repro_logging():
    """Undo `configure_logging` side effects between tests.

    The CLI configures the ``repro`` logger with its own handler and
    ``propagate = False``; left in place that would silently break ``caplog``
    (which listens on the root logger) for every test that runs after any
    ``cli.main(...)`` call.
    """
    yield
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_telemetry_handler", False):
            root.removeHandler(handler)
    root.propagate = True
    root.setLevel(logging.NOTSET)


@pytest.fixture
def rng():
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_qubo():
    """A tiny hand-written QUBO with a known unique ground state.

    E(q) = -2 q0 + 1 q1 + 3 q0 q1 has minimum -2 at (1, 0).
    """
    matrix = np.array([[-2.0, 3.0], [0.0, 1.0]])
    return QUBOModel(coefficients=matrix)


@pytest.fixture
def random_qubo_8(rng):
    """A dense random 8-variable QUBO."""
    return random_qubo(8, rng=rng)


@pytest.fixture
def planted_qubo_10():
    """A 10-variable QUBO whose unique ground state is known by construction."""
    planted = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1], dtype=np.int8)
    return planted_solution_qubo(planted, coupling_strength=0.5, field_strength=1.0, rng=3), planted


@pytest.fixture
def mimo_transmission_qpsk(rng):
    """A 3-user QPSK noiseless transmission (6 QUBO variables)."""
    config = MIMOConfig(num_users=3, modulation="QPSK")
    return simulate_transmission(config, rng=rng)


@pytest.fixture
def mimo_encoding_16qam(rng):
    """A 3-user 16-QAM transmission and its QUBO encoding (12 variables)."""
    config = MIMOConfig(num_users=3, modulation="16-QAM")
    transmission = simulate_transmission(config, rng=rng)
    return transmission, mimo_to_qubo(transmission.instance)


@pytest.fixture
def fast_sampler():
    """An annealer simulator configured for speed (few sweeps) in tests."""
    backend = SpinVectorMonteCarloBackend(sweeps_per_microsecond=16.0)
    return QuantumAnnealerSimulator(backend=backend, seed=99)


@pytest.fixture
def run_batch_calls(monkeypatch):
    """Instance counts of every ``SpinVectorMonteCarloBackend.run_batch`` call, in order."""
    calls = []
    run_batch = SpinVectorMonteCarloBackend.run_batch

    def counting_run_batch(self, fields, *args, **kwargs):
        calls.append(len(fields))
        return run_batch(self, fields, *args, **kwargs)

    monkeypatch.setattr(SpinVectorMonteCarloBackend, "run_batch", counting_run_batch)
    return calls
