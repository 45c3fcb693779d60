"""Tests for repro.annealing.device."""

import numpy as np
import pytest

from repro.annealing import device
from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.annealing.schedule import forward_anneal_schedule
from repro.exceptions import ConfigurationError
from tests.qubo_fixtures import random_ising


class TestAnnealingFunctions:
    def test_endpoints(self):
        assert device._transverse_energy(0.0) == pytest.approx(device._TRANSVERSE_MAX_GHZ)
        assert device._transverse_energy(1.0) == pytest.approx(0.0)
        assert device._problem_energy(0.0) == pytest.approx(0.0)
        assert device._problem_energy(1.0) == pytest.approx(device._PROBLEM_MAX_GHZ)

    def test_monotonicity(self):
        grid = np.linspace(0, 1, 11)
        transverse = [device._transverse_energy(s) for s in grid]
        problem = [device._problem_energy(s) for s in grid]
        assert all(later <= earlier for earlier, later in zip(transverse, transverse[1:]))
        assert all(later >= earlier for earlier, later in zip(problem, problem[1:]))

    def test_clipping(self):
        assert device._transverse_energy(-0.5) == device._transverse_energy(0.0)
        assert device._problem_energy(1.5) == device._problem_energy(1.0)

    def test_relative_forms(self):
        # A(0) = 6 GHz and B(1) = 12 GHz.
        assert device.relative_problem(1.0) == pytest.approx(1.0)
        assert device.relative_transverse(0.0) == pytest.approx(0.5)


class TestDeviceModel:
    def test_defaults(self):
        assert device.describe()["num_qubits"] == 2048
        assert device.RELATIVE_TEMPERATURE == pytest.approx(
            device._TEMPERATURE_GHZ / device._PROBLEM_MAX_GHZ
        )

    def test_normalisation_scale(self, rng):
        ising = random_ising(5, coupling_scale=3.0, field_scale=5.0, rng=rng)
        scale = device.normalisation_scale(ising)
        scaled_fields = ising.fields / scale
        scaled_couplings = ising.couplings / scale
        assert np.max(np.abs(scaled_fields)) <= device._H_LIMIT + 1e-9
        assert np.max(np.abs(scaled_couplings)) <= device._J_LIMIT + 1e-9

    def test_normalisation_of_empty_model(self):
        from repro.qubo.ising import IsingModel

        assert device.normalisation_scale(IsingModel(fields=[], couplings=np.zeros((0, 0)))) > 0

    def test_control_noise_disabled_by_default(self, rng):
        # The simulated device programs exactly and draws nothing for it.
        ising = random_ising(4, rng=rng)
        generator = np.random.default_rng(3)
        fields, couplings = QuantumAnnealerSimulator()._normalise(ising, generator)
        scale = device.normalisation_scale(ising)
        assert np.array_equal(fields, ising.fields / scale)
        assert np.array_equal(couplings, ising.couplings / scale)
        assert generator.random() == np.random.default_rng(3).random()

    def test_qpu_access_time(self):
        # 10 ms programming, then 120 us readout and 20 us delay per read.
        schedule = forward_anneal_schedule(2.0)
        assert device.qpu_access_time_us(schedule, 10) == pytest.approx(10_000.0 + 10 * 142.0)
        assert device.PER_READ_OVERHEAD_US == 140.0

    def test_qpu_access_time_invalid_reads(self):
        with pytest.raises(ConfigurationError):
            device.qpu_access_time_us(forward_anneal_schedule(1.0), 0)

    def test_describe(self):
        description = device.describe()
        assert description["name"] == "simulated-2000Q"
        assert "relative_temperature" in description
        # Each call hands out its own dictionary.
        description["name"] = "changed"
        assert device.describe()["name"] == "simulated-2000Q"
