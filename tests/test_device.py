"""Tests for repro.annealing.device."""

import numpy as np
import pytest

from repro.annealing.device import AnnealingFunctions, DeviceModel
from repro.annealing.schedule import forward_anneal_schedule
from repro.exceptions import ConfigurationError
from tests.qubo_fixtures import random_ising


class TestAnnealingFunctions:
    def test_endpoints(self):
        functions = AnnealingFunctions()
        assert functions.transverse_energy(0.0) == pytest.approx(functions.transverse_max_ghz)
        assert functions.transverse_energy(1.0) == pytest.approx(0.0)
        assert functions.problem_energy(0.0) == pytest.approx(0.0)
        assert functions.problem_energy(1.0) == pytest.approx(functions.problem_max_ghz)

    def test_monotonicity(self):
        functions = AnnealingFunctions()
        grid = np.linspace(0, 1, 11)
        transverse = [functions.transverse_energy(s) for s in grid]
        problem = [functions.problem_energy(s) for s in grid]
        assert all(later <= earlier for earlier, later in zip(transverse, transverse[1:]))
        assert all(later >= earlier for earlier, later in zip(problem, problem[1:]))

    def test_clipping(self):
        functions = AnnealingFunctions()
        assert functions.transverse_energy(-0.5) == functions.transverse_energy(0.0)
        assert functions.problem_energy(1.5) == functions.problem_energy(1.0)

    def test_relative_forms(self):
        functions = AnnealingFunctions(transverse_max_ghz=6.0, problem_max_ghz=12.0)
        assert functions.relative_problem(1.0) == pytest.approx(1.0)
        assert functions.relative_transverse(0.0) == pytest.approx(0.5)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            AnnealingFunctions(transverse_max_ghz=0.0)
        with pytest.raises(ConfigurationError):
            AnnealingFunctions(transverse_exponent=-1.0)


class TestDeviceModel:
    def test_defaults(self):
        device = DeviceModel()
        assert device.num_qubits == 2048
        assert device.relative_temperature == pytest.approx(
            device.temperature_ghz / device.annealing.problem_max_ghz
        )

    def test_normalisation_scale(self, rng):
        ising = random_ising(5, coupling_scale=3.0, field_scale=5.0, rng=rng)
        device = DeviceModel()
        scale = device.normalisation_scale(ising)
        scaled_fields = ising.fields / scale
        scaled_couplings = ising.couplings / scale
        h_bound = max(abs(device.h_range[0]), abs(device.h_range[1]))
        assert np.max(np.abs(scaled_fields)) <= h_bound + 1e-9
        j_bound = max(abs(device.j_range[0]), abs(device.j_range[1]))
        assert np.max(np.abs(scaled_couplings)) <= j_bound + 1e-9

    def test_normalisation_of_empty_model(self):
        from repro.qubo.ising import IsingModel

        device = DeviceModel()
        assert device.normalisation_scale(IsingModel(fields=[], couplings=np.zeros((0, 0)))) > 0

    def test_control_noise_disabled_by_default(self, rng):
        device = DeviceModel()
        fields = rng.standard_normal(4)
        couplings = np.triu(rng.standard_normal((4, 4)), 1)
        noisy_fields, noisy_couplings = device.apply_control_noise(fields, couplings, rng)
        assert noisy_fields is fields
        assert noisy_couplings is couplings

    def test_control_noise_perturbs(self, rng):
        device = DeviceModel(field_noise_sigma=0.05, coupling_noise_sigma=0.05)
        fields = np.zeros(6)
        couplings = np.triu(np.ones((6, 6)), 1)
        noisy_fields, noisy_couplings = device.apply_control_noise(fields, couplings, rng)
        assert not np.allclose(noisy_fields, fields)
        assert not np.allclose(noisy_couplings, couplings)
        # Only existing couplers are perturbed.
        assert np.allclose(np.tril(noisy_couplings), 0.0)

    def test_qpu_access_time(self):
        device = DeviceModel(
            programming_time_us=100.0, readout_time_us=10.0, inter_sample_delay_us=5.0
        )
        schedule = forward_anneal_schedule(2.0)
        assert device.qpu_access_time_us(schedule, 10) == pytest.approx(100.0 + 10 * 17.0)

    def test_qpu_access_time_invalid_reads(self):
        with pytest.raises(ConfigurationError):
            DeviceModel().qpu_access_time_us(forward_anneal_schedule(1.0), 0)

    def test_describe(self):
        description = DeviceModel().describe()
        assert description["name"] == "simulated-2000Q"
        assert "relative_temperature" in description

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_qubits": 0},
            {"temperature_ghz": -1.0},
            {"field_noise_sigma": -0.1},
            {"programming_time_us": -5.0},
        ],
    )
    def test_invalid_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            DeviceModel(**kwargs)
