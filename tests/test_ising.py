"""Tests for repro.qubo.ising."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.qubo.ising import IsingModel, bits_to_spins, qubo_to_ising
from repro.qubo.generators import random_qubo
from tests.qubo_fixtures import ising_to_qubo, random_ising, spins_to_bits


class TestSpinBitMaps:
    def test_spins_to_bits(self):
        assert np.array_equal(spins_to_bits([-1, 1, 1, -1]), [0, 1, 1, 0])

    def test_bits_to_spins(self):
        assert np.array_equal(bits_to_spins([0, 1, 1, 0]), [-1, 1, 1, -1])

    def test_round_trip(self, rng):
        bits = rng.integers(0, 2, size=20)
        assert np.array_equal(spins_to_bits(bits_to_spins(bits)), bits)

    def test_invalid_spin(self):
        with pytest.raises(ValueError):
            spins_to_bits([0, 1])

    def test_invalid_bit(self):
        with pytest.raises(ConfigurationError, match="bits must be 0 or 1, got 2"):
            bits_to_spins([2])


class TestIsingModel:
    def test_energy_known(self):
        model = IsingModel(fields=[1.0, -1.0], couplings=np.array([[0.0, 0.5], [0.0, 0.0]]))
        # E = s0 - s1 + 0.5 s0 s1
        assert model.energy([1, 1]) == pytest.approx(0.5)
        assert model.energy([-1, 1]) == pytest.approx(-2.5)

    def test_diagonal_moved_to_offset(self):
        model = IsingModel(fields=[0.0], couplings=np.array([[2.0]]))
        assert model.offset == pytest.approx(2.0)
        assert model.energy([1]) == pytest.approx(2.0)

    def test_lower_triangle_folded(self):
        model = IsingModel(fields=[0.0, 0.0], couplings=np.array([[0.0, 0.0], [1.5, 0.0]]))
        assert model.couplings[0, 1] == pytest.approx(1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError, match="1 fields supplied for 2 spins"):
            IsingModel(fields=[1.0], couplings=np.zeros((2, 2)))

    def test_batch_energies(self, rng):
        model = random_ising(6, rng=rng)
        spins = rng.choice([-1, 1], size=(10, 6))
        energies = model.energies(spins)
        for row, energy in zip(spins, energies):
            assert energy == pytest.approx(model.energy(row))

    def test_max_abs_coefficient(self):
        model = IsingModel(fields=[0.5, -2.0], couplings=np.zeros((2, 2)))
        assert model.max_abs_coefficient() == 2.0


class TestConversions:
    def test_qubo_to_ising_energy_equivalence(self, rng):
        qubo = random_qubo(7, rng=rng)
        ising = qubo_to_ising(qubo)
        for _ in range(20):
            bits = rng.integers(0, 2, size=7)
            assert ising.energy(bits_to_spins(bits)) == pytest.approx(qubo.energy(bits))

    def test_ising_to_qubo_energy_equivalence(self, rng):
        ising = random_ising(6, rng=rng)
        qubo = ising_to_qubo(ising)
        for _ in range(20):
            spins = rng.choice([-1, 1], size=6)
            assert qubo.energy(spins_to_bits(spins)) == pytest.approx(ising.energy(spins))

    def test_double_round_trip(self, rng):
        qubo = random_qubo(5, rng=rng)
        round_tripped = ising_to_qubo(qubo_to_ising(qubo))
        for _ in range(10):
            bits = rng.integers(0, 2, size=5)
            assert round_tripped.energy(bits) == pytest.approx(qubo.energy(bits))

    def test_offset_preserved(self, rng):
        qubo = random_qubo(4, rng=rng)
        shifted = qubo.scale(1.0)
        shifted = type(shifted)(coefficients=shifted.coefficients, offset=3.5)
        ising = qubo_to_ising(shifted)
        bits = rng.integers(0, 2, size=4)
        assert ising.energy(bits_to_spins(bits)) == pytest.approx(shifted.energy(bits))
