"""Tests for repro.wireless.modulation."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.wireless.modulation import (
    bits_to_int,
    get_modulation,
    gray_code,
    int_to_bits,
)
from tests.wireless_fixtures import gray_decode, symbol_index


class TestGrayCode:
    @pytest.mark.parametrize("value", range(32))
    def test_round_trip(self, value):
        assert gray_decode(gray_code(value)) == value

    def test_adjacent_codes_differ_in_one_bit(self):
        for value in range(63):
            diff = gray_code(value) ^ gray_code(value + 1)
            assert bin(diff).count("1") == 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError, match="value must be non-negative, got -1"):
            gray_code(-1)
        with pytest.raises(ValueError):
            gray_decode(-3)


class TestBitHelpers:
    def test_bits_to_int(self):
        assert bits_to_int([1, 0, 1]) == 5

    def test_int_to_bits(self):
        assert int_to_bits(5, 4) == (0, 1, 0, 1)

    def test_round_trip(self):
        for value in range(16):
            assert bits_to_int(int_to_bits(value, 4)) == value

    def test_invalid_bit(self):
        with pytest.raises(ConfigurationError, match="bits must be 0 or 1, got 2"):
            bits_to_int([2, 0])

    def test_overflow(self):
        with pytest.raises(ConfigurationError, match="value 16 does not fit in 4 bits"):
            int_to_bits(16, 4)


class TestGetModulation:
    def test_canonical_names(self):
        assert get_modulation("bpsk").name == "BPSK"
        assert get_modulation("16qam").name == "16-QAM"
        assert get_modulation("64-QAM").name == "64-QAM"
        assert get_modulation("QPSK").name == "QPSK"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError, match=r"unknown modulation '256-QAM'"):
            get_modulation("256-QAM")

    def test_shared_instances(self):
        assert get_modulation("bpsk") is get_modulation("BPSK")


class TestConstellationGeometry:
    @pytest.mark.parametrize(
        "name,order,bits", [("BPSK", 2, 1), ("QPSK", 4, 2), ("16-QAM", 16, 4), ("64-QAM", 64, 6)]
    )
    def test_order_and_bits(self, name, order, bits):
        modulation = get_modulation(name)
        assert modulation.order == order
        assert modulation.bits_per_symbol == bits
        assert modulation.points.size == order

    @pytest.mark.parametrize("name", ["BPSK", "QPSK", "16-QAM", "64-QAM"])
    def test_unit_average_energy(self, name):
        assert get_modulation(name).average_energy() == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["QPSK", "16-QAM", "64-QAM"])
    def test_points_are_distinct(self, name):
        points = get_modulation(name).points
        distances = np.abs(points[:, None] - points[None, :])
        distances[np.diag_indices_from(distances)] = np.inf
        assert distances.min() > 1e-6

    @pytest.mark.parametrize("name", ["BPSK", "QPSK", "16-QAM", "64-QAM"])
    def test_scale_normalises_the_raw_grid(self, name):
        modulation = get_modulation(name)
        # The raw odd-integer grid, rebuilt here without the module's helpers.
        if name == "BPSK":
            grid = np.array([-1.0, 1.0])
        else:
            count = 1 << (modulation.bits_per_symbol // 2)
            levels = np.arange(count) * 2.0 - (count - 1)
            grid = (levels[:, None] + 1j * levels[None, :]).ravel()
        assert modulation.scale == 1.0 / np.sqrt(np.mean(np.abs(grid) ** 2))
        # Computed once: repeated access returns the very same float.
        assert modulation.scale is modulation.scale
        assert np.mean(np.abs(modulation.points) ** 2) == pytest.approx(1.0)

    def test_unnormalized_grid(self):
        modulation = get_modulation("16-QAM")
        reals = sorted(set(np.round(modulation.points.real / modulation.scale, 6)))
        assert reals == [-3.0, -1.0, 1.0, 3.0]


class TestBitSymbolMapping:
    @pytest.mark.parametrize("name", ["BPSK", "QPSK", "16-QAM", "64-QAM"])
    def test_modulate_demodulate_round_trip(self, name, rng):
        modulation = get_modulation(name)
        bits = modulation.random_bits(20, rng)
        symbols = modulation.modulate_bits(bits)
        groups = bits.reshape(-1, modulation.bits_per_symbol)
        assert np.array_equal(symbols, modulation.points[[bits_to_int(g) for g in groups]])
        labels = [
            int_to_bits(symbol_index(modulation, s), modulation.bits_per_symbol) for s in symbols
        ]
        assert np.array_equal(np.concatenate(labels), bits)

    def test_gray_property_neighbouring_amplitudes(self):
        # Adjacent 16-QAM amplitudes along one axis differ in exactly one payload bit.
        modulation = get_modulation("16-QAM")
        by_real = {}
        for index in range(modulation.order):
            point = modulation.points[index]
            by_real.setdefault(round(point.imag, 6), []).append((point.real, index))
        for _, row in by_real.items():
            row.sort()
            for (_, first), (_, second) in zip(row, row[1:]):
                bits_first = int_to_bits(first, modulation.bits_per_symbol)
                bits_second = int_to_bits(second, modulation.bits_per_symbol)
                differing = sum(a != b for a, b in zip(bits_first, bits_second))
                assert differing == 1

    def test_modulate_wrong_length_raises(self):
        with pytest.raises(ConfigurationError, match="bit count 3 is not a multiple"):
            get_modulation("16-QAM").modulate_bits([1, 0, 1])

    def test_modulate_invalid_bits(self):
        with pytest.raises(ConfigurationError, match="bits must be 0 or 1, got 2"):
            get_modulation("QPSK").modulate_bits([0, 2])

    def test_symbol_index_exact(self):
        modulation = get_modulation("QPSK")
        for index in range(modulation.order):
            assert symbol_index(modulation, modulation.points[index]) == index

    def test_symbol_index_rejects_off_grid(self):
        with pytest.raises(ConfigurationError, match="is not a QPSK constellation point"):
            symbol_index(get_modulation("QPSK"), 0.1 + 0.2j)
