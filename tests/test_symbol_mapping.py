"""Tests for repro.transform.symbol_mapping."""

import itertools

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.transform.symbol_mapping import (
    SymbolBitMapping,
    amplitude_to_transform_bits,
    transform_bits_to_amplitude,
    transform_bits_to_gray_bits,
)
from repro.wireless.modulation import get_modulation
from tests.wireless_fixtures import gray_bits_to_transform_bits


class TestAmplitudeMapping:
    def test_single_bit(self):
        assert transform_bits_to_amplitude([0]) == -1.0
        assert transform_bits_to_amplitude([1]) == 1.0

    def test_two_bits_span_grid(self):
        amplitudes = sorted(
            transform_bits_to_amplitude(bits) for bits in itertools.product((0, 1), repeat=2)
        )
        assert amplitudes == [-3.0, -1.0, 1.0, 3.0]

    def test_three_bits_span_grid(self):
        amplitudes = sorted(
            transform_bits_to_amplitude(bits) for bits in itertools.product((0, 1), repeat=3)
        )
        assert amplitudes == [-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0]

    def test_scale_applied(self):
        assert transform_bits_to_amplitude([1, 1], scale=0.5) == pytest.approx(1.5)

    def test_inverse(self):
        for bits in itertools.product((0, 1), repeat=3):
            amplitude = transform_bits_to_amplitude(bits, scale=0.37)
            assert amplitude_to_transform_bits(amplitude, 3, scale=0.37) == bits

    def test_off_grid_rejected(self):
        with pytest.raises(ConfigurationError, match=r"amplitude 0\.4 is not on the 2-bit grid"):
            amplitude_to_transform_bits(0.4, 2)

    def test_empty_bits_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one transform bit is required"):
            transform_bits_to_amplitude([])

    def test_invalid_bits_rejected(self):
        with pytest.raises(ConfigurationError, match="transform bits must be 0 or 1, got 2"):
            transform_bits_to_amplitude([0, 2])


class TestGrayConversion:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_round_trip(self, width):
        for bits in itertools.product((0, 1), repeat=width):
            gray = transform_bits_to_gray_bits(bits)
            assert gray_bits_to_transform_bits(gray) == bits


class TestSymbolBitMapping:
    @pytest.mark.parametrize("name", ["BPSK", "QPSK", "16-QAM", "64-QAM"])
    def test_symbol_round_trip_over_constellation(self, name):
        modulation = get_modulation(name)
        mapping = SymbolBitMapping(modulation=modulation, user_index=0, first_variable=0)
        for index in range(modulation.order):
            symbol = modulation.points[index]
            bits = np.zeros(modulation.bits_per_symbol, dtype=int)
            bits[list(range(modulation.bits_per_symbol))] = mapping.bits_from_symbol(symbol)
            assert mapping.symbol_from_bits(bits) == pytest.approx(symbol)

    def test_variable_layout(self):
        modulation = get_modulation("16-QAM")
        mapping = SymbolBitMapping(modulation=modulation, user_index=2, first_variable=8)
        assert mapping.variable_indices == (8, 9, 10, 11)
        assert mapping.in_phase_indices == (8, 9)
        assert mapping.quadrature_indices == (10, 11)

    def test_bpsk_has_no_quadrature(self):
        mapping = SymbolBitMapping(
            modulation=get_modulation("BPSK"), user_index=0, first_variable=0
        )
        assert mapping.quadrature_indices == ()
        assert mapping.in_phase_indices == (0,)

    def test_gray_payload_matches_modulation_labels(self):
        # Decoding QUBO bits -> payload bits -> constellation point must agree
        # with decoding QUBO bits -> symbol directly.
        modulation = get_modulation("64-QAM")
        mapping = SymbolBitMapping(modulation=modulation, user_index=0, first_variable=0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            bits = rng.integers(0, 2, size=modulation.bits_per_symbol)
            symbol = mapping.symbol_from_bits(bits)
            payload = mapping.gray_payload_bits(bits)
            assert modulation.modulate_bits(list(payload))[0] == pytest.approx(symbol)

    def test_bpsk_rejects_complex_symbol(self):
        mapping = SymbolBitMapping(
            modulation=get_modulation("BPSK"), user_index=0, first_variable=0
        )
        with pytest.raises(ConfigurationError, match=r"amplitude 0\.5 is not on the 1-bit grid"):
            mapping.bits_from_symbol(0.5 + 0.5j)
