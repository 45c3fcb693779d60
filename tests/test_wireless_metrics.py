"""Tests for repro.wireless.metrics."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.wireless.metrics import bit_error_rate, symbol_error_rate


class TestBitErrorRate:
    def test_zero_errors(self):
        assert bit_error_rate([0, 1, 1, 0], [0, 1, 1, 0]) == 0.0

    def test_all_errors(self):
        assert bit_error_rate([0, 0], [1, 1]) == 1.0

    def test_partial(self):
        assert bit_error_rate([0, 1, 0, 1], [0, 1, 1, 1]) == pytest.approx(0.25)

    def test_empty(self):
        assert bit_error_rate([], []) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="bit vectors differ in length: 2 vs 1"):
            bit_error_rate([0, 1], [0])


class TestSymbolErrorRate:
    def test_exact_match(self):
        symbols = np.array([1 + 1j, -1 - 1j])
        assert symbol_error_rate(symbols, symbols.copy()) == 0.0

    def test_small_numerical_noise_ignored(self):
        symbols = np.array([1 + 1j, -1 - 1j])
        assert symbol_error_rate(symbols, symbols + 1e-12) == 0.0

    def test_detects_errors(self):
        assert symbol_error_rate([1 + 1j, -1 + 1j], [1 + 1j, 1 + 1j]) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="symbol vectors differ in length: 1 vs 2"):
            symbol_error_rate([1j], [1j, 2j])
