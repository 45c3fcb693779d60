"""Tests for repro.utils.validation."""

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.validation import (
    require,
    require_non_negative,
    require_positive,
)


class TestRequire:
    def test_passes_when_true(self):
        require(True, "never raised")

    def test_raises_when_false(self):
        with pytest.raises(ConfigurationError, match="broken"):
            require(False, "broken")


class TestNumericRequirements:
    def test_positive_accepts(self):
        require_positive(0.1, "x")

    def test_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            require_positive(0, "x")

    def test_non_negative_accepts_zero(self):
        require_non_negative(0, "x")

    def test_non_negative_rejects(self):
        with pytest.raises(ConfigurationError):
            require_non_negative(-1, "x")
