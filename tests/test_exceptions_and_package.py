"""Tests for the exception hierarchy and top-level package surface."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.exceptions import ConfigurationError, ReproError, SolverError


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exception_class", [ConfigurationError, SolverError])
    def test_all_derive_from_repro_error(self, exception_class):
        assert issubclass(exception_class, ReproError)
        with pytest.raises(ReproError):
            raise exception_class("boom")

    def test_repro_error_is_an_exception(self):
        assert issubclass(ReproError, Exception)

    def test_catching_family_does_not_catch_unrelated(self):
        with pytest.raises(ValueError):
            try:
                raise ValueError("not ours")
            except ReproError:  # pragma: no cover - must not trigger
                pytest.fail("ReproError must not catch unrelated exceptions")


class TestPackageSurface:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") >= 1

    def test_exceptions_reexported(self):
        assert repro.ConfigurationError is ConfigurationError
        assert repro.ReproError is ReproError

    def test_all_subpackages_importable(self):
        import repro.annealing
        import repro.classical
        import repro.experiments
        import repro.hybrid
        import repro.metrics
        import repro.qubo
        import repro.transform
        import repro.utils
        import repro.wireless

        for module in (
            repro.annealing,
            repro.classical,
            repro.experiments,
            repro.hybrid,
            repro.metrics,
            repro.qubo,
            repro.transform,
            repro.utils,
            repro.wireless,
        ):
            assert module.__doc__, f"{module.__name__} must have a module docstring"

    @pytest.mark.parametrize("package", ["repro.hybrid.pipeline", "repro.serving"])
    def test_imports_first_in_a_fresh_interpreter(self, package):
        # repro.serving.backends imports repro.hybrid.solver while the
        # hybrid pipeline imports repro.serving.events: either may load first.
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        subprocess.run(
            [sys.executable, "-c", f"import {package}"],
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )

    def test_public_symbols_resolve(self):
        # The only packages that re-export their modules' names.
        import repro.annealing as annealing
        import repro.serving as serving
        import repro.wireless as wireless

        for module in (annealing, serving, wireless):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"
