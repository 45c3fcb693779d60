"""One error for a bad argument: every raise in ``src/repro`` is checked.

The walk below parses every module of the package.  A ``raise`` that names
an exception class must name a :class:`~repro.exceptions.ReproError`
subclass, or a builtin on :data:`BUILTIN_ALLOWLIST` for that module, which
gives the reason the builtin stays.  An allowlist entry that matches no
raise fails too, so a left-over entry cannot sit there unnoticed.  A
``raise`` of a bound name (re-raising a caught exception) is not checked.
"""

import ast
import builtins
import dataclasses
import pathlib

import numpy as np
import pytest

import repro
import repro.exceptions
from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.annealing.schedule import reverse_anneal_schedule
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.driver import run_driver
from repro.experiments.fig8_tts import Figure8Config, Figure8Driver
from repro.experiments.headline import HeadlineConfig, HeadlineDriver
from repro.hybrid.parameters import sweep_switch_point
from repro.hybrid.pipeline import HybridPipelineSimulator
from repro.hybrid.solver import HybridQuboSolver
from repro.qubo.ising import qubo_to_ising
from repro.qubo.model import QUBOModel

PACKAGE = pathlib.Path(repro.__file__).resolve().parent

#: ``(module, builtin)`` raises that stay builtins, each with its reason.
BUILTIN_ALLOWLIST = {
    ("repro.annealing.sampleset", "IndexError"): "a position in an empty SampleSet",
    ("repro.serving.events", "IndexError"): "pop from an empty EventQueue",
    ("repro.qubo.model", "IndexError"): "fix_variables: a variable index outside the model",
    ("repro.ablation.study", "KeyError"): "PointResult.metric: an unknown metric name",
    ("repro.utils.rng", "TypeError"): "a seed that is not None, an int or a Generator",
    ("repro.annealing.kernels", "ValueError"): "the kernel's private C-contiguity precondition",
    ("repro.serving.scenarios", "AssertionError"): "an unreachable branch",
    ("repro.telemetry.exporters", "ValueError"): (
        "a malformed trace file from outside the program; "
        "scripts/telemetry_report.py catches ValueError"
    ),
}

_REPRO_ERRORS = {
    name
    for name, value in vars(repro.exceptions).items()
    if isinstance(value, type) and issubclass(value, ReproError)
}
_BUILTIN_ERRORS = {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def _raised_classes():
    """``(module, class name, line)`` for every raise that names a class."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(("repro",) + path.relative_to(PACKAGE).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if isinstance(node.exc, ast.Call) or name in _REPRO_ERRORS | _BUILTIN_ERRORS:
                found.append((module, name, node.lineno))
    return found


def test_every_raise_is_a_repro_error_or_an_allowlisted_builtin():
    raised = _raised_classes()
    outside = [
        f"{module}:{line} raises {name}"
        for module, name, line in raised
        if name not in _REPRO_ERRORS and (module, name) not in BUILTIN_ALLOWLIST
    ]
    assert outside == []
    used = {(module, name) for module, name, _ in raised}
    assert sorted(set(BUILTIN_ALLOWLIST) - used) == []  # stale entries


def test_three_exception_classes():
    assert repro.exceptions.__all__ == ["ReproError", "ConfigurationError", "SolverError"]
    assert _REPRO_ERRORS == set(repro.exceptions.__all__)


def test_bad_initial_state_rejected_alike_on_both_problem_forms():
    qubo = QUBOModel(np.triu(np.ones((3, 3))))
    schedule = reverse_anneal_schedule(0.5)
    with pytest.raises(ConfigurationError, match="bits must be 0 or 1, got 2"):
        QuantumAnnealerSimulator(seed=1).sample_qubo(qubo, schedule, 5, [0, 2, 1])
    with pytest.raises(ConfigurationError, match=r"initial spins must be -1 or \+1"):
        QuantumAnnealerSimulator(seed=1).sample_ising(qubo_to_ising(qubo), schedule, 5, [1, 0, -1])


_ENTRY_POINTS = {
    "reverse_anneal_schedule": lambda: reverse_anneal_schedule(1.5),
    "HybridQuboSolver": lambda: HybridQuboSolver(switch_s=1.5),
    "HybridPipelineSimulator": lambda: HybridPipelineSimulator(switch_s=1.5),
    "sweep_switch_point": lambda: sweep_switch_point(
        QUBOModel(np.triu(np.ones((3, 3)))),
        0.0,
        method="RA",
        switch_values=(1.5,),
        initial_state=[0, 0, 0],
        num_reads=5,
        rng=1,
    ),
    "run_driver(fig8)": lambda: run_driver(
        Figure8Driver(), dataclasses.replace(Figure8Config.quick(), switch_values=(1.5,))
    ),
    "run_driver(headline)": lambda: run_driver(
        HeadlineDriver(), dataclasses.replace(HeadlineConfig.quick(), switch_values=(0.41, 1.5))
    ),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_switch_point_rejected_alike_from_every_entry_point(entry):
    with pytest.raises(ConfigurationError) as excinfo:
        _ENTRY_POINTS[entry]()
    assert type(excinfo.value) is ConfigurationError
    assert str(excinfo.value) == "switch_s must lie strictly inside (0, 1), got 1.5"
