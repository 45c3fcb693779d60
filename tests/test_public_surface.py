"""Tests for scripts/check_public_surface.py, the public-surface CI check."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_public_surface.py"


def _check(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=60
    )


def _allowlists():
    """The script's ``(ALLOWLIST, PARAMETER_ALLOWLIST, FIELD_ALLOWLIST)``."""
    spec = importlib.util.spec_from_file_location("check_public_surface", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ALLOWLIST, module.PARAMETER_ALLOWLIST, module.FIELD_ALLOWLIST


def _stale(reasons):
    """The stale-entry lines the check prints, given each entry's reason.

    Entries missing from ``reasons`` name nothing in a planted tree.
    """
    return [
        f"stale allowlist entry ({reasons.get(entry, 'names nothing')}): {entry}"
        for allowlist in _allowlists()
        for entry in sorted(allowlist)
        if reasons.get(entry) != "valid"
    ]


def test_tree_has_no_unreferenced_public_name():
    result = _check()
    assert result.returncode == 0, result.stdout + result.stderr


def test_planted_uncalled_function_is_named(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.mod import called, uncalled\n\n__all__ = ['called', 'uncalled']\n"
    )
    (package / "mod.py").write_text(
        "def called():\n    return 1\n\n\n"
        "def uncalled():\n    return uncalled\n\n\n"
        "def _private():\n    return 2\n\n\n"
        "class Model:\n"
        "    def used(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 3\n\n"
        "    @property\n    def size(self):\n        return 4\n\n"
        "    def unused(self):\n        return self.unused()\n\n"
        "    def _hidden(self):\n        return 5\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(
        "from repro.mod import Model, called\n\ncalled()\nModel().used()\nprint(Model().size)\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import Model, uncalled\n\nModel().unused()\n"
    )

    result = _check(str(tmp_path))
    assert result.returncode == 1
    # A method referenced only by itself and by tests is named; one that
    # another method of its class calls is not.
    assert result.stdout.splitlines() == [
        "public name with no caller outside tests: repro.mod:uncalled",
        "public name with no caller outside tests: repro.mod:Model.unused",
    ] + _stale({})


def test_planted_uncalled_parameters_are_named(tmp_path):
    package = tmp_path / "src" / "repro"
    (package / "qubo").mkdir(parents=True)
    (package / "mod.py").write_text(
        "def tune(x, by_position=3, by_keyword=2, dead=1):\n    return x\n\n\n"
        "def spread(x, via_kwargs=0):\n    return x\n\n\n"
        "def outer(x, level=0):\n    return middle(x, level=level)\n\n\n"
        "def middle(x, level=0):\n    return inner(x, level)\n\n\n"
        "def inner(x, level=0):\n    return x\n\n\n"
        "def relay(x, gain=1.0):\n    return sink(x, gain=gain)\n\n\n"
        "def sink(x, gain=1.0):\n    return x\n\n\n"
        "class Engine:\n"
        "    def __init__(self, size, width=4):\n        self.size = size\n"
    )
    # Allowlisted: tests reach the multi-block path through block_bits.
    (package / "qubo" / "energy.py").write_text(
        "def enumerate_assignments(num_variables, block_bits=16):\n"
        "    return num_variables\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(
        "from repro.mod import Engine, outer, relay, spread, tune\n"
        "from repro.qubo.energy import enumerate_assignments\n\n"
        "options = {'via_kwargs': 1}\n"
        "tune(1, 7, by_keyword=4)\n"
        "spread(1, **options)\n"
        "outer(1)\n"
        "relay(1, gain=2.0)\n"
        "Engine(3)\n"
        "enumerate_assignments(4)\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import Engine, outer, tune\n\n"
        "tune(1, dead=0)\nouter(1, level=2)\nEngine(3, width=8)\n"
    )

    result = _check(str(tmp_path))
    assert result.returncode == 1
    # Only tests turn ``dead``, ``width`` and the ``level`` chain; forwarding
    # a dead parameter (middle, inner) passes nothing, while ``relay``'s
    # live ``gain`` makes ``sink``'s live too.
    prefix = "defaulted parameter with no caller outside tests: "
    assert result.stdout.splitlines() == [
        prefix + "repro.mod:tune(dead)",
        prefix + "repro.mod:outer(level)",
        prefix + "repro.mod:middle(level)",
        prefix + "repro.mod:inner(level)",
        prefix + "repro.mod:Engine(width)",
    ] + _stale({"repro.qubo.energy:enumerate_assignments(block_bits)": "valid"})


def test_stale_allowlist_entries_are_named(tmp_path):
    package = tmp_path / "src" / "repro"
    for directory in ("qubo", "telemetry", "wireless"):
        (package / directory).mkdir(parents=True)
    # Still needed: only tests pass block_bits.
    (package / "qubo" / "energy.py").write_text(
        "def enumerate_assignments(num_variables, block_bits=16):\n"
        "    return num_variables\n"
    )
    # Allowlisted, but a script calls the method and passes the parameter.
    (package / "telemetry" / "registry.py").write_text(
        "class MetricsRegistry:\n    def snapshot(self):\n        return {}\n"
    )
    (package / "wireless" / "traffic.py").write_text(
        "class ChannelUse:\n"
        "    def __init__(self, index, transmission=None):\n        self.index = index\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(
        "from repro.qubo.energy import enumerate_assignments\n"
        "from repro.telemetry.registry import MetricsRegistry\n"
        "from repro.wireless.traffic import ChannelUse\n\n"
        "enumerate_assignments(4)\n"
        "MetricsRegistry().snapshot()\n"
        "ChannelUse(0, transmission=None)\n"
    )

    result = _check(str(tmp_path))
    # Stale entries alone fail the check.
    assert result.returncode == 1
    assert result.stdout.splitlines() == _stale(
        {
            "repro.qubo.energy:enumerate_assignments(block_bits)": "valid",
            "repro.telemetry.registry:MetricsRegistry.snapshot": "already live",
            "repro.wireless.traffic:ChannelUse(transmission)": "already live",
        }
    )
    assert "stale allowlist entries: correct or remove them" in result.stderr


def test_planted_unset_config_fields_are_named(tmp_path):
    package = tmp_path / "src" / "repro"
    for directory in ("ablation", "experiments"):
        (package / directory).mkdir(parents=True)
    (package / "study.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class StudyConfig:\n"
        "    positional: int = 1\n"
        "    preset_field: int = 2\n"
        "    keyword: int = 3\n"
        "    replaced: int = 4\n"
        "    spec_key: int = 5\n"
        "    toml_key: int = 6\n"
        "    dead: int = 7\n"
        "    instance_seed: int = 0\n"
        "    base_seed: int = 0\n\n"
        "    @classmethod\n"
        "    def quick(cls):\n        return cls(preset_field=0)\n\n\n"
        "class _StudyDriver:\n"
        "    name = 'study'\n"
        "    config_class = StudyConfig\n"
    )
    # Allowlisted: only the goldens overload the plant through it.
    (package / "experiments" / "qos_study.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class QoSStudyConfig:\n    base_symbol_period_us: float = 150.0\n\n\n"
        "class _QoSDriver:\n    name = 'qos'\n    config_class = QoSStudyConfig\n"
    )
    # Allowlisted, but a script sets density.
    (package / "ablation" / "targets.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class AnnealHPOConfig:\n"
        "    density: float = 1.0\n    final_temperature: float = 0.01\n\n\n"
        "class _HPODriver:\n    name = 'anneal-hpo'\n    config_class = AnnealHPOConfig\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(
        "import dataclasses\n\n"
        "from repro.ablation import AblationSpec\n"
        "from repro.ablation.targets import AnnealHPOConfig\n"
        "from repro.experiments.qos_study import QoSStudyConfig\n"
        "from repro.study import StudyConfig\n\n"
        "config = dataclasses.replace(StudyConfig(8, keyword=9), replaced=10)\n"
        "StudyConfig.quick()\n"
        "QoSStudyConfig()\n"
        "AnnealHPOConfig(density=0.5)\n"
        "AblationSpec(name='a', experiment='study', preset='quick', base={'spec_key': 1})\n"
        "AblationSpec(name='b', experiment='qos', preset='quick', axes={'dead': (1, 2)})\n"
    )
    (tmp_path / "examples" / "specs").mkdir(parents=True)
    (tmp_path / "examples" / "specs" / "study.toml").write_text(
        'name = "toml"\nexperiment = "study"\npreset = "quick"\n\n[axes]\ntoml_key = [1, 2]\n'
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_study.py").write_text(
        "from repro.study import StudyConfig\n\nStudyConfig(dead=0)\n"
    )

    result = _check(str(tmp_path))
    assert result.returncode == 1
    # Only a test sets ``dead``, and the spec naming it sweeps another
    # experiment; every other field is set in one live way, or is a seed.
    assert result.stdout.splitlines() == [
        "dataclass field nothing outside tests sets: repro.study:StudyConfig.dead",
    ] + _stale(
        {
            "repro.ablation.targets:AnnealHPOConfig.density": "already live",
            "repro.ablation.targets:AnnealHPOConfig.final_temperature": "valid",
            "repro.experiments.qos_study:QoSStudyConfig.base_symbol_period_us": "valid",
        }
    )
    assert "1 unset dataclass field(s)" in result.stderr


_QOS_ENTRY = "repro.experiments.qos_study:QoSStudyConfig.base_symbol_period_us"

#: ``(Record's field, Record's extra body, script lines, stale reasons)`` per
#: way a field of a plain dataclass is set (the check must accept each) or
#: is exempt from the check (it must skip each).
_FIELD_CASES = {
    "keyword": ("kept: int = 0", "", "Record(kept=1)", {}),
    "position": ("kept: int = 0", "", "Record(1)", {}),
    "starred": ("kept: int = 0", "", "Record(*[1])", {}),
    "double-star": ("kept: int = 0", "", "Record(**{'kept': 1})", {}),
    "replace": ("kept: int = 0", "", "dataclasses.replace(Record(), kept=1)", {}),
    "attribute": ("kept: int = 0", "", "record = Record()\nrecord.kept = 1", {}),
    "augmented": ("kept: int = 0", "", "record = Record()\nrecord.kept += 1", {}),
    "own-method": (
        "kept: int = 0",
        "    def bump(self):\n        self.kept += 1\n",
        "Record().bump()",
        {},
    ),
    "preset": (
        "kept: int = 0",
        "    @classmethod\n    def preset(cls):\n        return cls(kept=1)\n",
        "Record.preset()",
        {},
    ),
    "private": ("_kept: int = 0", "", "", {}),
    "init-false": ("kept: int = dataclasses.field(default=0, init=False)", "", "", {}),
    "class-var": ("kept: typing.ClassVar[int] = 0", "", "", {}),
    # The allowlisted field, here of a plain dataclass, is set by a script.
    "stale-entry": (
        "kept: int = 0",
        "",
        "Record(kept=1)\nQoSStudyConfig(base_symbol_period_us=900.0)",
        {_QOS_ENTRY: "already live"},
    ),
}


@pytest.mark.parametrize("case", sorted(_FIELD_CASES))
def test_planted_dataclass_fields_are_set_or_exempt(tmp_path, case):
    declaration, body, script, reasons = _FIELD_CASES[case]
    package = tmp_path / "src" / "repro"
    (package / "experiments").mkdir(parents=True)
    (package / "mod.py").write_text(
        "import dataclasses\nimport typing\n\n\n"
        f"@dataclasses.dataclass\nclass Record:\n    {declaration}\n{body}\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass Unset:\n    dead: int = 0\n\n\n"
        # Another class writing its own attribute of that name sets nothing.
        "class Writer:\n    def __init__(self):\n        self.dead = 1\n"
    )
    (package / "experiments" / "qos_study.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass QoSStudyConfig:\n    base_symbol_period_us: float = 150.0\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(
        "import dataclasses\n\n"
        "from repro.experiments.qos_study import QoSStudyConfig\n"
        "from repro.mod import Record, Unset, Writer\n\n"
        f"Unset()\nWriter()\n{script}\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import Unset\n\nUnset(dead=1)\n"
    )

    result = _check(str(tmp_path))
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "dataclass field nothing outside tests sets: repro.mod:Unset.dead",
    ] + _stale({_QOS_ENTRY: "valid", **reasons})
