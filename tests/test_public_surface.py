"""Tests for scripts/check_public_surface.py, the public-surface CI check."""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_public_surface.py"


def _check(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=60
    )


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
    ]
