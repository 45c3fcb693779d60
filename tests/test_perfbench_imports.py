"""The frozen benchmark harness's imports from ``repro`` must keep resolving.

``perfbench/`` may not change alongside the library, so a renamed or
deleted library name it uses would otherwise surface only when the harness
runs.  These tests import the harness the way it imports itself and check
every name it takes from ``repro``.
"""

import importlib
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _repo_root_on_path(monkeypatch):
    """Make the ``perfbench`` package importable from the repository root."""
    monkeypatch.syspath_prepend(str(REPO_ROOT))


def test_every_layertrace_entry_point_resolves():
    layertrace = importlib.import_module("perfbench.layertrace")
    assert layertrace.ENTRY_POINTS
    missing = []
    for point in layertrace.ENTRY_POINTS:
        try:
            layertrace._resolve(point.target)
        except layertrace.EntryPointMissing as error:
            missing.append(str(error))
    assert not missing


def test_workloads_import():
    workloads = importlib.import_module("perfbench.workloads")
    assert set(workloads.WORKLOADS) >= {"ra-sweep", "qos-day", "detect-serve"}


def test_prepare_reads_the_kernel_name():
    # perfbench/run.py's prepare() records this name with every run.
    from repro.annealing.kernels import active_kernel_name

    assert active_kernel_name() == "vectorized"
