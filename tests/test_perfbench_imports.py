"""The frozen benchmark harness's imports from ``repro`` must keep resolving.

``perfbench/`` may not change alongside the library, so a renamed or
deleted library name it uses would otherwise surface only when the harness
runs.  These tests import the harness the way it imports itself and check
every name it takes from ``repro``.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

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


#: Library modules no benchmark workload runs.  A package ``__init__`` that
#: re-exports its modules' names loads all of them on the import of any one,
#: which puts these in every benchmark probe's timed set-up.
UNUSED_BY_WORKLOADS = (
    "repro.classical.exhaustive",
    "repro.classical.mmse",
    "repro.classical.sphere_decoder",
    "repro.classical.zero_forcing",
    "repro.experiments.ablation",
    "repro.experiments.fig3_simplification",
    "repro.experiments.fig6_distributions",
    "repro.experiments.fig7_initial_state",
    "repro.experiments.headline",
    "repro.experiments.load_study",
    "repro.experiments.network_study",
    "repro.experiments.pause_ablation",
    "repro.experiments.pipeline_study",
    "repro.experiments.registry",
    "repro.experiments.robustness_study",
    "repro.experiments.scenario_study",
    "repro.experiments.snr_study",
    "repro.hybrid.pipeline",
    "repro.metrics.statistics",
    "repro.network.aggregate",
    "repro.network.embedding",
    "repro.network.kpi",
    "repro.qubo.constraints",
    "repro.qubo.energy",
    "repro.qubo.generators",
    "repro.qubo.preprocessing",
    "repro.utils.jsonable",
    "repro.wireless.metrics",
)

#: What ``perfbench/run.py`` imports before its first timed call; importing
#: ``workloads`` runs every import of ``perfbench/workloads.py``.
_HARNESS_IMPORTS = """
import json, sys
import repro
from repro import telemetry
from repro.annealing.kernels import active_kernel_name
from repro.utils.rng import stable_seed
import workloads
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro"))))
"""


def test_harness_set_up_loads_no_unused_module():
    src = REPO_ROOT / "src"
    for name in UNUSED_BY_WORKLOADS:
        # A renamed module would make the check below pass vacuously.
        assert (src / (name.replace(".", "/") + ".py")).is_file(), name
    completed = subprocess.run(
        [sys.executable, "-c", _HARNESS_IMPORTS],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(REPO_ROOT / "perfbench")])},
    )
    loaded = set(json.loads(completed.stdout))
    assert "repro.experiments.qos_study" in loaded
    assert sorted(loaded.intersection(UNUSED_BY_WORKLOADS)) == []
