"""Golden regression tests for the quick experiment configurations.

Each fixture in ``tests/golden/`` freezes the exact numeric output of one
quick study under the replica-parallel kernels (``single_entry_points``
pins the single-instance hybrid entry points instead; see
``tests/entry_point_cases.py``).  These tests re-run them and compare every
field bitwise, failing with a readable per-field diff.  They are the tripwire
for unintended numerics changes anywhere in the stack — kernels, RNG draw
discipline, padding, or experiment plumbing.

After an *intentional* numerics change, regenerate with::

    PYTHONPATH=src python scripts/regen_golden.py

The fixtures are recorded under the ``vectorized`` kernel and equally bind
the ``numba`` kernel (bitwise-equal by contract, see tests/test_kernels.py).
"""

import dataclasses
import json
import pathlib

import pytest

from repro.ablation.presets import ablation_quick_rows
from repro.experiments import (
    Figure3Config,
    Figure3Driver,
    Figure7Config,
    Figure7Driver,
    HeadlineConfig,
    HeadlineDriver,
    InitializerAblationConfig,
    InitializerAblationDriver,
    PauseAblationConfig,
    PauseAblationDriver,
    PipelineStudyConfig,
    PipelineStudyDriver,
    SoftConstraintConfig,
    SoftConstraintDriver,
)
from repro.experiments.driver import run_driver
from repro.experiments.fig6_distributions import Figure6Config, Figure6Driver
from repro.experiments.fig8_tts import Figure8Config, Figure8Driver
from repro.experiments.network_study import NetworkStudyConfig, NetworkStudyDriver
from repro.experiments.snr_study import SNRStudyConfig, SNRStudyDriver
from tests.entry_point_cases import single_entry_point_rows

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def rows_as_payload(rows) -> list:
    """Result rows as JSON-roundtripped dicts (same as regen_golden)."""
    return json.loads(
        json.dumps([row if isinstance(row, dict) else dataclasses.asdict(row) for row in rows])
    )

STUDIES = {
    "ablation_quick": ablation_quick_rows,
    "ablation_quick_initializers": lambda: run_driver(
        InitializerAblationDriver(), InitializerAblationConfig.quick()
    ),
    "constraints_quick": lambda: run_driver(SoftConstraintDriver(), SoftConstraintConfig.quick()),
    # Figure3Config has no quick preset: ``fig3 --quick`` runs the default.
    "fig3_quick": lambda: run_driver(Figure3Driver(), Figure3Config()),
    "fig6_quick": lambda: run_driver(Figure6Driver(), Figure6Config.quick()),
    "fig7_quick": lambda: run_driver(Figure7Driver(), Figure7Config.quick()),
    "fig8_quick": lambda: run_driver(Figure8Driver(), Figure8Config.quick()),
    "headline_quick": lambda: [run_driver(HeadlineDriver(), HeadlineConfig.quick())],
    "network_quick": lambda: run_driver(NetworkStudyDriver(), NetworkStudyConfig.quick()).rows,
    "pause_quick": lambda: run_driver(PauseAblationDriver(), PauseAblationConfig.quick()),
    "pipeline_quick": lambda: [run_driver(PipelineStudyDriver(), PipelineStudyConfig.quick())],
    "single_entry_points": single_entry_point_rows,
    "snr_quick": lambda: run_driver(SNRStudyDriver(), SNRStudyConfig.quick()),
}


def _diff(expected, actual, path, lines):
    """Collect human-readable mismatch lines between two JSON payloads."""
    if type(expected) is not type(actual):
        lines.append(f"  {path}: expected {expected!r}, got {actual!r} (type changed)")
    elif isinstance(expected, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                lines.append(f"  {path}.{key}: unexpected new field {actual[key]!r}")
            elif key not in actual:
                lines.append(f"  {path}.{key}: missing (golden has {expected[key]!r})")
            else:
                _diff(expected[key], actual[key], f"{path}.{key}", lines)
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            lines.append(
                f"  {path}: expected {len(expected)} entries, got {len(actual)}"
            )
        for index, (left, right) in enumerate(zip(expected, actual)):
            _diff(left, right, f"{path}[{index}]", lines)
    elif expected != actual:
        lines.append(f"  {path}: expected {expected!r}, got {actual!r}")


def _row_label(row) -> str:
    """A short identity for one result row, for diff readability."""
    keys = [
        k
        for k in ("case", "modulation", "method", "switch_s", "snr_db", "placement", "point_id")
        if k in row
    ]
    return "/".join(str(row[k]) for k in keys) or "row"


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_quick_study_matches_golden(name):
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing fixture {path.name}; run PYTHONPATH=src python scripts/regen_golden.py"
    )
    golden = json.loads(path.read_text())
    actual = rows_as_payload(STUDIES[name]())

    lines = []
    expected_rows = golden["rows"]
    for index, row in enumerate(expected_rows):
        label = f"{_row_label(row)}"
        if index < len(actual):
            _diff(row, actual[index], label, lines)
        else:
            lines.append(f"  {label}: missing from this run")
    for row in actual[len(expected_rows):]:
        lines.append(f"  {_row_label(row)}: new row not in the golden fixture")

    if lines:
        pytest.fail(
            f"{name} diverged from tests/golden/{name}.json "
            f"({len(lines)} field(s)):\n" + "\n".join(lines) + "\n"
            "If this change is intentional, regenerate with "
            "`PYTHONPATH=src python scripts/regen_golden.py`.",
            pytrace=False,
        )
