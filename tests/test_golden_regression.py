"""Golden regression tests for the quick experiment configurations.

Each fixture in ``tests/golden/`` freezes the exact numeric output of one
study of ``tests/golden_studies.py`` under the replica-parallel kernels.
These tests re-run them and compare every field bitwise, failing with a
readable per-field diff.  They are the tripwire
for unintended numerics changes anywhere in the stack — kernels, RNG draw
discipline, padding, or experiment plumbing.

After an *intentional* numerics change, regenerate with::

    PYTHONPATH=src python scripts/regen_golden.py
"""

import json
import pathlib

import pytest

from tests.golden_studies import STUDIES, rows_as_payload

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def test_every_golden_fixture_has_a_study():
    fixtures = sorted(path.stem for path in GOLDEN_DIR.glob("*.json"))
    assert fixtures == sorted(STUDIES)


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
        for k in (
            "case", "modulation", "method", "switch_s", "snr_db", "placement", "point_id", "job_id"
        )
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


def test_detect_serve_golden_exercises_demotion_and_batching():
    """The evaluated serving golden pins both backends and coalesced batches."""
    rows = json.loads((GOLDEN_DIR / "detect_serve_quick.json").read_text())["rows"]
    assert any(row["demoted"] and row["backend_kind"] == "classical" for row in rows)
    assert any(row["batch_size"] > 1 and row["backend_kind"] == "annealer" for row in rows)
    assert all(row["best_energy"] is not None for row in rows)
