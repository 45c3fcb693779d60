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
from collections import Counter

import pytest

from repro.experiments.load_study import LoadStudyConfig, LoadStudyDriver
from repro.experiments.qos_study import QoSStudyDriver
from repro.experiments.robustness_study import (
    ROBUSTNESS_AXES,
    _impairments_for,
)
from repro.experiments.scenario_study import ScenarioStudyDriver
from repro.serving import SCENARIO_NAMES, AutoscaleController, RANServingSimulator
from tests.golden_studies import (
    QOS_STRESS,
    SCENARIOS_STRESS,
    STUDIES,
    rows_as_payload,
    serving_schedule_rows,
)
from tests.serving_invariants import check_serving_invariants, check_work_conservation

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
            "shard", "axis", "case", "modulation", "method", "switch_s", "snr_db", "placement",
            "point_id", "job_id",
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


def test_qos_catalog_golden_pins_misses_and_demotions_in_both_arms():
    """The QoS catalog fixture covers the whole catalog under overload.

    Both arms (classless and class-aware) must miss some deadline and demote
    some job, so the fixture pins the deadline-miss and demotion paths on
    every catalog phase (``scenarios_catalog`` runs below that load).
    """
    rows = json.loads((GOLDEN_DIR / "qos_catalog.json").read_text())["rows"]
    assert sorted({row["scenario"] for row in rows}) == sorted(SCENARIO_NAMES)
    for arm in ("classless", "aware"):
        assert any(row[f"{arm}_miss_rate"] > 0 for row in rows), f"{arm} arm misses nothing"
        assert any(row[f"{arm}_demotion_rate"] > 0 for row in rows), f"{arm} arm demotes nothing"
    for name in SCENARIO_NAMES:
        scenario_rows = [row for row in rows if row["scenario"] == name]
        assert any(row["classless_demotion_rate"] > 0 for row in scenario_rows), name
        assert any(row["aware_demotion_rate"] > 0 for row in scenario_rows), name


def test_robustness_golden_exercises_every_impairment_axis():
    """The robustness fixture pins each axis away from the ideal channel.

    Every axis has a row at a value whose impairments are not the identity,
    and the Doppler rows decode at least two channel uses with a non-zero
    AR(1) coefficient, so the fading process really steps block to block.
    """
    rows = json.loads((GOLDEN_DIR / "robustness_quick.json").read_text())["rows"]
    points = [(row, _impairments_for(row["axis"], row["value"])) for row in rows]
    for axis in ROBUSTNESS_AXES:
        impaired = [row for row, point in points if row["axis"] == axis and not point.is_identity]
        assert impaired, f"no impaired {axis} row in robustness_quick"
    doppler = [row for row, point in points if point.temporal_correlation]
    assert doppler and all(row["channel_uses"] >= 2 for row in doppler)


def test_serving_schedule_goldens_are_not_vacuous(monkeypatch):
    """The serving schedule fixtures keep pinning the paths they exist for.

    Every simulator run behind ``serve_quick``, ``qos_stress`` and
    ``scenarios_stress`` is captured with its workload and checked against
    the serving invariants, and every static-pool run for work conservation.
    Each count below must stay positive, so a later preset edit cannot leave
    a fixture that pins none of them.
    """
    runs = []
    scale_actions = []
    serve = RANServingSimulator.run
    step = AutoscaleController.step

    def capturing_run(self, jobs, rng=None):
        report = serve(self, jobs, rng)
        runs.append((jobs, report))
        return report

    def capturing_step(self, now_us, queue, pool, pressured_count):
        warming = sum(
            1 for worker in pool.annealer_workers
            if worker.active and worker.available_from_us > now_us
        )
        event = step(self, now_us, queue, pool, pressured_count)
        if event is not None:
            scale_actions.append((event.action, warming))
        return event

    monkeypatch.setattr(RANServingSimulator, "run", capturing_run)
    monkeypatch.setattr(AutoscaleController, "step", capturing_step)
    counts = Counter()
    for study, driver, config in (
        ("serve", LoadStudyDriver(), LoadStudyConfig.quick()),
        ("qos", QoSStudyDriver(), QOS_STRESS),
        ("scenarios", ScenarioStudyDriver(), SCENARIOS_STRESS),
    ):
        runs.clear()
        serving_schedule_rows(driver, config)
        counts[f"{study} runs"] = len(runs)
        for jobs, report in runs:
            check_serving_invariants(jobs, report)
            if "autoscale_events" not in report.metadata:
                check_work_conservation(report)
                counts[f"{study} work-conserving runs"] += 1
            if study == "serve":
                continue
            if study == "qos":
                arm = "aware" if report.metadata["class_aware"] else "classless"
                counts["qos handover jobs"] += sum(job.handed_over for job in jobs)
            else:
                arm = "autoscaled" if "autoscale_events" in report.metadata else "static"
            by_id = {job.job_id: job for job in jobs}
            for outcome in report.outcomes:
                counts[f"{study} {arm} misses"] += outcome.met_deadline is False
                if study == "qos":
                    counts[f"qos {arm} demotions"] += outcome.demoted
                    if arm == "aware":
                        counts["qos aware sheddable demotions"] += (
                            outcome.demoted and by_id[outcome.job_id].service_class.sheddable
                        )
    for action, warming in scale_actions:
        counts[f"scenarios {action}"] += 1
        counts["scenarios scaling with a warm-up in flight"] += warming > 0
    expected = [
        "serve runs", "qos runs", "scenarios runs",
        "qos work-conserving runs", "scenarios work-conserving runs",
        "qos classless demotions", "qos aware demotions", "qos aware sheddable demotions",
        "qos classless misses", "qos aware misses", "qos handover jobs",
        "scenarios static misses", "scenarios autoscaled misses",
        "scenarios scale-up", "scenarios scale-down",
        "scenarios scaling with a warm-up in flight",
    ]
    assert all(counts[name] > 0 for name in expected), dict(counts)
