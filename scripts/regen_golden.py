"""Regenerate the golden regression fixtures in ``tests/golden/``.

The fixtures freeze the full numeric output of every paper study's quick
configuration (plus the network study and the micro ablation study) under
the replica-parallel sweep kernels; single-result studies (headline,
pipeline) are stored as a one-row list.  ``single_entry_points`` pins one
seeded call of every single-instance hybrid entry point (see
``tests/entry_point_cases.py``).  ``tests/test_golden_regression.py``
re-runs the same configurations on every CI run and fails with a readable
field-by-field diff whenever any number moves — so a change to the kernels,
the RNG draw discipline, or the experiment plumbing cannot silently alter
results.

The fixtures are recorded under the default (``vectorized``) kernel; the
``numba`` kernel is bitwise-identical by contract, so the same fixtures gate
both CI legs.  Run from the repository root after an *intentional*
numerics change::

    PYTHONPATH=src python scripts/regen_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.ablation.presets import ablation_quick_rows  # noqa: E402
from repro.experiments.driver import run_driver  # noqa: E402
from repro.experiments import (  # noqa: E402
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
from repro.experiments.fig6_distributions import Figure6Config, Figure6Driver  # noqa: E402
from repro.experiments.fig8_tts import Figure8Config, Figure8Driver  # noqa: E402
from repro.experiments.network_study import (  # noqa: E402
    NetworkStudyConfig,
    NetworkStudyDriver,
)
from repro.experiments.snr_study import SNRStudyConfig, SNRStudyDriver  # noqa: E402
from tests.entry_point_cases import single_entry_point_rows  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: Fixture name -> zero-argument callable returning a list of result rows.
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


def rows_as_payload(rows) -> list:
    """Result rows (dataclasses or plain dicts) as JSON-compatible dicts (exact floats)."""
    return json.loads(
        json.dumps([row if isinstance(row, dict) else dataclasses.asdict(row) for row in rows])
    )


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, study in STUDIES.items():
        payload = {
            "study": name,
            "kernel": "vectorized",
            "rows": rows_as_payload(study()),
        }
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(REPO_ROOT)} ({len(payload['rows'])} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
