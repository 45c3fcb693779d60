"""Regenerate the golden regression fixtures in ``tests/golden/``.

The fixtures freeze the full numeric output of the quick experiment
configurations (Figure 6 distributions, Figure 8 TTS sweep, and the SNR/BER
study) under the replica-parallel sweep kernels.  ``tests/test_golden_regression.py``
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

from repro.ablation.presets import ablation_quick_rows  # noqa: E402
from repro.experiments.fig6_distributions import Figure6Config, run_figure6  # noqa: E402
from repro.experiments.fig8_tts import Figure8Config, run_figure8  # noqa: E402
from repro.experiments.network_study import (  # noqa: E402
    NetworkStudyConfig,
    run_network_study,
)
from repro.experiments.snr_study import SNRStudyConfig, run_snr_study  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: Fixture name -> zero-argument callable returning a list of result rows.
STUDIES = {
    "ablation_quick": ablation_quick_rows,
    "fig6_quick": lambda: run_figure6(Figure6Config.quick()),
    "fig8_quick": lambda: run_figure8(Figure8Config.quick()),
    "network_quick": lambda: run_network_study(NetworkStudyConfig.quick()).rows,
    "snr_quick": lambda: run_snr_study(SNRStudyConfig.quick()),
}


def rows_as_payload(rows) -> list:
    """Result dataclasses as plain JSON-compatible dicts (exact floats)."""
    return json.loads(json.dumps([dataclasses.asdict(row) for row in rows]))


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
