"""Regenerate the golden regression fixtures in ``tests/golden/``.

The fixtures freeze the full numeric output of every study in
``tests/golden_studies.py`` under the replica-parallel sweep kernels.
``tests/test_golden_regression.py`` re-runs the same table on every CI run
and fails with a readable field-by-field diff whenever any number moves — so
a change to the kernels, the RNG draw discipline, or the experiment plumbing
cannot silently alter results.

Run from the repository root after an *intentional* numerics change::

    PYTHONPATH=src python scripts/regen_golden.py

Each fixture is reported as ``moved`` (its payload differs from the file on
disk, which is then rewritten) or ``unchanged`` (the file is left alone).
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from tests.golden_studies import STUDIES, rows_as_payload  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, study in STUDIES.items():
        payload = {
            "study": name,
            "kernel": "vectorized",
            "rows": rows_as_payload(study()),
        }
        path = GOLDEN_DIR / f"{name}.json"
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if path.exists() and path.read_text() == text:
            status = "unchanged"
        else:
            status = "moved"
            path.write_text(text)
        print(f"{status:9} {path.relative_to(REPO_ROOT)} ({len(payload['rows'])} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
