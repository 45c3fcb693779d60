"""Shared benchmark artifact emission: text table + machine-readable JSON.

Every benchmark archives its formatted table under ``benchmarks/output/`` so
runs can be diffed by eye; :func:`emit_report` additionally writes a
``<name>.json`` next to each ``<name>.txt`` carrying the structured rows the
table was rendered from, so the nightly workflow uploads trend points the
planned results dashboard can aggregate without re-parsing text tables.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Optional

from repro.utils.jsonable import to_jsonable

ARTIFACT_SCHEMA_VERSION = 1


def emit_report(
    directory: pathlib.Path, name: str, table: str, data: Optional[Any] = None
) -> None:
    """Print ``table``, archive it as ``<name>.txt``, and ``data`` as JSON.

    ``data`` is the benchmark's structured result (rows, series, dataclass
    reports); when omitted only the text artifact is written, so benches
    migrate to structured emission incrementally.
    """
    directory.mkdir(exist_ok=True)
    print()
    print(table)
    (directory / f"{name}.txt").write_text(table + "\n", encoding="utf-8")
    if data is not None:
        payload = {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "benchmark": name,
            "data": to_jsonable(data),
        }
        (directory / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
