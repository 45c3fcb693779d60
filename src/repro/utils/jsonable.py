"""The one JSON reducer for result artifacts.

Benchmark reports (``benchmarks/_emit``) and ablation-study artifacts
(:mod:`repro.ablation.study`) both serialise through :func:`to_jsonable`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

__all__ = ["to_jsonable"]


def to_jsonable(value: Any) -> Any:
    """Reduce result data (dataclasses, numpy, nested containers) to JSON.

    Non-finite floats become strings (JSON has no Inf/NaN) and anything
    unrecognised falls back to ``repr`` — artifact emission must never make a
    run fail.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if hasattr(value, "item") and not hasattr(value, "__len__"):  # numpy scalar
        return to_jsonable(value.item())
    if hasattr(value, "tolist"):  # numpy array
        return to_jsonable(value.tolist())
    return repr(value)
