"""Declarative ablation/HPO study specifications and their expansion.

An :class:`AblationSpec` is the whole description of a tradeoff study: which
sweepable experiment to run (see :mod:`repro.ablation.targets`), a preset
plus base-config overrides, the axes to vary, and how the resulting grid is
explored (full cartesian product or a seed-keyed subsample).  The spec is a
frozen value object — :func:`expand_spec` turns it into a deterministic,
de-duplicated tuple of :class:`StudyPoint` work units, and every point owns a
content fingerprint that is

* **injective** — distinct (experiment, preset, base, assignments) tuples
  map to distinct fingerprints (the payload is built from
  :func:`~repro.parallel.cache.canonical_token`, which witnesses values
  exactly), and
* **stable across process restarts** — only SHA-256 over canonical JSON is
  involved, never ``hash()`` or iteration order of user mappings.

Subsampling ranks the full cartesian expansion by the SHA-256 of
``(sample_seed, point fingerprint)`` and keeps the best-ranked points in
expansion order, so the subset is a pure function of the spec: the same seed
always selects the same points, and growing ``sample_count`` only ever adds
points (the k-smallest-rank prefix property the test suite pins down).

The hypothesis suite in ``tests/test_ablation_harness.py`` holds these
properties under randomly generated specs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.parallel.cache import canonical_token
from repro.telemetry.log import get_logger

__all__ = [
    "SPEC_FORMAT_VERSION",
    "STRATEGIES",
    "OBJECTIVE_DIRECTIONS",
    "AblationSpec",
    "StudyPoint",
    "expand_spec",
    "point_fingerprint",
    "compile_config",
]

_log = get_logger(__name__)

#: Bumping re-keys every study point (fingerprint payload layout changes).
SPEC_FORMAT_VERSION = 1

#: How a spec explores its axis grid.
STRATEGIES = ("cartesian", "subsample")

#: Valid optimisation directions of a Pareto objective.
OBJECTIVE_DIRECTIONS = ("min", "max")


def _value_key(value: Any) -> str:
    """A canonical string identity for one axis/base value (for dedup)."""
    return json.dumps(canonical_token(value), sort_keys=True, separators=(",", ":"))


def _freeze(value: Any) -> Any:
    """Recursively turn lists into tuples so spec values are immutable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _as_pairs(value: Any, *, what: str) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a mapping (or pair sequence) into sorted key/value pairs."""
    if isinstance(value, Mapping):
        items = list(value.items())
    elif isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        items = [tuple(item) for item in value]
    else:
        raise ConfigurationError(f"{what} must be a mapping, got {type(value).__name__}")
    pairs = []
    for item in items:
        if len(item) != 2 or not isinstance(item[0], str) or not item[0]:
            raise ConfigurationError(f"{what} entries must be (name, value) pairs, got {item!r}")
        pairs.append((item[0], _freeze(item[1])))
    names = [name for name, _ in pairs]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise ConfigurationError(f"duplicate {what} key(s): {', '.join(sorted(duplicates))}")
    return tuple(sorted(pairs, key=lambda pair: pair[0]))


@dataclass(frozen=True)
class AblationSpec:
    """One declarative ablation/HPO study.

    Attributes
    ----------
    name:
        Human-readable study identity (used in shard logs, telemetry events
        and the artifact filename); not part of point fingerprints, so two
        differently named but otherwise identical specs share cache entries.
    experiment:
        A sweepable experiment: the name of a study driver that declares
        metrics (see :func:`repro.ablation.targets.sweepable_drivers`).
    preset:
        Which of the target's configuration presets seeds the base config
        (``default`` / ``quick`` / ``paper`` where supported).
    base:
        Field overrides applied to the preset config at every point.
        Accepts a mapping; normalised into name-sorted pairs.
    axes:
        The swept fields: each axis maps a config field to the values it
        takes.  Values are de-duplicated (by canonical token, preserving
        author order) at construction, so the cartesian expansion has exactly
        ``prod(len(axis))`` unique points.
    strategy:
        ``"cartesian"`` sweeps the full product grid; ``"subsample"`` keeps a
        deterministic seed-keyed subset of ``sample_count`` points.
    sample_count, sample_seed:
        Subsample size and ranking seed (``subsample`` only).
    budget:
        Optional early-stop budget: at most this many points run, keeping the
        expansion-order prefix; the truncation is logged, never silent.
    metrics:
        Metric selectors restricting the tidy results table; empty keeps every
        metric the target computes.
    objectives:
        ``(metric, direction)`` pairs defining the Pareto front; empty skips
        front computation.
    """

    name: str
    experiment: str
    preset: str = "default"
    base: Tuple[Tuple[str, Any], ...] = ()
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    strategy: str = "cartesian"
    sample_count: Optional[int] = None
    sample_seed: int = 0
    budget: Optional[int] = None
    metrics: Tuple[str, ...] = ()
    objectives: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError("spec key 'name' must be a non-empty string")
        if not isinstance(self.experiment, str) or not self.experiment:
            raise ConfigurationError("spec key 'experiment' must be a non-empty string")
        if not isinstance(self.preset, str) or not self.preset:
            raise ConfigurationError("spec key 'preset' must be a non-empty string")
        object.__setattr__(self, "base", _as_pairs(self.base, what="base"))
        object.__setattr__(self, "axes", self._normalise_axes(self.axes))
        overlap = {name for name, _ in self.base} & {name for name, _ in self.axes}
        if overlap:
            raise ConfigurationError(
                f"key(s) {', '.join(sorted(overlap))} appear in both 'base' and 'axes'; "
                "a field is either fixed or swept, not both"
            )
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; valid strategies: "
                + ", ".join(STRATEGIES)
            )
        if self.strategy == "subsample":
            if self.sample_count is None or int(self.sample_count) < 1:
                raise ConfigurationError(
                    "strategy 'subsample' requires a positive 'sample_count', "
                    f"got {self.sample_count!r}"
                )
            object.__setattr__(self, "sample_count", int(self.sample_count))
        elif self.sample_count is not None:
            raise ConfigurationError(
                "spec key 'sample_count' is only valid with strategy 'subsample'"
            )
        if not isinstance(self.sample_seed, int) or isinstance(self.sample_seed, bool):
            raise ConfigurationError(
                f"spec key 'sample_seed' must be an integer, got {self.sample_seed!r}"
            )
        if self.budget is not None:
            if not isinstance(self.budget, int) or isinstance(self.budget, bool) or self.budget < 1:
                raise ConfigurationError(
                    f"spec key 'budget' must be a positive integer, got {self.budget!r}"
                )
        metrics = tuple(self.metrics)
        for metric in metrics:
            if not isinstance(metric, str) or not metric:
                raise ConfigurationError(
                    f"spec key 'metrics' must list metric names, got {metric!r}"
                )
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "objectives", self._normalise_objectives(self.objectives))

    @staticmethod
    def _normalise_axes(axes: Any) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
        normalised = []
        for axis, values in _as_pairs(axes, what="axes"):
            if not isinstance(values, tuple):
                raise ConfigurationError(
                    f"axis {axis!r} must map to a sequence of values, got {values!r}"
                )
            if not values:
                raise ConfigurationError(f"axis {axis!r} has no values")
            deduped: List[Any] = []
            seen = set()
            for value in values:
                key = _value_key(value)
                if key not in seen:
                    seen.add(key)
                    deduped.append(value)
            normalised.append((axis, tuple(deduped)))
        return tuple(normalised)

    @staticmethod
    def _normalise_objectives(objectives: Any) -> Tuple[Tuple[str, str], ...]:
        normalised = []
        for entry in tuple(objectives):
            if isinstance(entry, Mapping):
                entry = (entry.get("metric"), entry.get("direction", "min"))
            entry = tuple(entry) if isinstance(entry, (list, tuple)) else (entry,)
            if len(entry) != 2 or not isinstance(entry[0], str) or not entry[0]:
                raise ConfigurationError(
                    "spec key 'objectives' must list (metric, direction) pairs, "
                    f"got {entry!r}"
                )
            metric, direction = entry
            if direction not in OBJECTIVE_DIRECTIONS:
                raise ConfigurationError(
                    f"objective {metric!r} has unknown direction {direction!r}; "
                    "valid directions: " + ", ".join(OBJECTIVE_DIRECTIONS)
                )
            normalised.append((metric, direction))
        return tuple(normalised)

    def axis_names(self) -> Tuple[str, ...]:
        """The swept field names, in expansion (name-sorted) order."""
        return tuple(name for name, _ in self.axes)

    def num_cartesian_points(self) -> int:
        """Size of the full product grid (before subsampling/budget)."""
        count = 1
        for _, values in self.axes:
            count *= len(values)
        return count


@dataclass(frozen=True)
class StudyPoint:
    """One expanded study point: an assignment of every axis to one value.

    ``index`` is the point's position in the full cartesian expansion (stable
    under subsampling and budget truncation, so a point keeps its identity
    when the exploration strategy changes); ``fingerprint`` is the SHA-256
    content address of (experiment, preset, base, assignments).
    """

    index: int
    assignments: Tuple[Tuple[str, Any], ...]
    fingerprint: str

    @property
    def point_id(self) -> str:
        """Short fingerprint prefix used in tables, keys and telemetry."""
        return self.fingerprint[:12]


def point_fingerprint(spec: AblationSpec, assignments: Mapping[str, Any]) -> str:
    """The stable content address of one study point.

    Built from :func:`~repro.parallel.cache.canonical_token` over canonical
    JSON, so it is injective on distinct points, independent of mapping
    iteration order, and identical across process restarts.  The spec's
    ``name`` is deliberately excluded: renaming a study must not re-key its
    points.
    """
    payload = {
        "version": SPEC_FORMAT_VERSION,
        "experiment": spec.experiment,
        "preset": spec.preset,
        "base": canonical_token(dict(spec.base)),
        "assignments": canonical_token(dict(assignments)),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sample_rank(spec: AblationSpec, fingerprint: str) -> str:
    """The subsample ranking key of one point (seed-keyed, deterministic)."""
    text = f"{int(spec.sample_seed)}:{fingerprint}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expand_spec(spec: AblationSpec) -> Tuple[StudyPoint, ...]:
    """Expand a spec into its deterministic, de-duplicated study points.

    Cartesian expansion iterates axes in name-sorted order (the last-sorted
    axis varies fastest) over the per-axis de-duplicated values, so the
    result has exactly ``spec.num_cartesian_points()`` points and the same
    spec always expands to the same tuple, in the same order.  Subsampling
    keeps the ``sample_count`` best-ranked points (see :func:`_sample_rank`)
    in expansion order; a ``budget`` keeps the order prefix and logs what was
    dropped.
    """
    names = spec.axis_names()
    grids = [values for _, values in spec.axes]
    points: List[StudyPoint] = []
    seen: dict = {}
    for index, combo in enumerate(itertools.product(*grids)):
        assignments = tuple(zip(names, combo))
        fingerprint = point_fingerprint(spec, dict(assignments))
        if fingerprint in seen:
            raise ConfigurationError(
                f"point fingerprint collision between assignments "
                f"{seen[fingerprint]!r} and {dict(assignments)!r} in study "
                f"{spec.name!r}; this indicates a canonicalisation bug"
            )
        seen[fingerprint] = dict(assignments)
        points.append(StudyPoint(index=index, assignments=assignments, fingerprint=fingerprint))

    if spec.strategy == "subsample" and spec.sample_count is not None:
        count = min(spec.sample_count, len(points))
        ranked = sorted(points, key=lambda point: _sample_rank(spec, point.fingerprint))
        keep = {point.index for point in ranked[:count]}
        points = [point for point in points if point.index in keep]

    if spec.budget is not None and len(points) > spec.budget:
        dropped = len(points) - spec.budget
        points = points[: spec.budget]
        _log.info(
            "ablation.budget_truncated",
            study=spec.name,
            kept=len(points),
            dropped=dropped,
        )
    return tuple(points)


def _coerce_like(current: Any, value: Any, key: str) -> Any:
    """Coerce a spec value to the shape of the config field it replaces.

    Spec files are TOML/JSON, whose types are looser than the config
    dataclasses': integers stand in for floats, arrays for tuples.  Coercion
    follows the *current* field value's type so e.g. ``snr_db = 14`` and
    ``snr_db = 14.0`` compile to the same config (and therefore the same
    shard fingerprints).  Mismatches that would silently change meaning
    (a string for a number, a fractional float for an int) are rejected.
    """
    if value is None:
        # Optional fields: None always means "disabled", whatever the
        # field's populated type is.
        return None
    if isinstance(current, bool):
        if isinstance(value, bool):
            return value
        raise ConfigurationError(f"config field {key!r} expects a boolean, got {value!r}")
    if isinstance(current, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigurationError(f"config field {key!r} expects a number, got {value!r}")
    if isinstance(current, int):
        if isinstance(value, int) and not isinstance(value, bool):
            return int(value)
        if isinstance(value, float) and float(value).is_integer():
            return int(value)
        raise ConfigurationError(f"config field {key!r} expects an integer, got {value!r}")
    if isinstance(current, str):
        if isinstance(value, str):
            return value
        raise ConfigurationError(f"config field {key!r} expects a string, got {value!r}")
    if isinstance(current, tuple):
        if isinstance(value, (list, tuple)):
            return _freeze(value)
        raise ConfigurationError(f"config field {key!r} expects a sequence, got {value!r}")
    # Optional fields currently None (and anything exotic) pass through,
    # list-to-tuple frozen so frozen configs stay hashable.
    return _freeze(value)


def compile_config(spec: AblationSpec, point: StudyPoint, base_config: Any) -> Any:
    """Compile one study point into its per-point-restricted config.

    Applies the spec's base overrides and the point's axis assignments onto
    ``base_config`` via ``dataclasses.replace``, so a point's config carries
    exactly its own coordinates: editing one axis value re-keys (and
    therefore recomputes) only the points that use it, every other point's
    shard fingerprints are untouched.
    """
    valid = {field.name for field in dataclasses.fields(base_config)}
    overrides = {}
    for key, value in (*spec.base, *point.assignments):
        if key not in valid:
            raise ConfigurationError(
                f"unknown config field {key!r} for experiment {spec.experiment!r}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        overrides[key] = _coerce_like(getattr(base_config, key), value, key)
    return dataclasses.replace(base_config, **overrides)
