"""The ablation target registry: experiments the harness knows how to sweep.

An :class:`ExperimentTarget` is one experiment driver plus its named
configuration presets.  A study point runs the driver's own ``tasks`` (so
its shards carry the same cache fingerprints as ``run_driver`` on the same
config), ``aggregate`` / ``rows`` and ``metrics`` — nothing is restated.

Targets register by name; the built-in bindings (``fig8``, ``robustness``,
``serve``, ``scenarios``, ``network``, ``qos``, ``anneal-hpo``) load lazily
on first lookup so importing :mod:`repro.ablation` never triggers the
experiment modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "ExperimentTarget",
    "register_target",
    "get_target",
    "available_targets",
]


@dataclass(frozen=True)
class ExperimentTarget:
    """One sweepable experiment, as the harness sees it.

    Attributes
    ----------
    driver:
        The :class:`~repro.experiments.driver.ExperimentDriver` whose
        ``name`` is the registry key (the spec's ``experiment`` value) and
        whose ``tasks`` / ``aggregate`` / ``rows`` / ``metrics`` /
        ``metric_names`` a study point uses.
    presets:
        Maps preset names (``default``/``quick``/``paper``) to zero-argument
        config factories; see :func:`repro.experiments.driver.config_presets`.
    """

    driver: Any
    presets: Mapping[str, Callable[[], Any]]

    @property
    def name(self) -> str:
        """Registry key: the driver's name."""
        return self.driver.name

    def make_config(self, preset: str) -> Any:
        """Instantiate one of the target's preset configurations."""
        try:
            factory = self.presets[preset]
        except KeyError:
            raise ConfigurationError(
                f"experiment {self.name!r} has no preset {preset!r}; presets: "
                + ", ".join(sorted(self.presets))
            ) from None
        return factory()


_REGISTRY: Dict[str, ExperimentTarget] = {}
_builtin_loaded = False


def _ensure_builtin() -> None:
    global _builtin_loaded
    if not _builtin_loaded:
        _builtin_loaded = True
        from repro.ablation import targets

        targets.register_builtin_targets()


def register_target(target: ExperimentTarget, replace: bool = False) -> ExperimentTarget:
    """Register an experiment target; re-registration requires ``replace``."""
    if not isinstance(target, ExperimentTarget):
        raise ConfigurationError(
            f"expected an ExperimentTarget, got {type(target).__name__}"
        )
    if target.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"experiment target {target.name!r} is already registered; pass "
            "replace=True to override it"
        )
    _REGISTRY[target.name] = target
    return target


def get_target(name: str) -> ExperimentTarget:
    """Look up a registered target by its spec ``experiment`` name."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; registered experiments: "
            + ", ".join(sorted(_REGISTRY))
        ) from None


def available_targets() -> Tuple[str, ...]:
    """The registered target names, sorted."""
    _ensure_builtin()
    return tuple(sorted(_REGISTRY))
