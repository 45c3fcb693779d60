"""The experiment-driver protocol and the one runner every study uses.

Every study is a frozen configuration dataclass plus an
:class:`ExperimentDriver` named after its CLI subcommand:

* :meth:`~ExperimentDriver.tasks` — ``config -> ShardTask list``, the same
  shard list the result cache fingerprints.  A study shards only where a
  one-point run equals the matching slice of the full run; studies whose
  points share one annealer stream are a :class:`SingleShardDriver`;
* :meth:`~ExperimentDriver.aggregate` — ``(config, shard results) -> result``,
  a pure function of its inputs (no telemetry, no logging), so the
  declarative harness can call it per study point.  The default is the
  shard results as a list (one row per shard);
* :meth:`~ExperimentDriver.rows` — the tidy row view of a result (what the
  ablation harness tabulates and the golden fixtures freeze);
* :meth:`~ExperimentDriver.metrics` — scalar summary columns over the rows;
* :meth:`~ExperimentDriver.progress` — the driver's progress-telemetry
  side effects, kept out of :meth:`aggregate` so study points stay silent.

A driver is the whole record of its study: besides the protocol above it
names its ``config_class`` and its CLI ``format_table``, so
:data:`repro.experiments.registry.DRIVERS` is the one study table the CLI builds its
subcommands from and the ablation harness looks a spec's ``experiment`` up
in (every driver that declares ``metric_names`` is an ablation target).

:func:`run_driver` is the only runner: the CLI, benchmarks, examples and
tests call ``run_driver(XDriver(), XConfig)`` directly, so every study gets
``--workers``, the result cache and shard telemetry, and the ablation
harness runs the same driver objects per study point.  Configs validate
themselves in ``__post_init__``, so every entry point rejects a bad config
with the same message.  :func:`config_presets` names the ``default`` /
``quick`` / ``paper`` variants of a config class for the CLI and the harness.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel import ParallelRunner, ResultCache, ShardTask
from repro.telemetry.log import get_logger

_log = get_logger(__name__)

__all__ = [
    "ExperimentDriver",
    "SingleShardDriver",
    "run_driver",
    "config_presets",
    "finite_min_or_nan",
    "mean_or_nan",
]


def finite_min_or_nan(values: Sequence[float]) -> float:
    """Minimum of the finite values, NaN when there are none."""
    finite = [value for value in values if math.isfinite(value)]
    return min(finite) if finite else float("nan")


def mean_or_nan(values: Sequence[float]) -> float:
    """Arithmetic mean, NaN for an empty sequence."""
    return float(np.mean(values)) if len(values) else float("nan")


class ExperimentDriver(ABC):
    """One experiment behind the shared ``tasks / aggregate / metrics`` API.

    Subclasses set :attr:`name`, :attr:`description`, :attr:`metric_names`
    (the declaration-ordered names :meth:`metrics` emits; empty for studies
    the ablation harness does not sweep), :attr:`config_class` and, for CLI
    studies, :attr:`format_table`, and implement :meth:`tasks`.
    """

    #: The CLI subcommand and the ablation spec's ``experiment`` value.
    name: str = ""
    #: One line for ``--help`` and docs.
    description: str = ""
    #: Names :meth:`metrics` emits, in declaration order.
    metric_names: Tuple[str, ...] = ()
    #: The frozen config dataclass; :func:`config_presets` names its variants.
    config_class: type
    #: ``result -> str``: the CLI's table of a result (``staticmethod``-wrapped).
    format_table: Callable[[Any], str]

    @abstractmethod
    def tasks(self, config: Any) -> Sequence[ShardTask]:
        """The experiment's shard list for ``config``, in canonical order."""

    def aggregate(self, config: Any, results: Sequence[Any]) -> Any:
        """Reassemble the experiment's result from shard results.

        Must be a pure function of ``(config, results)`` — no telemetry, no
        logging — so the declarative harness can reuse it per study point.
        The default is one row per shard, in task order.
        """
        return list(results)

    def rows(self, result: Any) -> Sequence[Any]:
        """The tidy row sequence of a result.

        Defaults to ``result.rows`` when the result carries one (the
        ``*StudyResult`` containers) and to the result itself otherwise
        (drivers whose aggregate already is a row list).
        """
        rows = getattr(result, "rows", None)
        if rows is not None:
            return rows
        return list(result)

    def metrics(self, rows: Sequence[Any]) -> Tuple[Tuple[str, float], ...]:
        """Scalar summary metrics over the tidy rows, in declaration order.

        The default is no metrics — only studies the ablation harness
        sweeps need them.
        """
        return ()

    def progress(
        self, config: Any, tasks: Sequence[ShardTask], results: Sequence[Any]
    ) -> None:
        """Emit the driver's progress telemetry after the sharded run.

        Called by :func:`run_driver` with the executed tasks and their
        results in task order; the default emits nothing.
        """
        return None


class SingleShardDriver(ExperimentDriver):
    """A study whose points share one annealer stream, run as one shard.

    Subclasses set :attr:`study` to the module-level ``config -> result``
    function (``staticmethod``-wrapped, so the pool can pickle it by name).
    """

    study: Callable[[Any], Any]

    def tasks(self, config: Any) -> List[ShardTask]:
        return [ShardTask(key=(self.name,), fn=self.study, kwargs={"config": config})]

    def aggregate(self, config: Any, results: Sequence[Any]) -> Any:
        return results[0]


def run_driver(
    driver: ExperimentDriver,
    config: Any,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Any:
    """Execute one experiment driver end to end and return its result.

    ``workers`` shards the driver's task list across a process pool (results
    are bitwise-identical to the serial path at any worker count) and
    ``cache`` reuses shard results across runs — and across the declarative
    harness, which builds the same work units; see :mod:`repro.parallel`.
    """
    tasks: List[ShardTask] = list(driver.tasks(config))
    _log.info(f"{driver.name}.start", shards=len(tasks), workers=workers or 1)
    results = ParallelRunner(workers=workers, cache=cache).run_sharded(tasks)
    driver.progress(config, tasks, results)
    return driver.aggregate(config, results)


def config_presets(config_class: Any) -> Dict[str, Callable[[], Any]]:
    """The named configurations of a config class.

    ``default`` is the class itself; ``quick`` and ``paper`` are its
    ``quick`` / ``paper_scale`` classmethods, present only when the class
    defines them.
    """
    presets: Dict[str, Callable[[], Any]] = {"default": config_class}
    for preset, factory in (("quick", "quick"), ("paper", "paper_scale")):
        if hasattr(config_class, factory):
            presets[preset] = getattr(config_class, factory)
    return presets
