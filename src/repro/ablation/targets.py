"""Ablation targets: every study driver that declares metrics, plus a
synthetic SA HPO sweep.

A spec's ``experiment`` names a driver in :data:`repro.experiments.DRIVERS`
(or ``anneal-hpo``) whose ``metric_names`` is non-empty.  A study point runs
*the same work units* — same functions, same kwargs, same cache
fingerprints — that ``run_driver`` (and so the matching
``repro-experiments`` subcommand) produces, and the rows and metrics come
from the driver's own pure ``aggregate``/``metrics`` pair.  This is what
makes the harness subsume the imperative runs bitwise, and it means the
declarative and imperative paths share one warm cache.  Presets come from ``config_presets`` on the driver's
``config_class``.

``anneal-hpo`` is a self-contained hyper-parameter target (simulated
annealing over a seeded random QUBO) that only the test suite drives: it
exercises the full spec → points → shards → metrics → Pareto path in
milliseconds without touching the MIMO stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments import DRIVERS, ExperimentDriver
from repro.experiments.driver import mean_or_nan
from repro.parallel import ShardTask

__all__ = [
    "AnnealHPOConfig",
    "AnnealHPODriver",
    "AnnealHPORow",
    "sweepable_drivers",
]


# ---------------------------------------------------------------------------
# anneal-hpo — classical SA hyper-parameters on a seeded random QUBO
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnealHPOConfig:
    """Configuration of the synthetic SA hyper-parameter target.

    One fixed random QUBO (selected by ``instance_seed``) is annealed
    ``num_restarts`` times per point; the study's axes typically sweep
    ``num_sweeps`` and ``final_temperature`` against solution energy and
    modelled compute time.  Each restart is one shard with its own explicit
    child seed, so the target shards freely and caches per restart.
    """

    num_variables: int = 12
    density: float = 1.0
    num_sweeps: int = 60
    final_temperature: float = 0.01
    num_restarts: int = 4
    instance_seed: int = 7
    base_seed: int = 0

    @classmethod
    def quick(cls) -> "AnnealHPOConfig":
        """A minimal configuration used by the test suite."""
        return cls(num_variables=6, num_sweeps=12, num_restarts=2)


@dataclass(frozen=True)
class AnnealHPORow:
    """One SA restart of the synthetic HPO target."""

    restart: int
    energy: float
    compute_time_us: float
    sweeps: int


ANNEAL_HPO_METRICS = (
    "best_energy",
    "mean_energy",
    "compute_time_us_mean",
    "sweeps_total",
)


def _anneal_hpo_shard(config: AnnealHPOConfig, restart: int) -> AnnealHPORow:
    """One SA restart (module-level so the process pool can pickle it)."""
    from repro.classical.simulated_annealing import SimulatedAnnealingSolver
    from repro.qubo.generators import random_qubo
    from repro.utils.rng import stable_seed

    qubo = random_qubo(
        config.num_variables,
        density=config.density,
        rng=stable_seed("anneal-hpo-instance", config.instance_seed),
    )
    solver = SimulatedAnnealingSolver(
        num_sweeps=config.num_sweeps, final_temperature=config.final_temperature
    )
    solution = solver.solve(
        qubo, rng=stable_seed("anneal-hpo-restart", config.base_seed, restart)
    )
    return AnnealHPORow(
        restart=restart,
        energy=float(solution.energy),
        compute_time_us=float(solution.compute_time_us),
        sweeps=int(solution.iterations),
    )


class AnnealHPODriver(ExperimentDriver):
    """The synthetic SA sweep: one shard per restart, one row per shard."""

    name = "anneal-hpo"
    metric_names = ANNEAL_HPO_METRICS
    config_class = AnnealHPOConfig

    def tasks(self, config: AnnealHPOConfig) -> List[ShardTask]:
        """One shard per SA restart, each seeded by (base_seed, restart)."""
        return [
            ShardTask(
                key=("anneal-hpo", restart),
                fn=_anneal_hpo_shard,
                kwargs={"config": config, "restart": restart},
            )
            for restart in range(config.num_restarts)
        ]

    def metrics(self, rows: Sequence[AnnealHPORow]) -> Tuple[Tuple[str, float], ...]:
        energies = [row.energy for row in rows]
        return (
            ("best_energy", min(energies) if energies else float("nan")),
            ("mean_energy", mean_or_nan(energies)),
            ("compute_time_us_mean", mean_or_nan([row.compute_time_us for row in rows])),
            ("sweeps_total", float(sum(row.sweeps for row in rows))),
        )


def sweepable_drivers() -> Dict[str, ExperimentDriver]:
    """Every driver a spec's ``experiment`` may name, keyed by name."""
    candidates = (*DRIVERS, AnnealHPODriver())
    return {driver.name: driver for driver in candidates if driver.metric_names}

