"""The benchmark's three workloads: inputs from a seed, one run, output checks.

Each workload is a closed loop with one client and a fixed input size: one
call of :meth:`Workload.run` is one complete pass (the timed unit), and the
next pass starts only after the previous one returned.

* ``ra-sweep`` — the ``fig8`` default preset through ``run_driver``: the
  anneal kernels and SampleSet aggregation do nearly all the work.
* ``qos-day`` — the ``qos`` default preset through ``run_driver``: the
  serving dispatch / admission path does nearly all the work; no kernel runs.
* ``detect-serve`` — the full hybrid plant with solutions evaluated: many
  small kernel calls, so per-call sampler overhead, the MIMO→QUBO transform
  and the classical solvers become visible.

:meth:`Workload.outcome`, outside the timed pass, reduces a result to an
``output_digest`` (a hash of the result rows or job outcomes) and checks it
against the workload's invariants; a speed-only change to the library must
leave both unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Any, Callable, Dict, List, Sequence

from repro.annealing import QuantumAnnealerSimulator
from repro.experiments.driver import run_driver
from repro.experiments.fig8_tts import Figure8Config, Figure8Driver
from repro.experiments.qos_study import QoSStudyConfig, QoSStudyDriver, _qos_jobs
from repro.serving import (
    AnnealerServingBackend,
    BackendPool,
    ClassicalServingBackend,
    RANServingSimulator,
    generate_serving_jobs,
    uniform_cell_profiles,
)
from repro.utils.rng import stable_seed
from repro.wireless import MIMOConfig


@dataclasses.dataclass(frozen=True)
class Outcome:
    """What one pass produced, reduced to what the benchmark reports."""

    #: Hash of the result rows; floats enter through ``repr`` (exact).
    digest: str
    #: Output-check violations; empty when the pass is correct.
    problems: List[str]
    anneal_reads: int
    sim_jobs: int


def digest(rows: Sequence[Any]) -> str:
    """A short hash of dataclass result rows, field by field.

    Rows are hashed one at a time so the check adds no large buffer to the
    run's peak memory.
    """
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(repr(dataclasses.astuple(row)).encode() + b"\n")
    return hasher.hexdigest()[:16]


class Workload:
    """One named workload bound to a seed: ``run()`` executes a full pass."""

    name = ""
    #: The :class:`Outcome` field ``work_per_s`` counts on this workload.
    work_unit = ""
    #: Units one pass attempts (shards, or jobs when the pass is one
    #: simulation); a failed pass fails all of them.
    units = 0

    def run(self) -> Any:
        """One complete pass; returns what :meth:`outcome` needs."""
        raise NotImplementedError

    def outcome(self, result: Any) -> Outcome:
        """Digest and check a pass's result (not timed)."""
        raise NotImplementedError


# --------------------------------------------------------------------- #
# ra-sweep
# --------------------------------------------------------------------- #

_FA_RA_SERIES = ("FA", "RA-greedy", "RA-ground", "RA-intermediate")
#: The FR oracle's turning-point candidates in ``fig8_tts``; the read count
#: rests on them, so the output check fails a run whose FR rows disagree.
_FR_TURNING = (0.45, 0.6, 0.75, 0.9)


class RASweep(Workload):
    """Figure 8 at its default preset: FA / RA family / FR oracle, 10 s_p points."""

    name = "ra-sweep"
    work_unit = "anneal_reads"

    def __init__(self, seed: int) -> None:
        self.config = Figure8Config(base_seed=seed)
        self.driver = Figure8Driver()
        self.units = len(self.driver.tasks(self.config))
        grid = self.config.grid()
        # FA + three RA variants per grid point, plus the FR oracle's turning
        # points (those at or after s_p) per grid point; the oracle yields a
        # row at each s_p with at least one turning point.
        points = len(_FA_RA_SERIES) * len(grid)
        points += sum(1 for s in grid for c in _FR_TURNING if c >= s)
        self.reads = self.config.num_reads * points
        self.fr_grid = sorted(s for s in grid if any(c >= s for c in _FR_TURNING))

    def run(self):
        return run_driver(self.driver, self.config)

    def outcome(self, rows) -> Outcome:
        problems = []
        grid = sorted(self.config.grid())
        for method in _FA_RA_SERIES:
            points = sorted(r.switch_s for r in rows if r.method == method)
            if points != grid:
                problems.append(f"{method} covers s_p {points}, expected {grid}")
        fr_rows = [r for r in rows if r.method == "FR-oracle"]
        if sorted(r.switch_s for r in fr_rows) != self.fr_grid:
            problems.append(f"FR-oracle covers s_p {sorted(r.switch_s for r in fr_rows)}")
        for r in fr_rows:
            if r.turning_s not in _FR_TURNING or r.turning_s < r.switch_s:
                problems.append(f"FR-oracle at s_p={r.switch_s} turned at c_p={r.turning_s}")
        for r in rows:
            if not 0.0 <= r.success_probability <= 1.0:
                problems.append(f"{r.method} p*={r.success_probability} outside [0, 1]")
        if not any(r.success_probability > 0 for r in rows if r.method == "RA-ground"):
            problems.append("RA-ground never reaches the ground state")
        return Outcome(digest(rows), problems, anneal_reads=self.reads, sim_jobs=0)


# --------------------------------------------------------------------- #
# qos-day
# --------------------------------------------------------------------- #


class _ShardKeepingQoSDriver(QoSStudyDriver):
    """The QoS driver, keeping the per-arm shard reports for the output check."""

    def aggregate(self, config, results):
        self.shards = list(results)
        return super().aggregate(config, results)


class QoSDay(Workload):
    """The QoS study's default preset: 3 scenarios x (classless, aware)."""

    name = "qos-day"
    work_unit = "sim_jobs"

    def __init__(self, seed: int) -> None:
        self.config = QoSStudyConfig(base_seed=seed)
        self.driver = _ShardKeepingQoSDriver()
        self.tasks = self.driver.tasks(self.config)
        self.units = len(self.tasks)

    def run(self):
        study = run_driver(self.driver, self.config)
        # Hand the shards to the caller, so the driver keeps no pass alive.
        shards, self.driver.shards = self.driver.shards, None
        return study, shards

    def outcome(self, result) -> Outcome:
        study, shards = result
        problems = []
        if len(shards) != len(self.tasks):
            problems.append(f"{len(shards)} shard reports for {len(self.tasks)} tasks")
        generated: Dict[int, List[int]] = {}
        for task, report in zip(self.tasks, shards):
            _, scenario, arm = task.key
            seed = task.kwargs["workload_seed"]
            if seed not in generated:
                # The job list both arms of the scenario were generated from,
                # rebuilt from the shard's own workload seed.
                _, jobs = _qos_jobs(task.kwargs["config"], scenario, seed)
                generated[seed] = sorted(job.job_id for job in jobs)
            if sorted(o.job_id for o in report.outcomes) != generated[seed]:
                problems.append(f"{scenario}/{arm}: generated jobs not served exactly once")
        outcomes = [o for report in shards for o in report.outcomes]
        return Outcome(
            digest(list(study.rows) + outcomes),
            problems,
            anneal_reads=0,
            sim_jobs=len(outcomes),
        )


# --------------------------------------------------------------------- #
# detect-serve
# --------------------------------------------------------------------- #

#: Reverse-anneal reads per job on the annealer workers.
_DETECT_READS = 50
_DETECT_JOBS_PER_USER = 100


class DetectServe(Workload):
    """The hybrid plant end to end: 900 evaluated jobs, 3 cells, one hotspot.

    Three users per cell (2-user QPSK, 2-user 16-QAM, 4-user 16-QAM), cell 2
    at 3x load, a 120 us symbol period; two reverse-annealing workers (Greedy
    Search initial states) and one simulated-annealing fallback that takes
    the deadline-pressured jobs admission control demotes.
    """

    name = "detect-serve"
    work_unit = "sim_jobs"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.profiles = uniform_cell_profiles(
            num_cells=3,
            users_per_cell=3,
            configs=[MIMOConfig(2, "QPSK"), MIMOConfig(2, "16-QAM"), MIMOConfig(4, "16-QAM")],
            symbol_period_us=120.0,
            turnaround_budget_us=600.0,
            cell_load_factors=[1.0, 1.0, 3.0],
        )
        self.units = _DETECT_JOBS_PER_USER * len(self.profiles)
        sampler = QuantumAnnealerSimulator(seed=stable_seed("perfbench-sampler", seed))
        annealer = AnnealerServingBackend(sampler=sampler, num_reads=_DETECT_READS, lanes=4)
        self.simulator = RANServingSimulator(
            pool=BackendPool([annealer] * 2 + [ClassicalServingBackend()]),
            policy="edf",
            max_batch_size=4,
            evaluate_solutions=True,
        )

    def run(self):
        jobs = generate_serving_jobs(
            self.profiles, _DETECT_JOBS_PER_USER, rng=stable_seed("perfbench-jobs", self.seed)
        )
        return jobs, self.simulator.run(jobs, rng=stable_seed("perfbench-serve", self.seed))

    def outcome(self, result) -> Outcome:
        jobs, report = result
        outcomes = report.outcomes
        problems = []
        if sorted(o.job_id for o in outcomes) != sorted(job.job_id for job in jobs):
            problems.append("jobs and outcomes do not match one to one")
        for o in outcomes:
            if o.demoted and o.backend_kind != "classical":
                problems.append(f"job {o.job_id} demoted onto {o.backend_kind}")
            if o.best_energy is None or not math.isfinite(o.best_energy):
                problems.append(f"job {o.job_id} has no evaluated solution")
        if not any(o.demoted for o in outcomes):
            problems.append("no job was demoted; the classical path went unused")
        annealed = sum(1 for o in outcomes if o.backend_kind == "annealer")
        return Outcome(
            digest(outcomes),
            problems,
            anneal_reads=annealed * _DETECT_READS,
            sim_jobs=len(outcomes),
        )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (RASweep, QoSDay, DetectServe)
}
