"""Serving-layer result containers and report formatting.

A serving run produces one :class:`JobOutcome` per submitted job — jobs that
miss their deadline are *counted, never dropped* — and the aggregate
:class:`ServingReport`: throughput, latency percentiles (p50/p95/p99),
deadline-miss rate, demotion rate, batch occupancy and per-backend-worker
utilisation.  These are the quantities the load-sweep study and the serving
benchmark plot against offered load.

Reports also break every latency/miss/demotion statistic down **per service
class** (:class:`ServiceClassReport`): a multi-class run shows whether the
degradation ladder actually protected URLLC while best-effort absorbed the
overload.  Single-class runs compute the breakdown too (one ``default``
entry) but omit it from the formatted text, keeping legacy output
byte-identical.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "JobOutcome",
    "BackendUtilization",
    "ServiceClassReport",
    "ServingReport",
    "format_serving_report",
]


@dataclass(frozen=True, slots=True)
class JobOutcome:
    """Per-job result of one serving simulation.

    Slotted: a run builds one per served job, and slots make each smaller
    and its fields quicker to read than an instance dict would.  It pickles
    positionally (see :meth:`__reduce__`), so loading a cached report calls
    the generated ``__init__`` once per outcome instead of the slotted
    dataclass's field-by-field ``__setstate__``.
    """

    job_id: int
    user_id: int
    cell_id: int
    arrival_us: float
    start_us: float
    finish_us: float
    deadline_us: Optional[float]
    met_deadline: Optional[bool]
    backend: str
    backend_kind: str
    demoted: bool
    batch_size: int
    best_energy: Optional[float] = None
    detected_optimum: Optional[bool] = None
    service_class: str = "default"

    @property
    def latency_us(self) -> float:
        """Arrival-to-completion turnaround."""
        return self.finish_us - self.arrival_us

    def __reduce__(self):
        return JobOutcome, _outcome_fields(self)


#: A slotted dataclass's ``__slots__`` are its fields, in declaration order.
_outcome_fields = operator.attrgetter(*JobOutcome.__slots__)


@dataclass(frozen=True)
class BackendUtilization:
    """Aggregate statistics of one worker in the pool."""

    name: str
    kind: str
    jobs: int
    batches: int
    busy_us: float
    utilization: float
    mean_batch_size: float


@dataclass(frozen=True)
class ServiceClassReport:
    """Per-service-class slice of a serving run's statistics.

    The same definitions as the run-level report, restricted to one class's
    outcomes: percentiles use the conservative ``"higher"`` method and
    ``deadline_miss_rate`` is ``None`` when no job of the class carried a
    deadline.  A class with users but no completed jobs (e.g. a scenario
    phase that starved it) simply has no entry.
    """

    service_class: str
    jobs: int
    mean_latency_us: float
    p50_latency_us: float
    p95_latency_us: float
    p99_latency_us: float
    deadline_miss_rate: Optional[float]
    missed_jobs: int
    demotion_rate: float


@dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one RAN serving simulation run."""

    outcomes: List[JobOutcome]
    policy: str
    makespan_us: float
    offered_load_jobs_per_ms: float
    throughput_jobs_per_ms: float
    mean_latency_us: float
    p50_latency_us: float
    p95_latency_us: float
    p99_latency_us: float
    deadline_miss_rate: Optional[float]
    missed_jobs: int
    demotion_rate: float
    mean_batch_size: float
    max_batch_size: int
    backend_utilization: Tuple[BackendUtilization, ...]
    optimum_rate: Optional[float]
    metadata: Dict = field(default_factory=dict)
    class_reports: Tuple[ServiceClassReport, ...] = ()

    @property
    def num_jobs(self) -> int:
        """Number of jobs processed (every submitted job is accounted for)."""
        return len(self.outcomes)

    def class_report(self, service_class: str) -> Optional[ServiceClassReport]:
        """The named class's slice, or ``None`` if no job of it completed."""
        for entry in self.class_reports:
            if entry.service_class == service_class:
                return entry
        return None


#: Codes of an optional flag (``met_deadline``, ``detected_optimum``);
#: ``None`` is unknown.
_FLAG_CODES = {False: 0, True: 1, None: 2}
_UNKNOWN = 2


def _flag_codes(flags) -> np.ndarray:
    """One ``int8`` code per optional flag."""
    return np.array([_FLAG_CODES[flag] for flag in flags], dtype=np.int8)


def _slice_statistics(latencies: np.ndarray, met: np.ndarray, demoted: np.ndarray) -> Dict:
    """Latency, deadline and demotion statistics of one slice of a run.

    The fields :class:`ServingReport` and :class:`ServiceClassReport`
    share.  Tail percentiles use the conservative ``"higher"`` method: linear
    interpolation on small job counts reports a p95/p99 *below any observed
    job*, understating the tail the deadline analysis cares about;
    ``"higher"`` always returns an actually-observed latency (one call
    selects both order statistics).  ``deadline_miss_rate`` is ``None`` when
    no job of the slice carried a deadline.
    """
    p95, p99 = np.percentile(latencies, [95, 99], method="higher")
    flags = met[met != _UNKNOWN] == 1
    return {
        "mean_latency_us": float(np.mean(latencies)),
        "p50_latency_us": float(np.percentile(latencies, 50)),
        "p95_latency_us": float(p95),
        "p99_latency_us": float(p99),
        "deadline_miss_rate": (1.0 - float(np.mean(flags))) if flags.size else None,
        "missed_jobs": int(np.count_nonzero(~flags)),
        "demotion_rate": float(np.mean(demoted)),
    }


def build_serving_report(
    outcomes: Sequence[JobOutcome],
    policy: str,
    backend_utilization: Sequence[BackendUtilization],
    metadata: Optional[Dict] = None,
) -> ServingReport:
    """Aggregate per-job outcomes into a :class:`ServingReport`.

    Degenerate inputs stay well-defined: an empty outcome list (a run that
    completed no jobs) yields a zeroed report with ``deadline_miss_rate``
    and ``optimum_rate`` of ``None``, and a single job reports its own
    latency at every percentile with an offered load of 0 (a lone arrival
    has no meaningful rate).

    Each column is read off the outcomes once and shared by the run-level
    statistics and the per-class slices, which select their rows in outcome
    order (so every reduction sees the values, in the order, a walk over the
    class's own outcomes would).
    """
    outcomes = list(outcomes)
    if not outcomes:
        return ServingReport(
            outcomes=[],
            policy=policy,
            makespan_us=0.0,
            offered_load_jobs_per_ms=0.0,
            throughput_jobs_per_ms=0.0,
            mean_latency_us=0.0,
            p50_latency_us=0.0,
            p95_latency_us=0.0,
            p99_latency_us=0.0,
            deadline_miss_rate=None,
            missed_jobs=0,
            demotion_rate=0.0,
            mean_batch_size=0.0,
            max_batch_size=0,
            backend_utilization=tuple(backend_utilization),
            optimum_rate=None,
            metadata=dict(metadata or {}),
            class_reports=(),
        )
    arrivals = np.array([o.arrival_us for o in outcomes])
    finishes = [o.finish_us for o in outcomes]
    # finish - arrival per job: JobOutcome.latency_us, as one array subtraction.
    latencies = np.array(finishes) - arrivals
    met = _flag_codes([o.met_deadline for o in outcomes])
    demoted = np.array([o.demoted for o in outcomes])
    classes = [o.service_class for o in outcomes]
    batch_sizes = [o.batch_size for o in outcomes]
    optimum = _flag_codes([o.detected_optimum for o in outcomes])

    makespan = max(float(max(finishes) - arrivals.min()), 1e-9)
    arrival_span = float(arrivals.max() - arrivals.min())
    # A degenerate workload (single job, or all arrivals coincident) has no
    # meaningful rate; report 0 rather than an absurd clamped division.
    offered = len(outcomes) / (arrival_span / 1000.0) if arrival_span > 0.0 else 0.0
    optimum_flags = optimum[optimum != _UNKNOWN] == 1

    names = sorted(set(classes))
    code_of = {name: code for code, name in enumerate(names)}
    codes = np.array([code_of[name] for name in classes])
    class_reports = []
    for code, name in enumerate(names):
        members = codes == code
        class_reports.append(
            ServiceClassReport(
                name,
                int(np.count_nonzero(members)),
                **_slice_statistics(latencies[members], met[members], demoted[members]),
            )
        )
    return ServingReport(
        outcomes=outcomes,
        policy=policy,
        makespan_us=makespan,
        offered_load_jobs_per_ms=float(offered),
        throughput_jobs_per_ms=float(len(outcomes) / (makespan / 1000.0)),
        mean_batch_size=float(np.mean(batch_sizes)),
        max_batch_size=int(max(batch_sizes)),
        backend_utilization=tuple(backend_utilization),
        optimum_rate=float(np.mean(optimum_flags)) if optimum_flags.size else None,
        metadata=dict(metadata or {}),
        class_reports=tuple(class_reports),
        **_slice_statistics(latencies, met, demoted),
    )


def format_serving_report(report: ServingReport, title: str = "RAN serving report") -> str:
    """Render a :class:`ServingReport` as an aligned text table.

    The per-class breakdown is only printed for genuinely multi-class runs
    (any class other than ``default`` present), so single-class output stays
    byte-identical to the pre-QoS format.
    """
    lines = [
        title,
        f"{'policy':>26}  {report.policy}",
        f"{'jobs served':>26}  {report.num_jobs}",
        f"{'offered load (jobs/ms)':>26}  {report.offered_load_jobs_per_ms:.3f}",
        f"{'throughput (jobs/ms)':>26}  {report.throughput_jobs_per_ms:.3f}",
        f"{'mean latency (us)':>26}  {report.mean_latency_us:.1f}",
        f"{'p50 latency (us)':>26}  {report.p50_latency_us:.1f}",
        f"{'p95 latency (us)':>26}  {report.p95_latency_us:.1f}",
        f"{'p99 latency (us)':>26}  {report.p99_latency_us:.1f}",
    ]
    if report.deadline_miss_rate is not None:
        lines.append(
            f"{'deadline miss rate':>26}  {report.deadline_miss_rate:.3f} "
            f"({report.missed_jobs} missed)"
        )
    lines.append(f"{'demotion rate':>26}  {report.demotion_rate:.3f}")
    lines.append(
        f"{'batch occupancy':>26}  mean {report.mean_batch_size:.2f}, "
        f"max {report.max_batch_size}"
    )
    if report.optimum_rate is not None:
        lines.append(f"{'optimum detection rate':>26}  {report.optimum_rate:.3f}")
    if any(entry.service_class != "default" for entry in report.class_reports):
        lines.append(f"{'per-class breakdown':>26}")
        for entry in report.class_reports:
            miss = (
                f"miss={entry.deadline_miss_rate:.3f}"
                if entry.deadline_miss_rate is not None
                else "miss=n/a"
            )
            lines.append(
                f"{entry.service_class:>26}  jobs={entry.jobs:<5d} "
                f"p99={entry.p99_latency_us:<8.1f} {miss:<11} "
                f"demoted={entry.demotion_rate:.3f}"
            )
    lines.append(f"{'per-backend utilisation':>26}")
    for stats in report.backend_utilization:
        lines.append(
            f"{stats.name:>26}  {stats.kind:<9} jobs={stats.jobs:<5d} "
            f"batches={stats.batches:<4d} mean B={stats.mean_batch_size:<5.2f} "
            f"util={stats.utilization:.3f}"
        )
    return "\n".join(lines)
