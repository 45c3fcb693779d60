"""``build_serving_report`` against a test-side copy of its per-field walks.

The report reads each column off the outcomes once, shares it between the
run-level statistics and the per-class slices, and reduces it with numpy.
The oracle below walks the outcomes once per statistic, through
``JobOutcome.latency_us`` and plain lists, the way the report was first
written; every run-level and per-class field must come out with the same
type and the same bits.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.serving.report import (
    JobOutcome,
    ServiceClassReport,
    build_serving_report,
)


def _oracle_class_reports(outcomes):
    by_class = {}
    for outcome in outcomes:
        by_class.setdefault(outcome.service_class, []).append(outcome)
    reports = []
    for name in sorted(by_class):
        members = by_class[name]
        latencies = np.array([outcome.latency_us for outcome in members])
        flags = [o.met_deadline for o in members if o.met_deadline is not None]
        reports.append(
            ServiceClassReport(
                service_class=name,
                jobs=len(members),
                mean_latency_us=float(np.mean(latencies)),
                p50_latency_us=float(np.percentile(latencies, 50)),
                p95_latency_us=float(np.percentile(latencies, 95, method="higher")),
                p99_latency_us=float(np.percentile(latencies, 99, method="higher")),
                deadline_miss_rate=(1.0 - float(np.mean(flags))) if flags else None,
                missed_jobs=sum(1 for flag in flags if not flag),
                demotion_rate=float(np.mean([o.demoted for o in members])),
            )
        )
    return tuple(reports)


def _oracle_fields(outcomes):
    """The run-level statistics, one walk over the outcomes each."""
    latencies = np.array([outcome.latency_us for outcome in outcomes])
    arrivals = np.array([outcome.arrival_us for outcome in outcomes])
    makespan = max(float(max(o.finish_us for o in outcomes) - arrivals.min()), 1e-9)
    arrival_span = float(arrivals.max() - arrivals.min())
    offered = len(outcomes) / (arrival_span / 1000.0) if arrival_span > 0.0 else 0.0
    deadline_flags = [o.met_deadline for o in outcomes if o.met_deadline is not None]
    optimum_flags = [o.detected_optimum for o in outcomes if o.detected_optimum is not None]
    batch_sizes = [o.batch_size for o in outcomes]
    return {
        "makespan_us": makespan,
        "offered_load_jobs_per_ms": float(offered),
        "throughput_jobs_per_ms": float(len(outcomes) / (makespan / 1000.0)),
        "mean_latency_us": float(np.mean(latencies)),
        "p50_latency_us": float(np.percentile(latencies, 50)),
        "p95_latency_us": float(np.percentile(latencies, 95, method="higher")),
        "p99_latency_us": float(np.percentile(latencies, 99, method="higher")),
        "deadline_miss_rate": (
            (1.0 - float(np.mean(deadline_flags))) if deadline_flags else None
        ),
        "missed_jobs": sum(1 for flag in deadline_flags if not flag),
        "demotion_rate": float(np.mean([o.demoted for o in outcomes])),
        "mean_batch_size": float(np.mean(batch_sizes)),
        "max_batch_size": int(max(batch_sizes)),
        "optimum_rate": float(np.mean(optimum_flags)) if optimum_flags else None,
        "class_reports": _oracle_class_reports(outcomes),
    }


def _random_outcomes(seed, count, classes):
    rng = np.random.default_rng(seed)
    outcomes = []
    for job in range(count):
        arrival = float(rng.integers(0, 40)) * 2.5 if job % 3 else float(rng.random() * 100.0)
        start = arrival + float(rng.random() * 30.0)
        finish = start + float(rng.choice([10.0, 12.5, rng.random() * 80.0]))
        deadline = None if rng.random() < 0.2 else arrival + float(rng.random() * 90.0)
        optimum = [None, True, False][int(rng.integers(0, 3))]
        outcomes.append(
            JobOutcome(
                job,
                int(rng.integers(0, 5)),
                int(rng.integers(0, 3)),
                arrival,
                start,
                finish,
                deadline,
                None if deadline is None else finish <= deadline,
                "annealer#0",
                "annealer",
                bool(rng.random() < 0.3),
                int(rng.integers(1, 5)),
                None if optimum is None else -1.0,
                optimum,
                str(rng.choice(classes)),
            )
        )
    return outcomes


def _typed(value):
    """A comparable (type, bits) form of one report field."""
    if isinstance(value, float):
        return (float, value.hex())
    if isinstance(value, tuple):
        return tuple(_typed(item) for item in value)
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return (type(value), tuple(_typed(getattr(value, f.name)) for f in fields))
    return (type(value), value)


CASES = {
    "single-job": (1, 1, ["default"]),
    "default-class": (2, 40, ["default"]),
    "three-classes": (3, 120, ["urllc", "embb", "best-effort"]),
    "two-classes-small": (4, 5, ["urllc", "embb"]),
    "many": (5, 700, ["urllc", "embb", "mmtc", "default"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_the_per_field_walks(case):
    seed, count, classes = CASES[case]
    outcomes = _random_outcomes(seed, count, classes)
    report = build_serving_report(outcomes, policy="edf", backend_utilization=[])
    expected = _oracle_fields(outcomes)
    for name, value in expected.items():
        assert _typed(getattr(report, name)) == _typed(value), name
    assert report.outcomes == outcomes


def test_no_deadlines_and_no_evaluations():
    outcomes = [
        dataclasses.replace(outcome, deadline_us=None, met_deadline=None, detected_optimum=None)
        for outcome in _random_outcomes(9, 30, ["urllc", "embb"])
    ]
    report = build_serving_report(outcomes, policy="fifo", backend_utilization=[])
    expected = _oracle_fields(outcomes)
    assert report.deadline_miss_rate is None and report.optimum_rate is None
    for name, value in expected.items():
        assert _typed(getattr(report, name)) == _typed(value), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_pickle_round_trip_keeps_every_field(case):
    # Cached serving reports are pickled; outcomes pickle positionally, so
    # the positional order must be the dataclass's field order.
    seed, count, classes = CASES[case]
    outcomes = _random_outcomes(seed, count, classes)
    report = build_serving_report(outcomes, policy="edf", backend_utilization=[])
    loaded = pickle.loads(pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL))
    assert loaded == report
    assert [_typed(outcome) for outcome in loaded.outcomes] == [
        _typed(outcome) for outcome in outcomes
    ]
    names = [field.name for field in dataclasses.fields(JobOutcome)]
    for outcome in outcomes[:3]:
        assert outcome.__reduce__() == (
            JobOutcome,
            tuple(getattr(outcome, name) for name in names),
        )
