"""Tests for the repro.telemetry subsystem.

The subsystem's contract, in order of importance:

1. **Bitwise invariance** — enabling telemetry changes *no* experiment
   output: the golden quick studies and the annealing kernels produce
   bitwise-identical results with telemetry on and off.
2. **Disabled is a no-op** — ``telemetry.active()`` is ``None`` by default
   and every instrumented call site is guarded on it.
3. The trace a run records is *faithful*: per-job serving spans reconstruct
   the report's latency percentiles; counters match the cache's own
   bookkeeping; exporters round-trip.
"""

import dataclasses
import json
import logging
import math

import numpy as np
import pytest

import repro.cli as cli
from repro import telemetry
from repro.annealing import kernels
from repro.exceptions import ConfigurationError
from repro.parallel import ParallelRunner, ResultCache, ShardTask
from repro.serving import (
    AnnealerServingBackend,
    BackendPool,
    RANServingSimulator,
    generate_serving_jobs,
    uniform_cell_profiles,
)
from repro.telemetry import exporters
from repro.telemetry.log import configure_logging, get_logger
from repro.utils.rng import spawn_rngs
from repro.wireless.mimo import MIMOConfig


@pytest.fixture(autouse=True)
def _telemetry_disabled():
    """Telemetry is process-global state; every test starts and ends clean."""
    telemetry.disable()
    yield
    telemetry.disable()


def _draw(seed, count=4):
    return np.random.default_rng(seed).random(count)


def _spans_named(tracer, name):
    """Every buffered record of ``tracer`` with the given name, in recording order."""
    return [span for span in tracer.records if span.name == name]


# ---------------------------------------------------------------------- #
# Metrics registry
# ---------------------------------------------------------------------- #


class TestRegistry:
    def test_counter_get_or_create_and_labels(self):
        registry = telemetry.MetricsRegistry()
        registry.counter("repro_jobs_total", policy="edf").inc()
        registry.counter("repro_jobs_total", policy="edf").inc(2.0)
        registry.counter("repro_jobs_total", policy="fifo").inc()
        assert registry.counter("repro_jobs_total", policy="edf").value == 3.0
        assert registry.counter("repro_jobs_total", policy="fifo").value == 1.0
        assert len(registry) == 2

    def test_counter_rejects_decrease(self):
        with pytest.raises(ConfigurationError):
            telemetry.MetricsRegistry().counter("c").inc(-1.0)

    def test_gauge_moves_both_ways(self):
        gauge = telemetry.MetricsRegistry().gauge("depth")
        gauge.set(5.0)
        gauge.inc()
        assert gauge.value == 6.0
        gauge.inc(-3.0)
        assert gauge.value == 3.0

    def test_kind_conflict_is_an_error(self):
        registry = telemetry.MetricsRegistry()
        registry.counter("metric_x")
        with pytest.raises(ConfigurationError):
            registry.gauge("metric_x")

    def test_histogram_value_on_edge_lands_in_that_bucket(self):
        # Prometheus `le` semantics: le means less-than-OR-EQUAL, so an
        # observation exactly on an edge belongs to that edge's bucket.
        histogram = telemetry.Histogram("h", (), (10.0, 20.0))
        histogram.observe(10.0)   # == first edge -> bucket 0
        histogram.observe(10.5)   # bucket 1
        histogram.observe(20.0)   # == second edge -> bucket 1
        histogram.observe(99.0)   # +Inf bucket
        assert histogram.bucket_counts == [1, 2, 1]
        assert histogram.cumulative_counts() == [1, 3, 4]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(139.5)

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ConfigurationError):
            telemetry.Histogram("empty", (), ())
        with pytest.raises(ConfigurationError):
            telemetry.Histogram("unsorted", (), (2.0, 1.0))

    def test_default_edges_are_the_latency_ladder(self):
        histogram = telemetry.MetricsRegistry().histogram("latency_us")
        assert histogram.edges == telemetry.DEFAULT_LATENCY_BUCKETS_US

    def test_snapshot_shape(self):
        registry = telemetry.MetricsRegistry()
        registry.counter("jobs", policy="edf").inc(4)
        registry.histogram("lat").observe(0.5)
        view = registry.snapshot()
        assert view["jobs"]["kind"] == "counter"
        assert view["jobs"]["samples"]["policy=edf"] == 4.0
        buckets = view["lat"]["samples"][""]["buckets"]
        assert list(buckets) == [str(e) for e in telemetry.DEFAULT_LATENCY_BUCKETS_US] + ["+Inf"]
        assert set(buckets.values()) == {1}


# ---------------------------------------------------------------------- #
# Tracer
# ---------------------------------------------------------------------- #


class TestTracer:
    def test_record_span_sim_clock(self):
        tracer = telemetry.Tracer()
        span_id = tracer.record_span("job", 10.0, 35.0, job_id=7)
        (span,) = _spans_named(tracer, "job")
        assert (span.span_id, span.parent_id) == (span_id, None)
        assert span.clock == telemetry.CLOCK_SIM
        assert span.duration_us == pytest.approx(25.0)
        assert span.attrs == {"job_id": 7}

    def test_rejects_unknown_clock(self):
        with pytest.raises(ConfigurationError, match="clock must be one of"):
            telemetry.Tracer().record_span("x", 0.0, 1.0, clock="cpu")

    def test_context_spans_nest_and_parents_precede_children(self):
        tracer = telemetry.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("tick")
        outer, inner, tick = tracer.records
        assert inner.parent_id == outer.span_id
        assert tick.parent_id == inner.span_id  # events auto-parent to stack top
        assert tick.kind == "event" and tick.duration_us == 0.0
        # Buffer order: parent admitted before child.
        assert [r.name for r in tracer.records] == ["outer", "inner", "tick"]
        assert outer.end_us >= inner.end_us >= inner.start_us >= outer.start_us

    def test_span_attrs_may_be_added_in_the_body(self):
        tracer = telemetry.Tracer()
        with tracer.span("work") as span:
            span.attrs["rows"] = 12
        assert tracer.records[0].attrs["rows"] == 12

    def test_bounded_buffer_drops_newest(self):
        tracer = telemetry.Tracer(max_records=2)
        for index in range(5):
            tracer.record_span(f"s{index}", 0.0, 1.0)
        assert [span.name for span in tracer.records] == ["s0", "s1"]
        assert tracer.dropped == 3
        with pytest.raises(ConfigurationError, match="max_records must be positive, got 0"):
            telemetry.Tracer(max_records=0)

    def test_sim_event_keeps_explicit_time(self):
        tracer = telemetry.Tracer()
        tracer.event("autoscale", time_us=125.0, clock=telemetry.CLOCK_SIM, action="grow")
        (event,) = tracer.records
        assert (event.start_us, event.end_us) == (125.0, 125.0)
        assert event.clock == telemetry.CLOCK_SIM


# ---------------------------------------------------------------------- #
# Session lifecycle (disabled must be a no-op)
# ---------------------------------------------------------------------- #


class TestSession:
    def test_disabled_by_default(self):
        assert telemetry.active() is None
        telemetry.emit_progress("study", 1.0)  # must not raise

    def test_enable_is_idempotent_and_disable_returns_final(self):
        first = telemetry.enable()
        first.registry.counter("c").inc()
        assert telemetry.enable() is first
        final = telemetry.disable()
        assert final is first
        assert telemetry.active() is None
        assert telemetry.disable() is None

    def test_session_scope_and_reuse(self):
        with telemetry.session() as tel:
            assert telemetry.active() is tel
            with telemetry.session() as inner:  # nested: reuses, keeps alive
                assert inner is tel
            assert telemetry.active() is tel
        assert telemetry.active() is None

    def test_run_indices_are_deterministic(self):
        session = telemetry.TelemetrySession()
        assert [session.next_run_index() for _ in range(3)] == [0, 1, 2]

    def test_emit_progress_records_event(self):
        with telemetry.session() as tel:
            telemetry.emit_progress("snr-study", 4.0, hybrid_ber=0.1)
            (event,) = _spans_named(tel.tracer, "experiment.point")
            assert event.attrs == {
                "experiment": "snr-study", "point": "4.0", "hybrid_ber": 0.1,
            }


# ---------------------------------------------------------------------- #
# Exporters
# ---------------------------------------------------------------------- #


class TestJsonlTrace:
    def _tracer(self):
        tracer = telemetry.Tracer()
        parent = tracer.record_span("serving.job", 0.0, 100.0, job_id=1)
        tracer.record_span("serving.solve", 40.0, 100.0, parent_id=parent)
        tracer.event("serving.demotion", time_us=40.0, clock="sim", job_id=1)
        return tracer

    def test_round_trip_and_validation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = exporters.write_trace_jsonl(self._tracer(), path)
        assert written == 3
        records = list(exporters.iter_trace_records(path))
        assert records[0]["kind"] == "meta"
        assert records[0]["schema_version"] == exporters.TRACE_SCHEMA_VERSION
        assert records[0]["records"] == 3 and records[0]["dropped"] == 0
        assert [r["name"] for r in records[1:]] == [
            "serving.job", "serving.solve", "serving.demotion",
        ]
        assert records[2]["parent"] == records[1]["id"]
        counts = exporters.validate_trace_file(path)
        assert counts == {"meta": 1, "span": 2, "event": 1}

    def test_non_jsonable_attrs_degrade_to_repr(self, tmp_path):
        tracer = telemetry.Tracer()
        tracer.record_span(
            "s", 0.0, 1.0, arr=np.arange(2), nested={"k": (1, 2)}, inf=math.inf, obj=object()
        )
        path = tmp_path / "trace.jsonl"
        exporters.write_trace_jsonl(tracer, path)
        (_, record) = exporters.iter_trace_records(path)
        assert record["attrs"]["nested"] == {"k": [1, 2]}
        assert record["attrs"]["arr"] == [0, 1]
        assert record["attrs"]["inf"] == "inf"  # JSON has no Infinity
        assert isinstance(record["attrs"]["obj"], str)  # repr fallback

    @pytest.mark.parametrize(
        "record, reason",
        [
            ([], "must be an object"),
            ({"kind": "mystery"}, "kind"),
            ({"kind": "meta", "schema_version": 99}, "schema_version"),
            (
                {"kind": "span", "id": 1, "name": "x", "clock": "sim",
                 "start_us": 5.0, "end_us": 1.0, "duration_us": -4.0, "attrs": {}},
                "precedes",
            ),
            (
                {"kind": "span", "id": 1, "name": "x", "clock": "cpu",
                 "start_us": 0.0, "end_us": 1.0, "duration_us": 1.0, "attrs": {}},
                "clock",
            ),
            (
                {"kind": "event", "id": 1, "name": "x", "clock": "sim",
                 "start_us": 0.0, "end_us": 3.0, "duration_us": 3.0, "attrs": {}},
                "zero duration",
            ),
            (
                {"kind": "span", "id": 1, "name": "x", "clock": "sim", "parent": None,
                 "start_us": 0.0, "end_us": float("nan"), "duration_us": 0.0,
                 "attrs": {}},
                "finite",
            ),
        ],
    )
    def test_schema_violations(self, record, reason):
        with pytest.raises(ValueError, match=reason):
            exporters.validate_trace_record(record)

    def test_file_must_lead_with_meta(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporters.write_trace_jsonl(self._tracer(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:] + lines[:1]) + "\n")
        with pytest.raises(ValueError, match="meta"):
            exporters.validate_trace_file(path)


class TestPrometheus:
    def test_text_round_trip(self):
        registry = telemetry.MetricsRegistry()
        registry.counter("repro_jobs_total", policy="edf").inc(7)
        registry.gauge("repro_queue_depth").set(3.5)
        histogram = registry.histogram("repro_latency_us")
        for value in (5.0, 100.0, 500.0, 1e6):
            histogram.observe(value)

        text = exporters.prometheus_text(registry)
        assert "# TYPE repro_jobs_total counter" in text
        assert "# TYPE repro_latency_us histogram" in text

        parsed = exporters.parse_prometheus_text(text)
        assert parsed["repro_jobs_total"][(("policy", "edf"),)] == 7.0
        assert parsed["repro_queue_depth"][()] == 3.5
        buckets = parsed["repro_latency_us_bucket"]
        assert buckets[(("le", "100"),)] == 2.0       # le is cumulative, 100.0 included
        assert buckets[(("le", "500"),)] == 3.0
        assert buckets[(("le", "+Inf"),)] == 4.0
        assert parsed["repro_latency_us_sum"][()] == pytest.approx(1_000_605.0)
        assert parsed["repro_latency_us_count"][()] == 4.0

    def test_label_values_with_commas_and_quotes(self):
        registry = telemetry.MetricsRegistry()
        registry.counter("c", key='a,"b"').inc()
        parsed = exporters.parse_prometheus_text(exporters.prometheus_text(registry))
        assert parsed["c"][(("key", 'a,"b"'),)] == 1.0


class TestRunSummary:
    def _records(self):
        tracer = telemetry.Tracer()
        for index in range(10):
            tracer.record_span("serving.solve", 0.0, 10.0 * (index + 1))
        tracer.event("experiment.point", time_us=0.0, clock="sim", point="1")
        return [exporters.span_to_record(span) for span in tracer.records]

    def test_summarize_percentiles(self):
        summary = exporters.summarize_spans(self._records())
        row = summary["serving.solve"]
        assert row["count"] == 10
        assert row["p50_us"] == 50.0   # nearest-rank on 10..100
        assert row["p95_us"] == 100.0
        assert row["max_us"] == 100.0
        assert row["mean_us"] == pytest.approx(55.0)

    def test_format_contains_stages_events_and_counters(self):
        registry = telemetry.MetricsRegistry()
        registry.counter("repro_jobs_total").inc(3)
        text = exporters.format_run_summary(
            self._records(), metrics_text=exporters.prometheus_text(registry), top=2
        )
        assert "serving.solve" in text
        assert "Top 2 slowest spans:" in text
        assert "experiment.point x1" in text
        assert "repro_jobs_total = 3" in text

    def test_empty_trace_renders(self):
        assert "No spans recorded." in exporters.format_run_summary([])


# ---------------------------------------------------------------------- #
# Structured logging
# ---------------------------------------------------------------------- #


class TestLogging:
    def test_event_key_value_rendering(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.unit"):
            get_logger("unit").info("cache.evict", key="a b", count=2, rate=0.25)
        (record,) = caplog.records
        assert record.name == "repro.unit"
        assert record.message == 'cache.evict key="a b" count=2 rate=0.25'

    def test_verbosity_levels(self):
        root = logging.getLogger("repro")
        try:
            for verbosity, level in ((-1, logging.ERROR), (0, logging.WARNING),
                                     (1, logging.INFO), (2, logging.DEBUG)):
                configure_logging(verbosity)
                assert root.level == level
            # Re-configuring replaces the handler rather than stacking one.
            handlers = [h for h in root.handlers
                        if getattr(h, "_repro_telemetry_handler", False)]
            assert len(handlers) == 1
        finally:
            for handler in list(root.handlers):
                if getattr(handler, "_repro_telemetry_handler", False):
                    root.removeHandler(handler)
            # configure_logging stops propagation (it installs its own
            # handler); restore it so caplog keeps working in later tests.
            root.propagate = True
            root.setLevel(logging.NOTSET)


# ---------------------------------------------------------------------- #
# Bitwise invariance: telemetry can never change results
# ---------------------------------------------------------------------- #


class TestBitwiseInvariance:
    def test_kernel_results_identical_with_telemetry_on(self):
        def run_sa():
            rng = np.random.default_rng(2)
            n = 8
            fields = rng.normal(size=(1, n))
            upper = np.triu(rng.normal(size=(n, n)), 1)
            symmetric = (upper + upper.T)[None]
            children = spawn_rngs(13, 1)
            spins = np.ascontiguousarray(
                children[0].choice([-1.0, 1.0], size=(16, n)).T
            )[None]
            local = kernels.initial_local_fields(fields, symmetric, spins)
            energies = np.zeros((1, 16))
            kernels.sa_sweeps(
                spins, local, symmetric, np.array([n]), children,
                np.full((6, 1), 0.55),
                energies=energies, best_spins=spins.copy(), best_energies=energies.copy(),
            )
            return spins, local

        baseline_spins, baseline_local = run_sa()
        with telemetry.session() as tel:
            traced_spins, traced_local = run_sa()
            assert _spans_named(tel.tracer, "kernel.sa")  # it *was* instrumented
        np.testing.assert_array_equal(baseline_spins, traced_spins)
        np.testing.assert_array_equal(baseline_local, traced_local)

    @pytest.mark.parametrize("name", ["fig6_quick", "fig8_quick", "snr_quick"])
    def test_golden_studies_identical_with_telemetry_on(self, name):
        from tests.test_golden_regression import GOLDEN_DIR, STUDIES, rows_as_payload

        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        with telemetry.session():
            actual = rows_as_payload(STUDIES[name]())
        assert actual == golden["rows"], (
            f"{name} changed under telemetry — instrumentation touched the numerics"
        )


# ---------------------------------------------------------------------- #
# Serving instrumentation
# ---------------------------------------------------------------------- #


def _serving_jobs(jobs_per_user=6):
    profiles = uniform_cell_profiles(
        num_cells=2,
        users_per_cell=2,
        configs=[MIMOConfig(2, "QPSK"), MIMOConfig(2, "16-QAM")],
        symbol_period_us=150.0,
        turnaround_budget_us=700.0,
    )
    return generate_serving_jobs(profiles, jobs_per_user=jobs_per_user, rng=5)


class TestServingInstrumentation:
    def test_job_spans_reconstruct_report_percentiles(self):
        jobs = _serving_jobs()
        simulator = RANServingSimulator(
            pool=BackendPool([AnnealerServingBackend(num_reads=20)]),
            policy="edf",
            admission_control=False,
        )
        with telemetry.session() as tel:
            report = simulator.run(jobs)
            job_spans = _spans_named(tel.tracer, "serving.job")
            queue_spans = _spans_named(tel.tracer, "serving.queue")
            solve_spans = _spans_named(tel.tracer, "serving.solve")

        assert len(job_spans) == report.num_jobs == len(jobs)
        # Every job span splits exactly into its queue + solve children.
        children = {span.parent_id: span for span in queue_spans}
        solves = {span.parent_id: span for span in solve_spans}
        for span in job_spans:
            queue, solve = children[span.span_id], solves[span.span_id]
            assert queue.start_us == span.start_us
            assert queue.end_us == solve.start_us
            assert solve.end_us == span.end_us

        # The trace reconstructs the report's percentiles (the acceptance
        # criterion): same estimators as build_serving_report.
        latencies = np.array(sorted(span.duration_us for span in job_spans))
        assert float(np.percentile(latencies, 50)) == pytest.approx(
            report.p50_latency_us
        )
        assert float(
            np.percentile(latencies, 95, method="higher")
        ) == pytest.approx(report.p95_latency_us)

        # The run-level event carries the same numbers.
        (run_event,) = _spans_named(tel.tracer, "serving.run")
        assert run_event.attrs["jobs"] == report.num_jobs
        assert run_event.attrs["p50_latency_us"] == pytest.approx(report.p50_latency_us)
        assert run_event.attrs["p95_latency_us"] == pytest.approx(report.p95_latency_us)

        # Counters and the latency histogram agree with the report.
        jobs_counter = tel.registry.counter("repro_serving_jobs_total", policy="edf")
        assert jobs_counter.value == report.num_jobs
        histogram = tel.registry.histogram("repro_serving_latency_us", policy="edf")
        assert histogram.count == report.num_jobs
        assert histogram.sum == pytest.approx(float(latencies.sum()))

    def test_run_results_identical_with_telemetry_on(self):
        jobs = _serving_jobs()

        def run():
            return RANServingSimulator(
                pool=BackendPool([AnnealerServingBackend(num_reads=20)]),
                policy="edf",
            ).run(jobs)

        baseline = run()
        with telemetry.session():
            traced = run()
        assert [o.finish_us for o in baseline.outcomes] == [
            o.finish_us for o in traced.outcomes
        ]
        assert dataclasses.asdict(baseline) == dataclasses.asdict(traced)


# ---------------------------------------------------------------------- #
# Parallel runner and cache instrumentation
# ---------------------------------------------------------------------- #


class TestParallelInstrumentation:
    def _tasks(self, seeds):
        return [
            ShardTask(key=("draw", seed), fn=_draw, kwargs={"seed": seed})
            for seed in seeds
        ]

    def test_cache_counters_and_shard_spans(self, tmp_path):
        runner = ParallelRunner(cache=ResultCache(tmp_path / "cache"))
        with telemetry.session() as tel:
            runner.run_sharded(self._tasks([1, 2, 3]))   # cold: 3 misses
            runner.run_sharded(self._tasks([1, 2, 3]))   # warm: 3 hits
            registry = tel.registry
            assert registry.counter("repro_parallel_tasks_total").value == 6
            assert registry.counter("repro_parallel_cache_misses_total").value == 3
            assert registry.counter("repro_parallel_cache_hits_total").value == 3
            shard_spans = _spans_named(tel.tracer, "parallel.shard")
            assert len(shard_spans) == 3  # only executed shards get spans
            assert {span.attrs["key"] for span in shard_spans} == {
                str(("draw", seed)) for seed in (1, 2, 3)
            }

    def test_eviction_is_counted_and_surfaced(self, tmp_path, caplog):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = "cd" * 32
        cache.put(fingerprint, [1, 2])
        path = cache._path(fingerprint)
        path.write_bytes(path.read_bytes()[:3])  # truncate the pickle

        with telemetry.session() as tel:
            with caplog.at_level(logging.WARNING, logger="repro.parallel.cache"):
                hit, _ = cache.get(fingerprint, key=("draw", 9))
        assert not hit
        assert cache.evictions == 1
        assert tel.registry.counter("repro_cache_evictions_total").value == 1
        (record,) = caplog.records
        assert "cache.evicted_corrupt_entry" in record.message
        assert "draw" in record.message  # the shard key is named in the warning


# ---------------------------------------------------------------------- #
# Kernel instrumentation
# ---------------------------------------------------------------------- #


class TestKernelInstrumentation:
    def test_counters_and_span_attrs(self):
        rng = np.random.default_rng(0)
        n, reads, sweeps = 6, 10, 4
        fields = rng.normal(size=(1, n))
        upper = np.triu(rng.normal(size=(n, n)), 1)
        symmetric = (upper + upper.T)[None]
        children = spawn_rngs(3, 1)
        spins = np.ascontiguousarray(children[0].choice([-1.0, 1.0], size=(reads, n)).T)[None]
        local = kernels.initial_local_fields(fields, symmetric, spins)
        energies = np.zeros((1, reads))
        with telemetry.session() as tel:
            kernels.sa_sweeps(
                spins, local, symmetric, np.array([n]), children,
                np.full((sweeps, 1), 0.55),
                energies=energies, best_spins=spins.copy(), best_energies=energies.copy(),
            )
            (span,) = _spans_named(tel.tracer, "kernel.sa")
            assert span.attrs["sweeps"] == sweeps
            assert span.attrs["reads"] == reads
            assert span.attrs["read_sweeps_per_s"] > 0
            labels = {"family": "sa"}
            registry = tel.registry
            assert registry.counter("repro_kernel_calls_total", **labels).value == 1
            assert registry.counter("repro_kernel_sweeps_total", **labels).value == sweeps
            assert (
                registry.counter("repro_kernel_read_sweeps_total", **labels).value
                == sweeps * reads
            )
            assert registry.counter("repro_kernel_seconds_total", **labels).value > 0


# ---------------------------------------------------------------------- #
# CLI integration
# ---------------------------------------------------------------------- #


class TestCliTelemetry:
    @pytest.fixture(autouse=True)
    def _run_in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    def test_serve_quick_exports_valid_trace(self, tmp_path):
        out = tmp_path / "tele"
        exit_code = cli.main(
            ["serve", "--quick", "--no-cache", "--telemetry", str(out)]
        )
        assert exit_code == 0
        counts = exporters.validate_trace_file(out / "trace.jsonl")
        assert counts["span"] > 0
        names = {
            record.get("name")
            for record in exporters.iter_trace_records(out / "trace.jsonl")
        }
        assert {"serving.job", "serving.queue", "serving.solve"} <= names
        parsed = exporters.parse_prometheus_text(
            (out / "metrics.prom").read_text(encoding="utf-8")
        )
        assert any(name == "repro_serving_jobs_total" for name in parsed)
        assert "Per-stage latency breakdown" in (out / "summary.txt").read_text(
            encoding="utf-8"
        )
        # The CLI tears the global session down after exporting.
        assert telemetry.active() is None

    def test_quiet_and_verbose_conflict(self):
        with pytest.raises(SystemExit):
            cli.main(["serve", "--quick", "-q", "-v"])

    def test_default_telemetry_dir(self, tmp_path):
        exit_code = cli.main(["snr", "--quick", "--no-cache", "--telemetry"])
        assert exit_code == 0
        trace = tmp_path / cli.DEFAULT_TELEMETRY_DIR / "trace.jsonl"
        counts = exporters.validate_trace_file(trace)
        assert counts["event"] > 0  # experiment.point progress events
