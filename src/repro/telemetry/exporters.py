"""Trace and metrics exporters: JSONL traces, Prometheus text, run summaries.

Three output formats, all dependency-free:

* **JSONL trace** — one JSON object per line; the first line is a ``meta``
  record carrying the schema version.  :func:`validate_trace_record` is the
  schema contract (CI validates every smoke-run trace against it).
* **Prometheus text format** — a point-in-time snapshot of the metrics
  registry (``# HELP`` / ``# TYPE`` + samples), parseable back with
  :func:`parse_prometheus_text` for round-trip tests.
* **Run summary** — the human-readable per-stage latency breakdown and
  top-N slowest-span table rendered by ``scripts/telemetry_report.py``.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.telemetry.registry import Histogram, MetricsRegistry
from repro.telemetry.tracing import Span, Tracer
from repro.utils.jsonable import to_jsonable

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "span_to_record",
    "write_trace_jsonl",
    "iter_trace_records",
    "validate_trace_record",
    "validate_trace_file",
    "prometheus_text",
    "parse_prometheus_text",
    "summarize_spans",
    "format_run_summary",
]

#: Bump when the JSONL trace layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

_RECORD_KINDS = ("meta", "span", "event")
_CLOCKS = ("sim", "wall")


# --------------------------------------------------------------------- #
# JSONL trace
# --------------------------------------------------------------------- #


def span_to_record(span: Span) -> Dict[str, Any]:
    """One trace record as the plain dict the JSONL schema serialises."""
    return {
        "kind": span.kind,
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "clock": span.clock,
        "start_us": span.start_us,
        "end_us": span.end_us,
        "duration_us": span.duration_us,
        "attrs": to_jsonable(span.attrs),
    }


def write_trace_jsonl(tracer: Tracer, path: Union[str, os.PathLike]) -> int:
    """Dump the tracer's buffer as JSONL; returns the number of records."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "kind": "meta",
        "schema_version": TRACE_SCHEMA_VERSION,
        "time_unit": "us",
        "records": len(tracer.records),
        "dropped": tracer.dropped,
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta, sort_keys=True) + "\n")
        for span in tracer.records:
            handle.write(json.dumps(span_to_record(span), sort_keys=True) + "\n")
    return len(tracer.records)


def iter_trace_records(path: Union[str, os.PathLike]) -> Iterator[Dict[str, Any]]:
    """Yield every record (including the leading ``meta`` line) of a trace."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def validate_trace_record(record: Any) -> None:
    """Assert one parsed trace record conforms to the schema.

    Raises ``ValueError`` with a human-readable reason on any violation —
    this function *is* the trace schema, used by tests and the CI smoke
    validation step.
    """
    if not isinstance(record, dict):
        raise ValueError(f"record must be an object, got {type(record).__name__}")
    kind = record.get("kind")
    if kind not in _RECORD_KINDS:
        raise ValueError(f"record kind must be one of {_RECORD_KINDS}, got {kind!r}")
    if kind == "meta":
        if record.get("schema_version") != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {record.get('schema_version')!r} "
                f"(expected {TRACE_SCHEMA_VERSION})"
            )
        return
    for key, kinds in (
        ("id", (int,)),
        ("name", (str,)),
        ("start_us", (int, float)),
        ("end_us", (int, float)),
        ("duration_us", (int, float)),
        ("attrs", (dict,)),
    ):
        if not isinstance(record.get(key), kinds) or isinstance(record.get(key), bool):
            raise ValueError(f"{kind} record field {key!r} missing or mistyped")
    if record.get("parent") is not None and not isinstance(record["parent"], int):
        raise ValueError("span parent must be an integer id or null")
    if record.get("clock") not in _CLOCKS:
        raise ValueError(f"span clock must be one of {_CLOCKS}, got {record.get('clock')!r}")
    for key in ("start_us", "end_us", "duration_us"):
        if not math.isfinite(record[key]):
            raise ValueError(f"span field {key!r} must be finite")
    if record["end_us"] + 1e-9 < record["start_us"]:
        raise ValueError("span end_us precedes start_us")
    if kind == "event" and abs(record["duration_us"]) > 1e-9:
        raise ValueError("event records must have zero duration")


def validate_trace_file(path: Union[str, os.PathLike]) -> Dict[str, int]:
    """Validate a whole JSONL trace; returns record counts per kind."""
    counts = {kind: 0 for kind in _RECORD_KINDS}
    first = True
    for index, record in enumerate(iter_trace_records(path)):
        try:
            validate_trace_record(record)
            if first and record.get("kind") != "meta":
                raise ValueError("first trace line must be the meta record")
        except ValueError as error:
            raise ValueError(f"{path}: line {index + 1}: {error}") from None
        counts[record["kind"]] += 1
        first = False
    if counts["meta"] != 1:
        raise ValueError(f"{path}: expected exactly one meta record, got {counts['meta']}")
    return counts


# --------------------------------------------------------------------- #
# Prometheus text format
# --------------------------------------------------------------------- #


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sample_line(name: str, labels: Sequence[Tuple[str, str]], value: float) -> str:
    if labels:
        rendered = ",".join(f'{key}="{_escape_label(value_)}"' for key, value_ in labels)
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry as a Prometheus text-format (0.0.4) snapshot."""
    lines: List[str] = []
    seen_types = set()
    for metric in registry.metrics():
        if metric.name not in seen_types:
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            seen_types.add(metric.name)
        if isinstance(metric, Histogram):
            cumulative = metric.cumulative_counts()
            for edge, count in zip(list(metric.edges) + [math.inf], cumulative):
                labels = list(metric.labels) + [("le", _format_value(edge))]
                lines.append(_sample_line(f"{metric.name}_bucket", labels, count))
            lines.append(_sample_line(f"{metric.name}_sum", list(metric.labels), metric.sum))
            lines.append(
                _sample_line(f"{metric.name}_count", list(metric.labels), metric.count)
            )
        else:
            lines.append(_sample_line(metric.name, list(metric.labels), metric.value))
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse a text-format snapshot back into ``{name: {labels: value}}``.

    Supports exactly the subset :func:`prometheus_text` emits (enough for
    round-trip tests and the report script; not a general scraper).
    """
    samples: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        metric_part, _, value_part = line.rpartition(" ")
        value = math.inf if value_part == "+Inf" else float(value_part)
        if "{" in metric_part:
            name, _, label_part = metric_part.partition("{")
            label_part = label_part.rstrip("}")
            labels = []
            for item in _split_labels(label_part):
                key, _, raw = item.partition("=")
                labels.append((key, _unescape_label(raw[1:-1])))
            key = tuple(labels)
        else:
            name, key = metric_part, ()
        samples.setdefault(name, {})[key] = value
    return samples


def _unescape_label(raw: str) -> str:
    """Invert :func:`_escape_label`, consuming escapes left to right (a
    chained ``str.replace`` would mangle values ending in ``\\"``)."""
    characters: List[str] = []
    stream = iter(raw)
    for char in stream:
        if char == "\\":
            follower = next(stream, "")
            characters.append({"n": "\n", '"': '"', "\\": "\\"}.get(follower, "\\" + follower))
        else:
            characters.append(char)
    return "".join(characters)


def _split_labels(label_part: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    items, current, in_quotes, escaped = [], [], False, False
    for char in label_part:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
        if char == "," and not in_quotes:
            items.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        items.append("".join(current))
    return items


# --------------------------------------------------------------------- #
# Run summary
# --------------------------------------------------------------------- #


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank-style percentile on a pre-sorted list (no numpy needed)."""
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[rank]


def summarize_spans(records: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Aggregate span records by name: count, total/mean/p50/p95/max duration.

    ``records`` are parsed JSONL trace records; ``meta`` lines and point
    events are skipped (events carry no duration to aggregate).
    """
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        if record.get("kind") != "span":
            continue
        grouped.setdefault(record["name"], []).append(record)
    summary: Dict[str, Dict[str, Any]] = {}
    for name, spans in grouped.items():
        durations = sorted(span["duration_us"] for span in spans)
        summary[name] = {
            "clock": spans[0]["clock"],
            "count": len(spans),
            "total_us": sum(durations),
            "mean_us": sum(durations) / len(durations),
            "p50_us": _percentile(durations, 0.50),
            "p95_us": _percentile(durations, 0.95),
            "max_us": durations[-1],
        }
    return summary


def format_run_summary(
    records: Sequence[Dict[str, Any]],
    metrics_text: Optional[str] = None,
    top: int = 10,
) -> str:
    """The human-readable run report: per-stage breakdown + slowest spans."""
    lines: List[str] = ["Telemetry run summary", ""]
    summary = summarize_spans(records)
    if summary:
        lines.append("Per-stage latency breakdown (spans grouped by name):")
        lines.append(
            f"{'stage':<24} {'clock':>5} {'count':>7} {'total':>12} "
            f"{'mean':>10} {'p50':>10} {'p95':>10} {'max':>10}  (us)"
        )
        for name in sorted(summary, key=lambda n: -summary[n]["total_us"]):
            row = summary[name]
            lines.append(
                f"{name:<24} {row['clock']:>5} {row['count']:>7d} "
                f"{row['total_us']:>12.1f} {row['mean_us']:>10.1f} "
                f"{row['p50_us']:>10.1f} {row['p95_us']:>10.1f} {row['max_us']:>10.1f}"
            )
    else:
        lines.append("No spans recorded.")

    spans = [record for record in records if record.get("kind") == "span"]
    if spans:
        lines.append("")
        lines.append(f"Top {min(top, len(spans))} slowest spans:")
        lines.append(f"{'duration (us)':>14}  {'clock':>5}  {'name':<24} attrs")
        for record in sorted(spans, key=lambda r: -r["duration_us"])[:top]:
            attrs = ", ".join(f"{k}={v}" for k, v in sorted(record["attrs"].items()))
            lines.append(
                f"{record['duration_us']:>14.1f}  {record['clock']:>5}  "
                f"{record['name']:<24} {attrs}"
            )

    events = [record for record in records if record.get("kind") == "event"]
    if events:
        counts: Dict[str, int] = {}
        for record in events:
            counts[record["name"]] = counts.get(record["name"], 0) + 1
        lines.append("")
        lines.append("Events: " + ", ".join(f"{k} x{v}" for k, v in sorted(counts.items())))

    if metrics_text:
        lines.append("")
        lines.append("Counters:")
        for name, label_samples in sorted(parse_prometheus_text(metrics_text).items()):
            if name.endswith(("_bucket", "_sum")):
                continue
            for labels, value in sorted(label_samples.items()):
                rendered = (
                    "{" + ",".join(f"{k}={v}" for k, v in labels) + "}" if labels else ""
                )
                lines.append(f"  {name}{rendered} = {_format_value(value)}")
    return "\n".join(lines) + "\n"
