"""Layer tracing from outside the library: timed wrappers around entry points.

The traced run wraps the public entry points of each layer (see
:data:`ENTRY_POINTS`) with a span that records its duration and the part of
it covered by nested spans, so each layer gets a *self time*: its span time
minus its child spans' time.  High-frequency calls are counted, not timed.
Nothing under ``src/`` changes; the wrappers are installed only for a traced
pass and removed afterwards, so untraced passes run the library untouched.

A wrapped entry point that no longer exists is an error naming it, never a
silent zero.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple

#: ``tally(arguments, result) -> amount`` adds to a named counter per call.
Tally = Callable[[Mapping[str, Any], Any], float]


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``target`` is ``"module:Qual.name"``.

    ``group`` names the per-layer bucket its time and calls land in.  Calls,
    durations and tallies are recorded only for the outermost span of a
    group, so an entry point delegating to another of the same group (e.g.
    ``run`` -> ``run_batch``) counts once.  ``timed=False`` only counts calls.
    """

    group: str
    target: str
    timed: bool = True
    tallies: Tuple[Tuple[str, Tally], ...] = ()


def _kernel_reads(arguments, result) -> float:
    fields = arguments["fields"]
    # ``run`` takes one instance's fields, ``run_batch`` a sequence of them.
    instances = len(fields) if isinstance(fields, (list, tuple)) else 1
    return instances * int(arguments["num_reads"])


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("wireless", "repro.serving.workload:generate_serving_jobs"),
    EntryPoint("wireless", "repro.experiments.instances:synthesize_instance"),
    EntryPoint("transform", "repro.transform.mimo_to_qubo:mimo_to_qubo"),
    EntryPoint("classical.greedy", "repro.classical.greedy:GreedySearchSolver.solve"),
    EntryPoint("classical.greedy", "repro.classical.greedy:GreedySearchSolver.solve_batch"),
    EntryPoint(
        "classical.sa",
        "repro.classical.simulated_annealing:SimulatedAnnealingSolver.solve_batch",
    ),
    *(
        EntryPoint("annealing.sampler", f"repro.annealing.sampler:QuantumAnnealerSimulator.{name}")
        for name in ("sample_qubo", "sample_qubo_batch", "sample_ising", "sample_ising_batch")
    ),
    *(
        EntryPoint(
            "annealing.kernel",
            f"repro.annealing.svmc:SpinVectorMonteCarloBackend.{name}",
            tallies=(("kernel_reads", _kernel_reads),),
        )
        for name in ("run", "run_batch")
    ),
    EntryPoint(
        "annealing.sampleset",
        "repro.annealing.sampleset:SampleSet.from_arrays",
        tallies=(
            ("sampleset_reads", lambda arguments, result: len(arguments["energies"])),
            ("sampleset_records", lambda arguments, result: len(result)),
        ),
    ),
    EntryPoint("hybrid.sweep", "repro.hybrid.parameters:sweep_switch_point_batch"),
    EntryPoint("hybrid.sweep", "repro.hybrid.parameters:sweep_forward_reverse_turning_point"),
    EntryPoint(
        "serving.run",
        "repro.serving.simulator:RANServingSimulator.run",
        tallies=(("serving_jobs", lambda arguments, result: len(arguments["jobs"])),),
    ),
    EntryPoint("serving.select_batch", "repro.serving.scheduler:select_batch"),
    EntryPoint(
        "serving.service_time",
        "repro.serving.backends:AnnealerServingBackend.service_time_us",
        timed=False,
    ),
    EntryPoint(
        "serving.service_time",
        "repro.serving.backends:ClassicalServingBackend.service_time_us",
        timed=False,
    ),
    EntryPoint("serving.solve", "repro.serving.backends:AnnealerServingBackend.solve"),
    EntryPoint("serving.solve", "repro.serving.backends:ClassicalServingBackend.solve"),
    EntryPoint("experiments.aggregate", "repro.experiments.fig8_tts:Figure8Driver.aggregate"),
    EntryPoint("experiments.aggregate", "repro.experiments.qos_study:QoSStudyDriver.aggregate"),
    EntryPoint(
        "parallel.runner",
        "repro.parallel.runner:ParallelRunner.run_sharded",
        tallies=(("shards", lambda arguments, result: len(arguments["tasks"])),),
    ),
)

#: Groups whose span time is bookkeeping around the layers, not a layer.
_CONTAINER_GROUPS = ("parallel.runner",)


class EntryPointMissing(LookupError):
    """A wrapped entry point is missing or renamed in the library."""


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` of a ``module:Qual.name`` target."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as error:
        raise EntryPointMissing(f"entry point {target}: {error}") from None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    raw = vars(owner).get(attribute) if owner is not None else None
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        raise EntryPointMissing(
            f"entry point {target} is missing or renamed; update perfbench/layertrace.py"
        )
    return owner, attribute, raw


class LayerTrace:
    """Installs span wrappers on :data:`ENTRY_POINTS` and accumulates per-group totals."""

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []
        self._stack: List[List[float]] = []
        self._depth: Counter = Counter()
        self.reset()
        # Resolve every target up front, so a renamed one fails before any run.
        self._resolved = [(_resolve(point.target), point) for point in ENTRY_POINTS]

    def reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.tally: Counter = Counter()
        self.durations: Dict[str, List[float]] = defaultdict(list)

    # ------------------------------------------------------------------ #

    def __enter__(self) -> "LayerTrace":
        self.reset()
        for (owner, attribute, raw), point in self._resolved:
            function = getattr(raw, "__func__", raw)
            wrapped = (self._span if point.timed else self._count)(point, function)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._patch(owner, attribute, wrapped)
            if not inspect.isclass(owner):
                # ``from module import fn`` copies: rebind those too.
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", {})
                    if module is not owner and namespace.get(attribute) is raw:
                        self._patch(module, attribute, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def _count(self, point: EntryPoint, function: Callable) -> Callable:
        calls, group = self.calls, point.group

        def counted(*args, **kwargs):
            calls[group] += 1
            return function(*args, **kwargs)

        return counted

    def _span(self, point: EntryPoint, function: Callable) -> Callable:
        group, tallies = point.group, point.tallies
        signature = inspect.signature(function)
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            outermost = depth[group] == 0
            depth[group] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[group] -= 1
                if stack:
                    stack[-1][0] += elapsed
                self.self_s[group] += elapsed - frame[0]
            if outermost:
                self.calls[group] += 1
                self.durations[group].append(elapsed)
                if tallies:
                    arguments = signature.bind(*args, **kwargs).arguments
                    for name, tally in tallies:
                        self.tally[name] += tally(arguments, result)
            return result

        return spanned

    # ------------------------------------------------------------------ #

    def metrics(self, wall_s: float) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics of one traced pass that took ``wall_s`` seconds."""
        s, calls, tally = self.self_s, self.calls, self.tally

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        def percentile_ms(group: str, q: int) -> float:
            samples = self.durations.get(group, [])
            if len(samples) < 2:
                return 1e3 * samples[0] if samples else 0.0
            return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]

        attributed = sum(v for group, v in s.items() if group not in _CONTAINER_GROUPS)
        return {
            "wireless.self_s": (s["wireless"], "s"),
            "wireless.calls": (calls["wireless"], "count"),
            "transform.self_s": (s["transform"], "s"),
            "transform.calls": (calls["transform"], "count"),
            "classical.greedy_self_s": (s["classical.greedy"], "s"),
            "classical.greedy_calls": (calls["classical.greedy"], "count"),
            "classical.sa_self_s": (s["classical.sa"], "s"),
            "classical.sa_calls": (calls["classical.sa"], "count"),
            "annealing.sampler_self_s": (s["annealing.sampler"], "s"),
            "annealing.kernel_self_s": (s["annealing.kernel"], "s"),
            "annealing.kernel_calls": (calls["annealing.kernel"], "count"),
            "annealing.reads_per_kernel_s": (
                ratio(tally["kernel_reads"], s["annealing.kernel"]), "reads/s"
            ),
            "annealing.sampleset_self_s": (s["annealing.sampleset"], "s"),
            "annealing.records_per_read": (
                ratio(tally["sampleset_records"], tally["sampleset_reads"]), "ratio"
            ),
            "hybrid.sweep_self_s": (s["hybrid.sweep"], "s"),
            "serving.run_self_s": (s["serving.run"], "s"),
            "serving.service_time_calls_per_job": (
                ratio(calls["serving.service_time"], tally["serving_jobs"]), "calls/job"
            ),
            "serving.select_batch_calls": (calls["serving.select_batch"], "count"),
            "serving.solve_calls": (calls["serving.solve"], "count"),
            "serving.solve_p50_ms": (percentile_ms("serving.solve", 50), "ms"),
            "serving.solve_p90_ms": (percentile_ms("serving.solve", 90), "ms"),
            "experiments.aggregate_self_s": (s["experiments.aggregate"], "s"),
            "parallel.runner_self_s": (s["parallel.runner"], "s"),
            "parallel.shards": (tally["shards"], "count"),
            "trace.attributed_share": (ratio(attributed, wall_s), "ratio"),
        }
