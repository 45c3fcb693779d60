"""Run one benchmark workload for a fixed time and print its metrics.

Usage, from the repository root (no install step; the library is imported
from ``src/``)::

    python3 perfbench/run.py --workload ra-sweep --seed 1 --seconds 30 --trace 0

A run first times the set-up several times in fresh processes (imports,
config construction and kernel selection, up to the first timed call), then
repeats complete passes of the workload until ``--seconds`` would be
exceeded.  Pass ``i`` runs the ``i``-th input set derived from ``--seed``,
so one run's medians span several inputs.  Every pass is output-checked and
digested.  ``--trace 1`` runs each input set untraced, then traced, checks
that both give the same digest, and reports the per-layer breakdown of the
traced passes instead of the end-to-end metrics.

Times are reported at a nominal host speed: a sampler process on the
workload's CPU times a small fixed chunk of work every few milliseconds
while each timed section runs, which measures how fast the shared host ran
during that very section (see :class:`HostSampler`).  End-to-end runs
ignore ``REPRO_KERNEL`` (the library default kernel runs), never touch the
result cache and keep telemetry off.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable summary and the run's provenance.  The exit code is 0
only when every pass was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 7

#: Passes a run makes even when they overrun ``--seconds``, so a median
#: never rests on fewer samples on a slow or contended host.
MIN_PASSES = 2

#: Pause between two of the host sampler's chunks; with chunks of about
#: 0.3 ms the sampler takes ~3% of the CPU it shares.
SAMPLE_INTERVAL_S = 0.010

#: What one sampler chunk takes on a quiet host (2-vCPU x86_64 VM, Python
#: 3.11, numpy 2.4) while a workload shares its CPU.  End-to-end times are
#: reported at this host speed: a measured time is scaled by this over the
#: mean chunk time sampled during it, so a shared host that slows down does
#: not read as a regression.  The raw times are printed in the summary.
CHUNK_NOMINAL_S = 0.00028


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="ra-sweep, qos-day or detect-serve")
    parser.add_argument("--seed", type=int, default=0, help="base seed of the workload's inputs")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: report the per-layer breakdown of traced passes",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--host-sampler", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.host_sampler:
        parser.error("--workload is required")
    return args


def pin_to_one_cpu() -> None:
    """Run the workload and the host sampler on one and the same CPU.

    The CPUs of a shared host drift in speed independently of each other, so
    the sampler only calibrates a pass when both run on the same CPU.
    Pinning happens before numpy is imported, so its BLAS starts no second
    thread; every workload is serial.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# --------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------- #


def sample_chunk(angles) -> float:
    """Seconds one fixed chunk of work takes now: interpreter loop and numpy."""
    import numpy

    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i % 7
    for _ in range(5):
        angles = numpy.cos(angles)
    return time.perf_counter() - start


def host_sampler() -> None:
    """The sampler process: between ``start`` and ``stop`` on stdin, time a
    chunk every :data:`SAMPLE_INTERVAL_S`, then print ``chunks busy_s``.

    Ends at end of input.  Reads the raw descriptor, so ``select`` never
    misses a command sitting in a read-ahead buffer.
    """
    import numpy

    angles = numpy.linspace(0.0, 1.0, 2000)
    stdin = sys.stdin.fileno()
    while os.read(stdin, 64) == b"start\n":
        print("ok", flush=True)
        chunks, busy = 0, 0.0
        while True:
            busy += sample_chunk(angles)
            chunks += 1
            if select.select([stdin], [], [], SAMPLE_INTERVAL_S)[0]:
                break
        command = os.read(stdin, 64)
        print(chunks, repr(busy), flush=True)
        if command != b"stop\n":
            return


@dataclass
class HostSpeed:
    """What the host sampler saw during one timed section."""

    chunks: int = 0
    #: The sampler's own run time inside the section.
    busy_s: float = 0.0

    @property
    def chunk_s(self) -> float:
        return self.busy_s / self.chunks if self.chunks else math.nan

    def calibrated(self, seconds: float) -> float:
        """``seconds`` less the sampler's share, at nominal host speed."""
        return (seconds - self.busy_s) * CHUNK_NOMINAL_S / self.chunk_s


class HostSampler:
    """A process on the workload's CPU that samples the host's speed.

    The shared host's speed moves within seconds, so probes before and
    after a pass miss what the pass saw.  The sampler instead times a small
    fixed chunk of work every :data:`SAMPLE_INTERVAL_S` during the section,
    on the same CPU, so the mean chunk time is the host's speed over the
    section.  It is the benchmark's own code in its own process, so only
    the host moves it.
    """

    def __enter__(self) -> "HostSampler":
        command = [sys.executable, str(Path(__file__).resolve()), "--host-sampler"]
        self._process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self._process.stdin.close()
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()

    def _send(self, command: str) -> None:
        self._process.stdin.write(command + "\n")
        self._process.stdin.flush()

    @contextlib.contextmanager
    def sampling(self) -> Iterator[HostSpeed]:
        """Sample while the body runs; the yielded speed is filled on exit."""
        speed = HostSpeed()
        self._send("start")
        if self._process.stdout.readline() != "ok\n":
            raise RuntimeError("the host sampler did not start")
        try:
            yield speed
        finally:
            self._send("stop")
            chunks, busy = self._process.stdout.readline().split()
            speed.chunks, speed.busy_s = int(chunks), float(busy)


# --------------------------------------------------------------------- #
# Set-up and provenance
# --------------------------------------------------------------------- #


def import_library() -> None:
    """Import the library from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"library source not found under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import repro
    from repro import telemetry

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"imported repro from {repro.__file__}, not from {SRC}")
    telemetry.disable()


def prepare(name: str, seed: int):
    """Everything before the first timed call: config, plant, kernel selection."""
    from repro.annealing.kernels import active_kernel_name
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    return workload, active_kernel_name()


def time_setup(args: argparse.Namespace, sampler: HostSampler) -> List[Tuple[float, HostSpeed]]:
    """Per set-up probe: seconds from spawning a fresh process to its first
    timed call, and the host's speed meanwhile."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--probe-setup",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        with sampler.sampling() as speed:
            start = time.perf_counter()
            with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as probe:
                line = probe.stdout.readline().strip()
                elapsed = time.perf_counter() - start
                probe.stdout.read()
                code = probe.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        times.append((elapsed, speed))
    return times


def provenance(kernel: str) -> Dict[str, Any]:
    """What ran: source identity, interpreter, numpy, cores, kernel."""
    import numpy

    try:
        from numba import __version__ as numba_version
    except ImportError:
        numba_version = None
    commit = None
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba": numba_version,
        "kernel": kernel,
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------- #


def pass_seed(seed: int, index: int) -> int:
    """Base seed of a run's ``index``-th input set, derived from ``--seed``."""
    from repro.utils.rng import stable_seed

    return stable_seed("perfbench", seed, index)


@dataclass
class Pass:
    """One complete, timed pass of the workload over input set ``index``."""

    index: int
    units: int
    wall_s: float = math.nan
    #: The host's speed during the pass.
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: The checked, digested result; ``None`` when the pass raised.
    outcome: Optional[Any] = None
    #: Per-layer metrics when the pass was traced.
    trace: Optional[Dict[str, Tuple[float, str]]] = None

    @property
    def calibrated_s(self) -> float:
        return self.speed.calibrated(self.wall_s)


def measure(make, seed: int, seconds: float, traced: bool, sampler: HostSampler):
    """Repeat passes until the next one would overrun ``seconds``.

    At least :data:`MIN_PASSES` passes run.  Pass ``i`` runs input set ``i``,
    so a run's median spans several inputs drawn from its seed.  With
    ``traced`` each input set runs untraced, then traced.  Returns
    ``(passes, error)``; ``error`` is the traceback of a pass that raised,
    which ends the run and has no outcome.
    """
    layer_trace = None
    if traced:
        from layertrace import LayerTrace

        layer_trace = LayerTrace()
    passes: List[Pass] = []
    begin = time.perf_counter()
    for index in itertools.count():
        workload = make(pass_seed(seed, index))
        for tracing in (False, True) if traced else (False,):
            record = Pass(index, workload.units)
            passes.append(record)
            try:
                with layer_trace if tracing else contextlib.nullcontext():
                    with sampler.sampling() as record.speed:
                        start = time.perf_counter()
                        result = workload.run()
                        record.wall_s = time.perf_counter() - start
                record.outcome = workload.outcome(result)
                # Only the running pass may count towards peak memory.
                del result
            except Exception:  # a failing pass is a result, not a crash
                return passes, traceback.format_exc()
            if tracing:
                record.trace = layer_trace.metrics(record.wall_s)
        elapsed = time.perf_counter() - begin
        if len(passes) >= MIN_PASSES and elapsed * (index + 2) / (index + 1) > seconds:
            return passes, None


def median(values: List[float]) -> float:
    """Median, 0.0 for no values (a run whose first pass raised)."""
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    if args.host_sampler:
        host_sampler()
        return 0
    os.environ.pop("REPRO_KERNEL", None)
    try:
        import_library()
    except ImportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        choices = ", ".join(WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; choose from {choices}", file=sys.stderr)
        return 2
    if args.probe_setup:
        prepare(args.workload, pass_seed(args.seed, 0))
        print("ready", flush=True)
        return 0

    workload_type = WORKLOADS[args.workload]
    with HostSampler() as sampler:
        setup = time_setup(args, sampler)
        _, kernel = prepare(args.workload, pass_seed(args.seed, 0))
        passes, error = measure(
            workload_type, args.seed, args.seconds, bool(args.trace), sampler
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness: every pass checked, traced and untraced digests agree.
    problems = [p for record in passes if record.outcome for p in record.outcome.problems]
    if error is not None:
        problems.append("a pass raised:\n" + error)
    digests: Dict[int, str] = {}
    failed = 0
    for record in passes:
        if record.outcome is None:
            failed += record.units
            continue
        expected = digests.setdefault(record.index, record.outcome.digest)
        if record.outcome.digest != expected:
            problems.append(f"input set {record.index}: traced and untraced digests differ")
            failed += record.units
        elif record.outcome.problems:
            failed += record.units
    attempted = sum(record.units for record in passes)

    plain = [r for r in passes if r.outcome is not None and r.trace is None]
    traced = [r for r in passes if r.trace is not None]

    def per_s(field_name: str) -> float:
        return median([getattr(r.outcome, field_name) / r.calibrated_s for r in plain])

    summary = {
        "wall_s": (median([r.calibrated_s for r in plain]), "s"),
        "setup_s": (median([speed.calibrated(s) for s, speed in setup]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "work_per_s": (per_s(workload_type.work_unit), "units/s"),
    }
    if args.trace:
        metrics = {
            name: (median([r.trace[name][0] for r in traced]), unit)
            for name, (_, unit) in (traced[0].trace.items() if traced else ())
        }
        overhead = median([r.calibrated_s for r in traced]) - summary["wall_s"][0]
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = summary

    # Human-readable summary: every end-to-end figure with its unit, and the
    # raw (uncalibrated) times beside the calibrated ones.
    shown = dict(summary)
    shown["failed_frac"] = (failed / attempted if attempted else 1.0, "ratio")
    if any(r.outcome.anneal_reads for r in plain):
        shown["anneal_reads_per_s"] = (per_s("anneal_reads"), "reads/s")
    if any(r.outcome.sim_jobs for r in plain):
        shown["sim_jobs_per_s"] = (per_s("sim_jobs"), "jobs/s")
    shown["raw_wall_s"] = (median([r.wall_s for r in plain]), "s")
    shown["raw_setup_s"] = (median([s for s, _ in setup]), "s")
    chunks = [speed.chunk_s for _, speed in setup] + [r.speed.chunk_s for r in plain]
    shown["host_chunk_ms"] = (1e3 * median(chunks), "ms")
    print(
        f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced"
        f" + {len(traced)} traced  work_per_s counts {workload_type.work_unit}"
    )
    for name, (value, unit) in {**shown, **(metrics if args.trace else {})}.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print("  raw_pass_walls_s " + " ".join(f"{r.wall_s:.4f}" for r in plain))
    print("  pass_chunks_ms " + " ".join(f"{1e3 * r.speed.chunk_s:.4f}" for r in plain))
    print("  output_digest " + " ".join(digests[index] for index in sorted(digests)))
    print("provenance " + json.dumps(provenance(kernel), sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
