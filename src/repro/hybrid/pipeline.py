"""Pipelined classical/quantum processing of successive channel uses.

Paper Figure 2 sketches the eventual goal of the hybrid architecture: data
from successive wireless channel uses flow through *staged* classical and
quantum processing units, so that while the quantum stage refines channel use
N the classical stage is already pre-processing channel use N+1.  The paper
lists this as Design Challenge 3 (balancing, buffering, costs) but does not
quantify it; this module provides the discrete-event simulator the E-F2
benchmark uses to do so.

The simulator models each stage as a single FIFO server:

* the **classical stage** runs the chosen initialiser on each arriving channel
  use (service time = the initialiser's modelled compute time);
* the **quantum stage** runs reverse annealing programmed with that
  initialiser's output (service time = schedule duration x reads, plus the
  device's per-read readout/delay overheads when ``include_qpu_overheads``).

Running the same workload with ``pipelined=False`` serialises the two stages
onto a single server, which is the baseline Figure 2 is contrasted against.

Paper linkage
-------------
This module is the quantitative counterpart of paper **Figure 2** (the staged
classical/quantum pipeline) and of **Design Challenge 3** in Section 5
(stage balancing, buffering and cost accounting).  The batched engine extends
the figure's premise: not only do the classical and quantum stages overlap
across successive channel uses, but each stage also *processes channel uses
in batches* through
:meth:`~repro.hybrid.solver.HybridQuboSolver.solve_batch` — which is how a
receiver keeps many concurrent channel uses in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.annealing.device import PER_READ_OVERHEAD_US
from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.hybrid.solver import HybridQuboSolver
from repro.serving.events import FifoServer, StageTiming
from repro.transform.mimo_to_qubo import is_optimum, mimo_to_qubo
from repro.utils.rng import BatchRandomState, ensure_rng_batch
from repro.utils.validation import require
from repro.wireless.traffic import ChannelUse

__all__ = [
    "StageTiming",
    "PipelineJobResult",
    "PipelineReport",
    "HybridPipelineSimulator",
]


@dataclass(frozen=True)
class PipelineJobResult:
    """Per-channel-use outcome of the pipeline simulation."""

    index: int
    arrival_us: float
    classical: StageTiming
    quantum: StageTiming
    completion_us: float
    latency_us: float
    deadline_us: Optional[float]
    met_deadline: Optional[bool]
    detected_optimum: Optional[bool]
    best_energy: float
    ground_energy: Optional[float]


@dataclass(frozen=True)
class PipelineReport:
    """Aggregate statistics of one pipeline simulation run."""

    jobs: List[PipelineJobResult]
    pipelined: bool
    makespan_us: float
    mean_latency_us: float
    p95_latency_us: float
    throughput_jobs_per_ms: float
    classical_utilization: float
    quantum_utilization: float
    deadline_miss_rate: Optional[float]
    optimum_rate: Optional[float]
    metadata: Dict = field(default_factory=dict)

    @property
    def num_jobs(self) -> int:
        """Number of channel uses processed."""
        return len(self.jobs)


class HybridPipelineSimulator:
    """Discrete-event simulation of the Figure-2 hybrid pipeline.

    The classical stage runs Greedy Search; the quantum stage reverse-anneals
    with a 1 us pause.

    Parameters
    ----------
    sampler:
        Annealer simulator used by the quantum stage.
    switch_s, num_reads:
        Reverse-annealing parameters of the quantum stage.
    include_qpu_overheads:
        When true the quantum stage's service time includes per-read readout
        and inter-sample delays of the simulated device (realistic); when false
        it counts pure anneal time only (the paper's TTS convention).
    evaluate_solutions:
        When true the annealer is actually run per channel use so solution
        quality can be reported; when false only the timing model is exercised
        (much faster — useful for long traffic traces).
    """

    def __init__(
        self,
        sampler: Optional[QuantumAnnealerSimulator] = None,
        switch_s: float = 0.41,
        num_reads: int = 50,
        include_qpu_overheads: bool = False,
        evaluate_solutions: bool = True,
    ) -> None:
        self.solver = HybridQuboSolver(sampler=sampler, switch_s=switch_s, num_reads=num_reads)
        self.include_qpu_overheads = bool(include_qpu_overheads)
        self.evaluate_solutions = bool(evaluate_solutions)

    # ------------------------------------------------------------------ #

    def run(
        self,
        channel_uses: Sequence[ChannelUse],
        pipelined: bool = True,
        rng: BatchRandomState = None,
    ) -> PipelineReport:
        """Simulate the processing of a channel-use stream.

        With ``pipelined=True`` the classical and quantum stages overlap
        across successive channel uses; with ``pipelined=False`` each channel
        use occupies a single combined server for the sum of both service
        times (the non-pipelined baseline).

        Solutions are computed through the batched engine: the whole trace is
        one :meth:`~repro.hybrid.solver.HybridQuboSolver.solve_batch` call
        (only its classical stage when ``evaluate_solutions`` is off), with
        one child generator per channel use.  The discrete-event timing model
        then replays arrivals job by job.
        """
        require(bool(channel_uses), "channel_uses must not be empty")
        children = ensure_rng_batch(rng, len(channel_uses))
        solver = self.solver

        # ---- Batched solution computation -----------------------------
        encodings = [
            mimo_to_qubo(channel_use.transmission.instance) for channel_use in channel_uses
        ]
        qubos = [encoding.qubo for encoding in encodings]
        # (classical solution, best energy) per channel use.
        if self.evaluate_solutions:
            results = solver.solve_batch(qubos, children)
            outcomes = [(result.initial_solution, result.best_energy) for result in results]
        else:
            initials = solver.classical_solver.solve_batch(qubos, children)
            outcomes = [(initial, initial.energy) for initial in initials]

        # ---- Discrete-event timing replay -----------------------------
        # Each stage is a FIFO server; in the serialised baseline both stages
        # share one combined server (see repro.serving.events.FifoServer for
        # the advance rule both simulators delegate to).
        jobs: List[PipelineJobResult] = []
        classical_server = FifoServer()
        quantum_server = FifoServer()
        combined_server = FifoServer()
        classical_busy = 0.0
        quantum_busy = 0.0

        quantum_service = solver.schedule.duration_us * solver.num_reads
        if self.include_qpu_overheads:
            quantum_service += solver.num_reads * PER_READ_OVERHEAD_US

        for channel_use, encoding, (initial, best_energy) in zip(
            channel_uses, encodings, outcomes
        ):
            ground_energy = encoding.noiseless_ground_energy(channel_use.transmission)
            classical_service = max(initial.compute_time_us, 1e-9)
            detected_optimum = is_optimum(best_energy, ground_energy)

            arrival = channel_use.arrival_time_us
            if pipelined:
                classical_timing = classical_server.serve(arrival, classical_service)
                quantum_timing = quantum_server.serve(
                    classical_timing.finish_us, quantum_service
                )
            else:
                classical_timing = combined_server.serve(arrival, classical_service)
                quantum_timing = combined_server.serve(
                    classical_timing.finish_us, quantum_service
                )

            classical_busy += classical_service
            quantum_busy += quantum_service
            completion = quantum_timing.finish_us
            latency = completion - arrival
            met_deadline: Optional[bool] = None
            if channel_use.deadline_us is not None:
                met_deadline = bool(completion <= channel_use.deadline_us)

            jobs.append(
                PipelineJobResult(
                    index=channel_use.index,
                    arrival_us=arrival,
                    classical=classical_timing,
                    quantum=quantum_timing,
                    completion_us=completion,
                    latency_us=latency,
                    deadline_us=channel_use.deadline_us,
                    met_deadline=met_deadline,
                    detected_optimum=detected_optimum,
                    best_energy=float(best_energy),
                    ground_energy=ground_energy,
                )
            )

        return self._report(jobs, pipelined, classical_busy, quantum_busy)

    # ------------------------------------------------------------------ #

    def _report(
        self,
        jobs: List[PipelineJobResult],
        pipelined: bool,
        classical_busy: float,
        quantum_busy: float,
    ) -> PipelineReport:
        latencies = np.array([job.latency_us for job in jobs])
        first_arrival = min(job.arrival_us for job in jobs)
        makespan = max(job.completion_us for job in jobs) - first_arrival
        makespan = max(makespan, 1e-9)

        deadline_flags = [job.met_deadline for job in jobs if job.met_deadline is not None]
        miss_rate = None
        if deadline_flags:
            miss_rate = 1.0 - float(np.mean(deadline_flags))

        optimum_flags = [job.detected_optimum for job in jobs if job.detected_optimum is not None]
        optimum_rate = float(np.mean(optimum_flags)) if optimum_flags else None

        return PipelineReport(
            jobs=jobs,
            pipelined=pipelined,
            makespan_us=float(makespan),
            mean_latency_us=float(np.mean(latencies)),
            p95_latency_us=float(np.percentile(latencies, 95)),
            throughput_jobs_per_ms=float(len(jobs) / (makespan / 1000.0)),
            classical_utilization=float(classical_busy / makespan),
            quantum_utilization=float(quantum_busy / makespan),
            deadline_miss_rate=miss_rate,
            optimum_rate=optimum_rate,
            metadata={
                "switch_s": self.solver.switch_s,
                "num_reads": self.solver.num_reads,
                "include_qpu_overheads": self.include_qpu_overheads,
                "classical_solver": self.solver.classical_solver.name,
            },
        )
