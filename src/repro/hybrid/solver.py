"""The hybrid classical-quantum solver (paper Sec. 4.1).

The prototype the paper evaluates consists of two sequential modules:

1. a cheap classical solver — Greedy Search by default — produces a candidate
   solution of the QUBO;
2. reverse annealing, programmed with that candidate as its initial state,
   refines it on the (simulated) quantum annealer.

:class:`HybridQuboSolver` implements that composition for arbitrary QUBOs and
arbitrary classical initialisers.  :class:`HybridMIMODetector` wraps it into an
end-to-end Large MIMO detector with Greedy Search as the initialiser: MIMO
instance → QuAMax QUBO → greedy initialisation → reverse annealing → decoded
symbols and payload bits.  :class:`DetectorInitializer` turns a
*signal-domain* detector (zero-forcing, MMSE, sphere decoder) into a
classical stage for :class:`HybridQuboSolver`, which is the extension the
paper's Section 5 proposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.annealing.sampleset import SampleSet
from repro.annealing.schedule import reverse_anneal_schedule
from repro.classical.base import MIMODetector, QuboSolution, QuboSolver
from repro.classical.greedy import GreedySearchSolver
from repro.qubo.model import QUBOModel
from repro.transform.mimo_to_qubo import MIMOQuboEncoding, mimo_to_qubo
from repro.utils.rng import BatchRandomState, RandomState, ensure_rng, ensure_rng_batch
from repro.utils.validation import require_non_negative, require_positive
from repro.wireless.mimo import MIMODetectionResult, MIMOInstance

__all__ = [
    "HybridSolverResult",
    "HybridQuboSolver",
    "HybridMIMODetector",
    "DetectorInitializer",
]


@dataclass(frozen=True)
class HybridSolverResult:
    """Outcome of one hybrid (classical + reverse annealing) solve.

    Attributes
    ----------
    best_assignment / best_energy:
        The best solution over both stages (the classical candidate is kept if
        no anneal read improves on it).
    initial_solution:
        The classical stage's output used to program the reverse anneal.
    sampleset:
        All reverse-annealing reads.
    classical_time_us / quantum_time_us:
        Modelled time spent in each stage.  The quantum time is the pure
        anneal time (schedule duration x reads), which is the quantity the
        paper's TTS metric is built on; QPU access overheads are available in
        the sample set metadata.
    """

    best_assignment: np.ndarray
    best_energy: float
    initial_solution: QuboSolution
    sampleset: SampleSet
    switch_s: float
    classical_time_us: float
    quantum_time_us: float
    metadata: Dict = field(default_factory=dict)

    @property
    def total_time_us(self) -> float:
        """Classical plus quantum processing time."""
        return self.classical_time_us + self.quantum_time_us


class HybridQuboSolver:
    """Classical initialisation followed by reverse annealing.

    Parameters
    ----------
    classical_solver:
        Any :class:`repro.classical.base.QuboSolver`; defaults to the paper's
        Greedy Search.
    sampler:
        The annealer simulator; a default instance is created lazily.
    switch_s:
        Reverse-annealing switch/pause location s_p.  The default 0.41 sits in
        the paper's successful interval (0.33-0.49).  The pause lasts 1 us, as
        in the paper.
    num_reads:
        Anneal reads per solve.
    """

    def __init__(
        self,
        classical_solver: Optional[QuboSolver] = None,
        sampler: Optional[QuantumAnnealerSimulator] = None,
        switch_s: float = 0.41,
        num_reads: int = 100,
    ) -> None:
        self.switch_s = float(switch_s)
        self.schedule = reverse_anneal_schedule(self.switch_s)
        # The sampler checks num_reads only when a solve runs.
        require_positive(num_reads, "num_reads")
        self.num_reads = int(num_reads)
        self.classical_solver = (
            classical_solver if classical_solver is not None else GreedySearchSolver()
        )
        self.sampler = sampler if sampler is not None else QuantumAnnealerSimulator()

    def solve(self, qubo: QUBOModel, rng: RandomState = None) -> HybridSolverResult:
        """Run the two-stage hybrid solve on one QUBO (a batch of one)."""
        return self.solve_batch([qubo], [ensure_rng(rng)])[0]

    def solve_batch(
        self, qubos: Sequence[QUBOModel], rng: BatchRandomState = None
    ) -> List[HybridSolverResult]:
        """Run the two-stage hybrid solve on a batch of independent QUBOs.

        Both stages are submitted batched: the classical initialiser via
        :meth:`~repro.classical.base.QuboSolver.solve_batch`, and all reverse
        anneals as one vectorised
        :meth:`~repro.annealing.QuantumAnnealerSimulator.sample_qubo_batch`
        call.  Instance ``b`` consumes only child generator ``b`` in both
        stages, so results do not depend on how instances are batched.
        """
        children = ensure_rng_batch(rng, len(qubos))
        return self._refine(qubos, self.classical_solver.solve_batch(qubos, children), children)

    def _refine(
        self,
        qubos: Sequence[QUBOModel],
        initials: Sequence[QuboSolution],
        children: List[np.random.Generator],
    ) -> List[HybridSolverResult]:
        """Reverse-anneal each QUBO from its classical candidate and keep the better.

        All anneals go out as one batched sampler call; instance ``b`` draws
        from ``children[b]``, after its classical stage.
        """
        samplesets = self.sampler.sample_qubo_batch(
            qubos,
            self.schedule,
            num_reads=self.num_reads,
            initial_states=[initial.assignment for initial in initials],
            rng=children,
        )
        quantum_time = self.schedule.duration_us * self.num_reads
        results: List[HybridSolverResult] = []
        for initial, sampleset in zip(initials, samplesets):
            best_assignment = initial.assignment
            best_energy = initial.energy
            if len(sampleset) and sampleset.lowest_energy() < best_energy:
                best_assignment = sampleset.first.assignment
                best_energy = sampleset.lowest_energy()
            results.append(
                HybridSolverResult(
                    best_assignment=np.asarray(best_assignment, dtype=np.int8),
                    best_energy=float(best_energy),
                    initial_solution=initial,
                    sampleset=sampleset,
                    switch_s=self.switch_s,
                    classical_time_us=initial.compute_time_us,
                    quantum_time_us=quantum_time,
                    metadata={
                        "classical_solver": initial.solver_name,
                        "schedule": self.schedule.as_pairs(),
                        "num_reads": self.num_reads,
                    },
                )
            )
        return results


class DetectorInitializer(QuboSolver):
    """Adapts a signal-domain MIMO detector into a QUBO initialiser.

    The detector runs on the original MIMO instance; its symbol decisions are
    converted into the QUBO bit encoding, giving reverse annealing a
    (potentially much better) initial state than greedy search — the hybrid
    design extension the paper's conclusion proposes.
    """

    def __init__(
        self,
        detector: MIMODetector,
        encoding: MIMOQuboEncoding,
        modelled_time_us: float = 1.0,
    ) -> None:
        require_non_negative(modelled_time_us, "modelled_time_us")
        self.detector = detector
        self.encoding = encoding
        self.modelled_time_us = float(modelled_time_us)
        self.name = f"detector-initializer({detector.name})"

    def solve(self, qubo: QUBOModel, rng: RandomState = None) -> QuboSolution:
        """Detect on the wrapped instance and express the result as QUBO bits."""
        symbols = self.detector.detect(self.encoding.instance)
        bits = self.encoding.symbols_to_bits(symbols)
        return QuboSolution(
            assignment=bits,
            energy=qubo.energy(bits),
            solver_name=self.name,
            compute_time_us=self.modelled_time_us,
            iterations=1,
            metadata={"detector": self.detector.name},
        )


class HybridMIMODetector:
    """End-to-end Large MIMO detection through the hybrid solver.

    The classical stage is the paper's Greedy Search.

    Parameters
    ----------
    sampler, switch_s, num_reads:
        Forwarded to :class:`HybridQuboSolver`.
    """

    def __init__(
        self,
        sampler: Optional[QuantumAnnealerSimulator] = None,
        switch_s: float = 0.41,
        num_reads: int = 100,
    ) -> None:
        self._solver = HybridQuboSolver(sampler=sampler, switch_s=switch_s, num_reads=num_reads)

    def detect(
        self, instance: MIMOInstance, rng: RandomState = None
    ) -> MIMODetectionResult:
        """Detect one MIMO instance; see :meth:`detect_with_details` for internals."""
        result, _ = self.detect_with_details(instance, rng)
        return result

    def detect_with_details(
        self, instance: MIMOInstance, rng: RandomState = None
    ) -> Tuple[MIMODetectionResult, HybridSolverResult]:
        """Detect and also return the underlying :class:`HybridSolverResult` (a batch of one)."""
        return self.detect_batch_with_details([instance], [ensure_rng(rng)])[0]

    def detect_batch(
        self, instances: Sequence[MIMOInstance], rng: BatchRandomState = None
    ) -> List[MIMODetectionResult]:
        """Detect a batch of independent MIMO instances through one submission."""
        return [result for result, _ in self.detect_batch_with_details(instances, rng)]

    def detect_batch_with_details(
        self, instances: Sequence[MIMOInstance], rng: BatchRandomState = None
    ) -> List[Tuple[MIMODetectionResult, HybridSolverResult]]:
        """Batched :meth:`detect_with_details`.

        Every reverse anneal of the batch is submitted as one vectorised
        ``sample_qubo_batch`` call.  Instance ``b`` draws only from child
        generator ``b``.
        """
        encodings = [mimo_to_qubo(instance) for instance in instances]
        results = self._solver.solve_batch([encoding.qubo for encoding in encodings], rng)
        return [
            (encoding.detection_result(result.best_assignment, algorithm="hybrid-gs-ra"), result)
            for encoding, result in zip(encodings, results)
        ]
