"""Solver interfaces shared by the classical stack.

The hybrid architecture (paper Figure 1) composes *classical processing
units* with *quantum processing units*.  Classical QUBO solvers implement the
:class:`QuboSolver` interface and return :class:`QuboSolution` objects, which
record not just the bitstring and energy but also the compute time the
pipeline simulator charges for the classical stage.  Classical MIMO detectors
that work in the signal domain (zero-forcing, MMSE, sphere decoders) implement
:class:`MIMODetector`; the hybrid solver bridges them into QUBO initial states
through the encoding's ``symbols_to_bits``.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from repro.qubo.model import QUBOModel
from repro.utils.rng import BatchRandomState, RandomState
from repro.wireless.mimo import MIMOInstance

__all__ = ["QuboSolution", "QuboSolver", "MIMODetector", "timed_call"]


@dataclass(frozen=True)
class QuboSolution:
    """Result of running a classical QUBO solver once.

    Attributes
    ----------
    assignment:
        The best 0/1 assignment found.
    energy:
        Its QUBO energy (including the model offset).
    solver_name:
        Which algorithm produced it.
    compute_time_us:
        Modelled (or measured) compute time in microseconds; the pipeline
        simulator uses this for stage latency accounting.
    iterations:
        Number of elementary iterations/sweeps the solver performed.
    metadata:
        Free-form extras (e.g. restart statistics).
    """

    assignment: np.ndarray
    energy: float
    solver_name: str
    compute_time_us: float = 0.0
    iterations: int = 0
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int8).ravel()
        object.__setattr__(self, "assignment", assignment)

    @property
    def num_variables(self) -> int:
        """Length of the assignment."""
        return int(self.assignment.size)


class QuboSolver(abc.ABC):
    """Abstract classical QUBO solver."""

    #: Human-readable solver name used in results and reports.
    name: str = "qubo-solver"

    @abc.abstractmethod
    def solve(self, qubo: QUBOModel, rng: RandomState = None) -> QuboSolution:
        """Minimise the QUBO and return the best solution found."""

    def solve_batch(self, qubos: Sequence[QUBOModel], rng: BatchRandomState = None) -> list:
        """Solve a batch of *independent* QUBO instances.

        ``rng`` is a root seed (spawned into one child generator per instance
        via :func:`repro.utils.rng.ensure_rng_batch`) or an explicit sequence
        of per-instance generators.  Instance ``b`` consumes randomness only
        from child ``b``, so results do not depend on how a workload is split
        into batches, and a batch of one is bitwise-identical to
        :meth:`solve` with the same child generator.

        This default implementation is the sequential loop; solvers with a
        vectorised multi-instance kernel (e.g.
        :class:`repro.classical.SimulatedAnnealingSolver`) override it while
        preserving the same contract.
        """
        from repro.utils.rng import ensure_rng_batch

        children = ensure_rng_batch(rng, len(qubos))
        return [self.solve(qubo, child) for qubo, child in zip(qubos, children)]


class MIMODetector(abc.ABC):
    """Abstract signal-domain MIMO detector."""

    #: Human-readable detector name.
    name: str = "mimo-detector"

    @abc.abstractmethod
    def detect(self, instance: MIMOInstance) -> np.ndarray:
        """Return the detected symbol vector (hard decisions on the constellation)."""


def timed_call(function, *args, **kwargs):
    """Call a function and return ``(result, elapsed_microseconds)``.

    Used by solvers that report *measured* rather than modelled compute time.
    """
    start = time.perf_counter()
    result = function(*args, **kwargs)
    elapsed_us = (time.perf_counter() - start) * 1e6
    return result, elapsed_us
