"""Classical solvers: QUBO heuristics and conventional MIMO detectors.

Two families live here:

* **QUBO-domain solvers** operating on :class:`repro.qubo.QUBOModel`:
  the paper's Greedy Search (:class:`GreedySearchSolver`), an exhaustive
  solver for ground truth and simulated annealing.  All share the
  :class:`QuboSolver` interface and return :class:`QuboSolution` objects.

* **Signal-domain MIMO detectors** operating directly on the channel matrix:
  zero-forcing, MMSE, the fixed-complexity sphere decoder (FCSD) and the
  K-best sphere decoder — the "application-specific classical solvers" the
  paper's Section 5 proposes as richer initialisers for reverse annealing.
"""

from repro.classical.base import QuboSolver, QuboSolution, MIMODetector
from repro.classical.greedy import GreedySearchSolver, greedy_search
from repro.classical.exhaustive import ExhaustiveSolver
from repro.classical.simulated_annealing import SimulatedAnnealingSolver
from repro.classical.zero_forcing import ZeroForcingDetector
from repro.classical.mmse import MMSEDetector
from repro.classical.sphere_decoder import FixedComplexitySphereDecoder, KBestSphereDecoder

__all__ = [
    "QuboSolver",
    "QuboSolution",
    "MIMODetector",
    "GreedySearchSolver",
    "greedy_search",
    "ExhaustiveSolver",
    "SimulatedAnnealingSolver",
    "ZeroForcingDetector",
    "MMSEDetector",
    "FixedComplexitySphereDecoder",
    "KBestSphereDecoder",
]
