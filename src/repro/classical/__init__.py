"""Classical solvers: QUBO heuristics and conventional MIMO detectors.

Two families live here:

* **QUBO-domain solvers** operating on :class:`repro.qubo.model.QUBOModel`:
  the paper's Greedy Search
  (:class:`~repro.classical.greedy.GreedySearchSolver`), an exhaustive
  solver for ground truth and simulated annealing.  All share the
  :class:`~repro.classical.base.QuboSolver` interface and return
  :class:`~repro.classical.base.QuboSolution` objects.

* **Signal-domain MIMO detectors** operating directly on the channel matrix:
  zero-forcing, MMSE, the fixed-complexity sphere decoder (FCSD) and the
  K-best sphere decoder — the "application-specific classical solvers" the
  paper's Section 5 proposes as richer initialisers for reverse annealing.
"""
