"""The cell-network layer: topology, aggregate traffic, detection, embedding.

Serving used to treat "cells" as bare integer ids threaded through ad-hoc
dicts; this package promotes them to a first-class layer that the rest of the
stack (wireless interference coupling, serving scenarios, experiments, CLI)
is wired onto:

* :mod:`repro.network.topology` — :class:`Cell` and :class:`NetworkTopology`
  (line / grid / hex layouts with explicit neighbour graphs and positions).
* :mod:`repro.network.aggregate` — hierarchical traffic aggregation: per-cell
  inhomogeneous Poisson *counters* for city-scale populations (O(cells x
  windows) memory, never O(users) objects) plus cell-level job
  materialisation for the few cells a detector singles out.
* :mod:`repro.network.kpi` — the per-cell KPI/O&M metric stream and the
  EWMA/z-score :class:`HotspotDetector` that localises emerging flash crowds
  from counters alone (no ground-truth intensities).
* :mod:`repro.network.embedding` — static / oracle / reactive virtual
  annealer-capacity placements and the deterministic fluid serving model the
  network study scores them under.

Every component follows the library-wide reproducibility discipline: all
randomness enters through explicit seeds.  A serving scenario built without
a topology sits on a line of cells (see ``docs/network.md``).
"""
