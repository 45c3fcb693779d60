"""The paper's primary contribution: hybrid classical-quantum processing.

* :mod:`repro.hybrid.solver` — the GS + reverse-annealing hybrid QUBO solver
  (paper Sec. 4.1) and its end-to-end MIMO detection wrapper, with pluggable
  classical initialisers (greedy search, linear detectors, sphere decoders).
* :mod:`repro.hybrid.parameters` — sweeps and selection of the schedule
  parameters s_p / c_p the paper identifies as Design Challenge 2.
* :mod:`repro.hybrid.pipeline` — the staged classical/quantum pipeline over
  successive channel uses sketched in paper Figure 2 (Design Challenge 3).
"""
