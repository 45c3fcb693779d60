"""repro — hybrid classical-quantum computation structures for wireless systems.

A from-scratch reproduction of Kim, Venturelli & Jamieson, *Towards Hybrid
Classical-Quantum Computation Structures in Wirelessly-Networked Systems*
(HotNets 2020).  The library provides:

* a wireless PHY substrate (modulations, channels, MIMO link simulation) —
  :mod:`repro.wireless`;
* the QUBO/Ising substrate and the QuAMax MIMO-to-QUBO reduction —
  :mod:`repro.qubo`, :mod:`repro.transform`;
* classical solvers and detectors (greedy search, SA, ZF, MMSE, sphere
  decoders) — :mod:`repro.classical`;
* a software quantum-annealer simulator with forward / reverse /
  forward-reverse schedules and a device model — :mod:`repro.annealing`;
* the paper's hybrid GS + reverse-annealing solver, parameter sweeps and the
  Figure-2 pipeline simulator — :mod:`repro.hybrid`;
* the deadline-aware RAN serving subsystem (multi-user workloads, EDF/FIFO
  scheduling, heterogeneous backend pool, load studies) — :mod:`repro.serving`;
* the paper's metrics (ΔE%, success probability, TTS) — :mod:`repro.metrics`;
* runnable reproductions of every evaluation figure — :mod:`repro.experiments`.

Quickstart::

    from repro.wireless import MIMOConfig, simulate_transmission
    from repro.hybrid.solver import HybridMIMODetector

    transmission = simulate_transmission(MIMOConfig(num_users=4, modulation="16-QAM"), rng=1)
    detector = HybridMIMODetector(num_reads=200)
    result = detector.detect(transmission.instance, rng=2)
    print(result.symbols, result.objective_value)
"""

from repro.exceptions import (
    ReproError,
    ConfigurationError,
    DimensionError,
    ModulationError,
    ScheduleError,
    SolverError,
    TransformError,
    PipelineError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "DimensionError",
    "ModulationError",
    "ScheduleError",
    "SolverError",
    "TransformError",
    "PipelineError",
]
