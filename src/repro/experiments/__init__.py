"""Experiment runners reproducing every figure of the paper's evaluation.

Each experiment module exposes a configuration dataclass, an
:class:`~repro.experiments.driver.ExperimentDriver` returning structured
results, and a ``format_*`` helper that prints the same rows/series the paper
reports.  The benchmark harness under ``benchmarks/`` is a thin wrapper over
these drivers; they can also be invoked from the command line via
``repro-experiments`` (see :mod:`repro.cli`).

Experiment index (``docs/experiments.md`` documents each study):

========  ==========================================================
E-F3      Figure 3 — QUBO simplification by variable prefixing
E-F6      Figure 6 — ΔE% distributions of FA / RA(random) / RA(GS)
E-F7      Figure 7 — RA performance vs initial-state quality ΔE_IS%
E-F8      Figure 8 — p* and TTS vs s_p for FA / FR / RA
E-HL      Headline — RA vs FA speedup (2-10x claim)
E-F2      Figure 2 — pipelined classical/quantum processing
E-F4      Figure 4 — soft-information constraints (ablation)
E-AB1     Ablation — initialiser quality (GS / ZF / MMSE / sphere)
E-X1      Extension — BER vs SNR under AWGN
E-X2      Extension — the power of pausing (pause-duration ablation)
E-X3      Extension — detection robustness under channel impairments
          (correlation, Doppler, imperfect CSI, interference)
E-SV      Serving — deadline-miss rate vs offered load across the
          serialized / pipelined / pooled serving architectures
E-SC      Scenarios — static vs autoscaled pools across the
          time-varying network scenario catalog
E-QS      QoS — classless vs class-aware serving of a mixed
          urllc/embb/best-effort population with handover
========  ==========================================================

Every study has one entry path, ``run_driver(XDriver(), XConfig)``: an
:class:`~repro.experiments.driver.ExperimentDriver` (``tasks`` /
``aggregate`` / ``metrics``) executed by
:func:`~repro.experiments.driver.run_driver`.
:data:`repro.experiments.registry.DRIVERS` holds one instance of each study's
driver: the CLI builds a subcommand per entry, and the ablation harness sweeps
every entry that declares ``metric_names``.  This package re-exports nothing,
so importing one study loads only that study.
"""
