"""Experiment runners reproducing every figure of the paper's evaluation.

Each experiment module exposes a configuration dataclass, an
:class:`~repro.experiments.driver.ExperimentDriver` returning structured
results, and a ``format_*`` helper that prints the same rows/series the paper
reports.  The benchmark harness under ``benchmarks/`` is a thin wrapper over
these drivers; they can also be invoked from the command line via
``repro-experiments`` (see :mod:`repro.cli`).

Experiment index (see DESIGN.md for the full mapping):

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
:func:`~repro.experiments.driver.run_driver`.  :data:`DRIVERS` holds one
instance of each study's driver: the CLI builds a subcommand per entry, and
the ablation harness sweeps every entry that declares ``metric_names``.
"""

from repro.experiments.driver import ExperimentDriver, config_presets, run_driver
from repro.experiments.instances import (
    InstanceBundle,
    synthesize_instance,
    synthesize_instances,
    paper_figure6_configurations,
    variables_for,
)
from repro.experiments.fig3_simplification import (
    Figure3Config,
    Figure3Driver,
    Figure3Row,
    format_figure3_table,
)
from repro.experiments.fig6_distributions import (
    Figure6Config,
    Figure6Driver,
    Figure6Series,
    format_figure6_table,
)
from repro.experiments.fig7_initial_state import (
    Figure7Config,
    Figure7Driver,
    Figure7Row,
    format_figure7_table,
)
from repro.experiments.fig8_tts import (
    Figure8Config,
    Figure8Driver,
    Figure8Row,
    format_figure8_table,
)
from repro.experiments.headline import (
    HeadlineConfig,
    HeadlineDriver,
    HeadlineResult,
    format_headline_report,
)
from repro.experiments.pipeline_study import (
    PipelineStudyConfig,
    PipelineStudyDriver,
    PipelineStudyResult,
    format_pipeline_table,
)
from repro.experiments.ablation import (
    InitializerAblationConfig,
    InitializerAblationDriver,
    InitializerAblationRow,
    format_initializer_table,
    SoftConstraintConfig,
    SoftConstraintDriver,
    SoftConstraintRow,
    format_soft_constraint_table,
)
from repro.experiments.snr_study import (
    SNRStudyConfig,
    SNRStudyDriver,
    SNRStudyRow,
    format_snr_table,
)
from repro.experiments.pause_ablation import (
    PauseAblationConfig,
    PauseAblationDriver,
    PauseAblationRow,
    format_pause_table,
)
from repro.experiments.load_study import (
    LoadStudyConfig,
    LoadStudyDriver,
    LoadStudyRow,
    LoadStudyResult,
    format_load_study_table,
)
from repro.experiments.scenario_study import (
    ScenarioStudyConfig,
    ScenarioStudyDriver,
    ScenarioStudyRow,
    ScenarioStudyResult,
    format_scenario_table,
)
from repro.experiments.robustness_study import (
    ROBUSTNESS_AXES,
    RobustnessStudyConfig,
    RobustnessStudyDriver,
    RobustnessRow,
    format_robustness_table,
)
from repro.experiments.network_study import (
    PLACEMENTS,
    NetworkStudyConfig,
    NetworkStudyDriver,
    NetworkStudyRow,
    NetworkStudyResult,
    format_network_table,
)
from repro.experiments.qos_study import (
    QOS_ARMS,
    QoSStudyConfig,
    QoSStudyDriver,
    QoSStudyRow,
    QoSStudyResult,
    format_qos_table,
)

#: One driver instance per CLI study.
DRIVERS = (
    Figure3Driver(),
    Figure6Driver(),
    Figure7Driver(),
    Figure8Driver(),
    HeadlineDriver(),
    PipelineStudyDriver(),
    InitializerAblationDriver(),
    SoftConstraintDriver(),
    SNRStudyDriver(),
    PauseAblationDriver(),
    RobustnessStudyDriver(),
    LoadStudyDriver(),
    ScenarioStudyDriver(),
    NetworkStudyDriver(),
    QoSStudyDriver(),
)

__all__ = [
    "DRIVERS",
    "ExperimentDriver",
    "config_presets",
    "run_driver",
    "InstanceBundle",
    "synthesize_instance",
    "synthesize_instances",
    "paper_figure6_configurations",
    "variables_for",
    "Figure3Config",
    "Figure3Driver",
    "Figure3Row",
    "format_figure3_table",
    "Figure6Config",
    "Figure6Driver",
    "Figure6Series",
    "format_figure6_table",
    "Figure7Config",
    "Figure7Driver",
    "Figure7Row",
    "format_figure7_table",
    "Figure8Config",
    "Figure8Driver",
    "Figure8Row",
    "format_figure8_table",
    "HeadlineConfig",
    "HeadlineDriver",
    "HeadlineResult",
    "format_headline_report",
    "PipelineStudyConfig",
    "PipelineStudyDriver",
    "PipelineStudyResult",
    "format_pipeline_table",
    "InitializerAblationConfig",
    "InitializerAblationDriver",
    "InitializerAblationRow",
    "format_initializer_table",
    "SoftConstraintConfig",
    "SoftConstraintDriver",
    "SoftConstraintRow",
    "format_soft_constraint_table",
    "SNRStudyConfig",
    "SNRStudyDriver",
    "SNRStudyRow",
    "format_snr_table",
    "PauseAblationConfig",
    "PauseAblationDriver",
    "PauseAblationRow",
    "format_pause_table",
    "LoadStudyConfig",
    "LoadStudyDriver",
    "LoadStudyRow",
    "LoadStudyResult",
    "format_load_study_table",
    "ScenarioStudyConfig",
    "ScenarioStudyDriver",
    "ScenarioStudyRow",
    "ScenarioStudyResult",
    "format_scenario_table",
    "ROBUSTNESS_AXES",
    "RobustnessStudyConfig",
    "RobustnessStudyDriver",
    "RobustnessRow",
    "format_robustness_table",
    "PLACEMENTS",
    "NetworkStudyConfig",
    "NetworkStudyDriver",
    "NetworkStudyRow",
    "NetworkStudyResult",
    "format_network_table",
    "QOS_ARMS",
    "QoSStudyConfig",
    "QoSStudyDriver",
    "QoSStudyRow",
    "QoSStudyResult",
    "format_qos_table",
]
