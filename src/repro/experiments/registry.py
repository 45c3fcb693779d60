"""The study table: one driver instance per CLI study.

The CLI builds a subcommand per :data:`DRIVERS` entry, and the ablation
harness sweeps every entry that declares ``metric_names``.  Importing this
module loads all 15 studies; a caller that runs one study imports its module
instead.
"""

from repro.experiments.ablation import InitializerAblationDriver, SoftConstraintDriver
from repro.experiments.fig3_simplification import Figure3Driver
from repro.experiments.fig6_distributions import Figure6Driver
from repro.experiments.fig7_initial_state import Figure7Driver
from repro.experiments.fig8_tts import Figure8Driver
from repro.experiments.headline import HeadlineDriver
from repro.experiments.load_study import LoadStudyDriver
from repro.experiments.network_study import NetworkStudyDriver
from repro.experiments.pause_ablation import PauseAblationDriver
from repro.experiments.pipeline_study import PipelineStudyDriver
from repro.experiments.qos_study import QoSStudyDriver
from repro.experiments.robustness_study import RobustnessStudyDriver
from repro.experiments.scenario_study import ScenarioStudyDriver
from repro.experiments.snr_study import SNRStudyDriver

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
