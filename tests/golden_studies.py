"""The golden study table shared by ``scripts/regen_golden.py`` and
``tests/test_golden_regression.py``.

:data:`STUDIES` maps each fixture name in ``tests/golden/`` to a
zero-argument callable returning that study's result rows: every paper
study's quick configuration, the network study, the micro ablation study and
the single-instance entry points (see ``tests/entry_point_cases.py``) and
one evaluated serving run (``detect_serve_quick``, one row per job outcome).
``robustness_quick`` pins the one channel-impairment path: a
:class:`~repro.wireless.fading.FadingProcess` feeding
``simulate_transmission(..., channel_matrix=...)``.
Single-result studies (headline, pipeline) are stored as a one-row list.

Three serving schedules are pinned shard by shard, one row per job of every
serving report (``serve_quick``, ``qos_stress``, ``scenarios_stress``): the
worker, start, finish and demotion flag of each job.  The stress presets
overload the plant so the fixtures cover demotions, sheddable-class offload,
deadline misses, handover and autoscaling with warm-ups in flight (checked in
``tests/test_golden_regression.py``).  ``scenarios_catalog`` holds the
scenario study's rows over the whole catalog on four cells, so the
hotspot-drift and cell-outage phases are pinned too; ``qos_catalog`` holds
the QoS study's rows over the same catalog, overloaded so that both arms
miss deadlines and demote jobs.
"""

from __future__ import annotations

import dataclasses
import json

from repro.ablation import run_study
from repro.ablation.presets import ablation_quick_spec
from repro.annealing import QuantumAnnealerSimulator
from repro.experiments.fig3_simplification import Figure3Config, Figure3Driver
from repro.experiments.fig7_initial_state import Figure7Config, Figure7Driver
from repro.experiments.headline import HeadlineConfig, HeadlineDriver
from repro.experiments.ablation import (
    InitializerAblationConfig,
    InitializerAblationDriver,
    SoftConstraintConfig,
    SoftConstraintDriver,
)
from repro.experiments.pause_ablation import PauseAblationConfig, PauseAblationDriver
from repro.experiments.pipeline_study import PipelineStudyConfig, PipelineStudyDriver
from repro.experiments.driver import run_driver
from repro.experiments.fig6_distributions import Figure6Config, Figure6Driver
from repro.experiments.fig8_tts import Figure8Config, Figure8Driver
from repro.experiments.load_study import LoadStudyConfig, LoadStudyDriver
from repro.experiments.network_study import NetworkStudyConfig, NetworkStudyDriver
from repro.experiments.qos_study import QoSStudyConfig, QoSStudyDriver
from repro.experiments.robustness_study import RobustnessStudyConfig, RobustnessStudyDriver
from repro.experiments.scenario_study import ScenarioStudyConfig, ScenarioStudyDriver
from repro.experiments.snr_study import SNRStudyConfig, SNRStudyDriver
from repro.serving import (
    SCENARIO_NAMES,
    AnnealerServingBackend,
    BackendPool,
    ClassicalServingBackend,
    RANServingSimulator,
    ServingReport,
    generate_serving_jobs,
    uniform_cell_profiles,
)
from repro.wireless import MIMOConfig
from tests.entry_point_cases import single_entry_point_rows


def detect_serve_quick_outcomes():
    """A small evaluated run of the detect-serve plant: every job outcome.

    Three cells of three users (2-user QPSK, 2-user 16-QAM, 4-user 16-QAM),
    cell 2 at 3x load, ten jobs per user, two reverse-annealing workers and
    one simulated-annealing fallback with admission control on.  The 400 us
    turnaround budget is tight enough that admission control demotes jobs,
    so both backends' solve paths are pinned.
    """
    profiles = uniform_cell_profiles(
        num_cells=3,
        users_per_cell=3,
        configs=[MIMOConfig(2, "QPSK"), MIMOConfig(2, "16-QAM"), MIMOConfig(4, "16-QAM")],
        symbol_period_us=120.0,
        turnaround_budget_us=400.0,
        cell_load_factors=[1.0, 1.0, 3.0],
    )
    jobs = generate_serving_jobs(profiles, 10, rng=2024)
    sampler = QuantumAnnealerSimulator(seed=7)
    annealer = AnnealerServingBackend(sampler=sampler, num_reads=50, lanes=4)
    simulator = RANServingSimulator(
        pool=BackendPool([annealer] * 2 + [ClassicalServingBackend()]),
        policy="edf",
        max_batch_size=4,
        admission_control=True,
        evaluate_solutions=True,
    )
    return simulator.run(jobs, rng=99).outcomes


#: The QoS study overloaded: one annealer worker, full-length reads and a
#: 60 us symbol period demote jobs in both arms and miss deadlines in each.
QOS_STRESS = dataclasses.replace(
    QoSStudyConfig.quick(),
    base_symbol_period_us=60.0,
    max_jobs_per_user=200,
    num_reads=30,
    annealer_workers=1,
)

#: The QoS study over the whole catalog on four cells, overloaded (60 us
#: symbol period, full-length reads) so both arms miss and demote.
QOS_CATALOG = dataclasses.replace(
    QoSStudyConfig.quick(),
    num_cells=4,
    base_symbol_period_us=60.0,
    max_jobs_per_user=200,
    num_reads=30,
    scenarios=SCENARIO_NAMES,
)

#: The scenario study overloaded, with warm-ups (700 us) longer than the
#: autoscaler's 500 us cooldown, so scaling acts while a warm-up is in flight.
SCENARIOS_STRESS = dataclasses.replace(
    ScenarioStudyConfig.quick(),
    base_symbol_period_us=60.0,
    max_jobs_per_user=200,
    num_reads=30,
    static_workers=1,
    warmup_us=700.0,
)

#: The scenario study over the whole catalog on four cells, one static worker.
SCENARIOS_CATALOG = dataclasses.replace(
    ScenarioStudyConfig.quick(),
    num_cells=4,
    base_symbol_period_us=60.0,
    static_workers=1,
    scenarios=SCENARIO_NAMES,
)


def serving_schedule_rows(driver, config):
    """The schedule of every serving report of every shard, one row per job.

    A shard returning several reports (the load study's serialized and
    pooled plants) labels each with its position in the shard's result.
    """
    rows = []
    for task in driver.tasks(config):
        result = task.fn(**task.kwargs)
        results = result if isinstance(result, tuple) else (result,)
        for position, report in enumerate(results):
            if not isinstance(report, ServingReport):
                continue
            parts = task.key[1:] + ((position,) if isinstance(result, tuple) else ())
            shard = "/".join(str(part) for part in parts)
            rows.extend(
                {
                    "shard": shard,
                    "job_id": outcome.job_id,
                    "backend": outcome.backend,
                    "start_us": outcome.start_us,
                    "finish_us": outcome.finish_us,
                    "demoted": outcome.demoted,
                }
                for outcome in report.outcomes
            )
    return rows


#: Fixture name -> zero-argument callable returning a list of result rows.
STUDIES = {
    "ablation_quick": lambda: run_study(ablation_quick_spec()).table_rows(),
    "ablation_quick_initializers": lambda: run_driver(
        InitializerAblationDriver(), InitializerAblationConfig.quick()
    ),
    "constraints_quick": lambda: run_driver(SoftConstraintDriver(), SoftConstraintConfig.quick()),
    "detect_serve_quick": detect_serve_quick_outcomes,
    # Figure3Config has no quick preset: ``fig3 --quick`` runs the default.
    "fig3_quick": lambda: run_driver(Figure3Driver(), Figure3Config()),
    "fig6_quick": lambda: run_driver(Figure6Driver(), Figure6Config.quick()),
    "fig7_quick": lambda: run_driver(Figure7Driver(), Figure7Config.quick()),
    "fig8_quick": lambda: run_driver(Figure8Driver(), Figure8Config.quick()),
    "headline_quick": lambda: [run_driver(HeadlineDriver(), HeadlineConfig.quick())],
    "network_quick": lambda: run_driver(NetworkStudyDriver(), NetworkStudyConfig.quick()).rows,
    "pause_quick": lambda: run_driver(PauseAblationDriver(), PauseAblationConfig.quick()),
    "pipeline_quick": lambda: [run_driver(PipelineStudyDriver(), PipelineStudyConfig.quick())],
    "qos_catalog": lambda: run_driver(QoSStudyDriver(), QOS_CATALOG).rows,
    "qos_stress": lambda: serving_schedule_rows(QoSStudyDriver(), QOS_STRESS),
    "robustness_quick": lambda: run_driver(RobustnessStudyDriver(), RobustnessStudyConfig.quick()),
    "scenarios_catalog": lambda: run_driver(ScenarioStudyDriver(), SCENARIOS_CATALOG).rows,
    "scenarios_stress": lambda: serving_schedule_rows(ScenarioStudyDriver(), SCENARIOS_STRESS),
    "serve_quick": lambda: serving_schedule_rows(LoadStudyDriver(), LoadStudyConfig.quick()),
    "single_entry_points": single_entry_point_rows,
    "snr_quick": lambda: run_driver(SNRStudyDriver(), SNRStudyConfig.quick()),
}


def rows_as_payload(rows) -> list:
    """Result rows (dataclasses or plain dicts) as JSON-compatible dicts (exact floats)."""
    return json.loads(
        json.dumps([row if isinstance(row, dict) else dataclasses.asdict(row) for row in rows])
    )
