"""The golden study table shared by ``scripts/regen_golden.py`` and
``tests/test_golden_regression.py``.

:data:`STUDIES` maps each fixture name in ``tests/golden/`` to a
zero-argument callable returning that study's result rows: every paper
study's quick configuration, the network study, the micro ablation study and
the single-instance entry points (see ``tests/entry_point_cases.py``) and
one evaluated serving run (``detect_serve_quick``, one row per job outcome).
Single-result studies (headline, pipeline) are stored as a one-row list.
"""

from __future__ import annotations

import dataclasses
import json

from repro.ablation import run_study
from repro.ablation.presets import ablation_quick_spec
from repro.annealing import QuantumAnnealerSimulator
from repro.experiments import (
    Figure3Config,
    Figure3Driver,
    Figure7Config,
    Figure7Driver,
    HeadlineConfig,
    HeadlineDriver,
    InitializerAblationConfig,
    InitializerAblationDriver,
    PauseAblationConfig,
    PauseAblationDriver,
    PipelineStudyConfig,
    PipelineStudyDriver,
    SoftConstraintConfig,
    SoftConstraintDriver,
)
from repro.experiments.driver import run_driver
from repro.experiments.fig6_distributions import Figure6Config, Figure6Driver
from repro.experiments.fig8_tts import Figure8Config, Figure8Driver
from repro.experiments.network_study import NetworkStudyConfig, NetworkStudyDriver
from repro.experiments.snr_study import SNRStudyConfig, SNRStudyDriver
from repro.serving import (
    AnnealerServingBackend,
    BackendPool,
    ClassicalServingBackend,
    RANServingSimulator,
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
    "single_entry_points": single_entry_point_rows,
    "snr_quick": lambda: run_driver(SNRStudyDriver(), SNRStudyConfig.quick()),
}


def rows_as_payload(rows) -> list:
    """Result rows (dataclasses or plain dicts) as JSON-compatible dicts (exact floats)."""
    return json.loads(
        json.dumps([row if isinstance(row, dict) else dataclasses.asdict(row) for row in rows])
    )
