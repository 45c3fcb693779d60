"""Tests for multi-service QoS classes, handover and the QoS study.

Covers the serving layer's QoS contract: the service-class catalog and its
validation, the degradation boundary that class-aware batching must never
cross, bitwise identity of the class-aware machinery on single-class
workloads, handover determinism (the mobility seed tree never perturbs the
traffic draws), per-class report edge cases, and the E-QS experiment
(classless vs class-aware arms, serial == sharded).
"""

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.registry import DRIVERS
from repro.experiments.driver import config_presets, run_driver
from repro.experiments.qos_study import (
    _SERVICE_CLASSES,
    QoSStudyConfig,
    QoSStudyDriver,
    format_qos_table,
)
from repro.network.topology import build_topology
from repro.serving import (
    BEST_EFFORT,
    DEFAULT_CLASS,
    EMBB,
    SERVICE_CLASSES,
    URLLC,
    AnnealerServingBackend,
    BackendPool,
    ClassicalServingBackend,
    EdfPolicy,
    HandoverModel,
    RANServingSimulator,
    ServiceClass,
    ServingJob,
    build_scenario,
    generate_serving_jobs,
    resolve_service_class,
    select_batch,
    uniform_cell_profiles,
)
from repro.serving.report import JobOutcome, build_serving_report
from repro.wireless.mimo import MIMOConfig, simulate_transmission
from repro.wireless.traffic import ChannelUse


# ---------------------------------------------------------------------- #
# Service-class catalog
# ---------------------------------------------------------------------- #


class TestServiceClass:
    def test_catalog_names_resolve_to_their_instances(self):
        assert resolve_service_class("urllc") is URLLC
        assert resolve_service_class("embb") is EMBB
        assert resolve_service_class("best_effort") is BEST_EFFORT
        assert resolve_service_class("default") is DEFAULT_CLASS
        assert set(SERVICE_CLASSES) == {"default", "urllc", "embb", "best_effort"}

    def test_none_resolves_to_the_legacy_default(self):
        assert resolve_service_class(None) is DEFAULT_CLASS
        assert DEFAULT_CLASS.turnaround_budget_us is None
        assert DEFAULT_CLASS.demotable and not DEFAULT_CLASS.sheddable

    def test_instances_pass_through(self):
        custom = ServiceClass(name="gold", priority=0, demotable=False)
        assert resolve_service_class(custom) is custom

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(ConfigurationError, match="best_effort"):
            resolve_service_class("platinum")

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigurationError, match="int"):
            resolve_service_class(3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", priority=0),
            dict(name="x", priority=-1),
            dict(name="x", priority=0, turnaround_budget_us=0.0),
            dict(name="x", priority=0, turnaround_budget_us=-5.0),
            # Shedding is a stronger degradation than demotion.
            dict(name="x", priority=0, demotable=False, sheddable=True),
        ],
    )
    def test_invalid_definitions_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServiceClass(**kwargs)

    def test_degradation_tiers(self):
        assert URLLC.degradation_tier == 0  # protected
        assert EMBB.degradation_tier == 1
        assert BEST_EFFORT.degradation_tier == 1
        assert DEFAULT_CLASS.degradation_tier == 1


# ---------------------------------------------------------------------- #
# Class-aware scheduling and the degradation batching boundary
# ---------------------------------------------------------------------- #


def _job(job_id, arrival_us, deadline_us, rng, service_class=DEFAULT_CLASS, modulation="QPSK"):
    transmission = simulate_transmission(MIMOConfig(2, modulation), rng=rng)
    use = ChannelUse(
        index=job_id,
        arrival_time_us=arrival_us,
        transmission=transmission,
        deadline_us=deadline_us,
    )
    return ServingJob(
        job_id=job_id, user_id=job_id, cell_id=0, channel_use=use, service_class=service_class
    )


class TestClassAwareScheduling:
    def test_priority_prefixes_the_deadline_order(self, rng):
        lax_urllc = _job(0, 0.0, 900.0, rng, service_class=URLLC)
        urgent_bulk = _job(1, 0.0, 100.0, rng, service_class=BEST_EFFORT)
        assert min([urgent_bulk, lax_urllc], key=EdfPolicy().key) is lax_urllc
        # Class-blind EDF falls back to the absolute deadlines.
        blind = EdfPolicy(class_aware=False)
        assert min([urgent_bulk, lax_urllc], key=blind.key) is urgent_bulk

    def test_protected_jobs_never_cobatch_with_degradable_ones(self, rng):
        # Same physical shape on both sides of the degradation boundary: the
        # class-aware coalescer must keep them apart even with batch room.
        queue = [
            _job(0, 0.0, 250.0, rng, service_class=URLLC),
            _job(1, 1.0, 250.0, rng, service_class=URLLC),
            _job(2, 2.0, 900.0, rng, service_class=EMBB),
            _job(3, 3.0, 2500.0, rng, service_class=BEST_EFFORT),
        ]
        batch = select_batch(queue, EdfPolicy(), max_batch_size=8)
        assert [job.job_id for job in batch] == [0, 1]
        assert all(job.service_class.degradation_tier == 0 for job in batch)
        # The degradable remainder coalesces freely across classes.
        second = select_batch(queue, EdfPolicy(), max_batch_size=8)
        assert [job.job_id for job in second] == [2, 3]
        assert {job.service_class.name for job in second} == {"embb", "best_effort"}

    def test_class_blind_batching_ignores_the_boundary(self, rng):
        queue = [
            _job(0, 0.0, 250.0, rng, service_class=URLLC),
            _job(1, 1.0, 900.0, rng, service_class=EMBB),
        ]
        batch = select_batch(
            queue, EdfPolicy(class_aware=False), max_batch_size=8, class_aware=False
        )
        assert [job.job_id for job in batch] == [0, 1]

    def test_compat_key_extends_shape_key_with_the_tier(self, rng):
        protected = _job(0, 0.0, 250.0, rng, service_class=URLLC)
        degradable = _job(1, 0.0, 900.0, rng, service_class=EMBB)
        assert protected.shape_key == degradable.shape_key
        assert protected.compat_key != degradable.compat_key
        assert protected.compat_key == protected.shape_key + (0,)


# ---------------------------------------------------------------------- #
# Single-class identity: class-aware machinery reproduces legacy bitwise
# ---------------------------------------------------------------------- #


def _default_class_workload():
    profiles = uniform_cell_profiles(
        num_cells=2,
        users_per_cell=2,
        configs=[MIMOConfig(2, "QPSK"), MIMOConfig(2, "16-QAM")],
        symbol_period_us=60.0,
        arrival_process="poisson",
        turnaround_budget_us=400.0,
    )
    return generate_serving_jobs(profiles, jobs_per_user=6, rng=11)


def _pool():
    return BackendPool(
        [AnnealerServingBackend(num_reads=8, lanes=2), ClassicalServingBackend()]
    )


class TestSingleClassIdentity:
    def test_class_aware_flag_is_bitwise_invisible_on_default_class_jobs(self):
        jobs = _default_class_workload()
        aware = RANServingSimulator(pool=_pool(), max_batch_size=4, class_aware=True).run(
            jobs, rng=5
        )
        blind = RANServingSimulator(pool=_pool(), max_batch_size=4, class_aware=False).run(
            jobs, rng=5
        )
        assert aware.outcomes == blind.outcomes
        assert aware.deadline_miss_rate == blind.deadline_miss_rate
        assert aware.mean_batch_size == blind.mean_batch_size

    def test_default_class_jobs_report_one_class_slice(self):
        report = RANServingSimulator(pool=_pool(), max_batch_size=4).run(
            _default_class_workload(), rng=5
        )
        assert [entry.service_class for entry in report.class_reports] == ["default"]
        assert report.class_reports[0].jobs == report.num_jobs


# ---------------------------------------------------------------------- #
# Handover determinism
# ---------------------------------------------------------------------- #


def _mobile_workload(velocity_mps, seed=3, jobs_per_user=8):
    topology = build_topology("grid", 2, 2)
    scenario = build_scenario("steady", 4, horizon_us=800.0, topology=topology)
    profiles = uniform_cell_profiles(
        num_cells=4,
        users_per_cell=2,
        configs=[MIMOConfig(2, "QPSK")],
        symbol_period_us=80.0,
        topology=topology,
    )
    handover = (
        HandoverModel(velocity_mps=velocity_mps, cell_radius_m=250.0, seed=9)
        if velocity_mps is not None
        else None
    )
    return generate_serving_jobs(
        profiles, jobs_per_user=jobs_per_user, rng=seed, scenario=scenario, handover=handover
    )


#: Fluid-flow crossing rates are per-microsecond, so physical velocities
#: yield ~zero crossings over a ms-scale horizon; tests (like the QoS study)
#: compress time to make crossings observable.
_FAST = 30.0 * 1e4


class TestHandover:
    def test_zero_velocity_reproduces_the_static_workload(self):
        static = _mobile_workload(None)
        parked = _mobile_workload(0.0)
        assert [job.cell_id for job in parked] == [job.cell_id for job in static]
        assert [job.arrival_us for job in parked] == [job.arrival_us for job in static]
        assert not any(job.handed_over for job in parked)
        # home_cell_id is only stamped when mobility is modelled.
        assert all(job.home_cell_id is None for job in static)

    def test_velocity_sweep_never_shifts_the_traffic_draws(self):
        slow = _mobile_workload(_FAST / 4)
        fast = _mobile_workload(_FAST)
        assert [job.arrival_us for job in slow] == [job.arrival_us for job in fast]
        assert [job.deadline_us for job in slow] == [job.deadline_us for job in fast]
        np.testing.assert_array_equal(
            slow[5].channel_use.transmission.instance.received,
            fast[5].channel_use.transmission.instance.received,
        )

    def test_fast_users_hand_over_to_topology_neighbours(self):
        topology = build_topology("grid", 2, 2)
        jobs = _mobile_workload(_FAST)
        moved = [job for job in jobs if job.handed_over]
        assert moved  # the compressed velocity guarantees crossings
        for job in jobs:
            assert job.home_cell_id is not None
            assert 0 <= job.cell_id < topology.num_cells

    def test_handover_reproducible(self):
        first = _mobile_workload(_FAST)
        second = _mobile_workload(_FAST)
        assert [job.cell_id for job in first] == [job.cell_id for job in second]
        assert [job.home_cell_id for job in first] == [job.home_cell_id for job in second]

    def test_handover_requires_a_topology(self):
        profiles = uniform_cell_profiles(
            num_cells=2, users_per_cell=1, configs=[MIMOConfig(2, "QPSK")]
        )
        handover = HandoverModel(velocity_mps=_FAST)
        for scenario in (None, build_scenario("steady", 2)):
            with pytest.raises(ConfigurationError, match="topology"):
                generate_serving_jobs(
                    profiles, jobs_per_user=2, rng=0, scenario=scenario, handover=handover
                )

    def test_negative_velocity_rejected(self):
        with pytest.raises(ConfigurationError):
            HandoverModel(velocity_mps=-1.0)


# ---------------------------------------------------------------------- #
# Per-class report edge cases
# ---------------------------------------------------------------------- #


def _outcome(job_id, service_class, demoted=False, met_deadline=True):
    return JobOutcome(
        job_id=job_id,
        user_id=job_id,
        cell_id=0,
        arrival_us=float(job_id),
        start_us=float(job_id) + 1.0,
        finish_us=float(job_id) + 2.0,
        deadline_us=float(job_id) + 10.0,
        met_deadline=met_deadline,
        backend="stub",
        backend_kind="classical" if demoted else "annealer",
        demoted=demoted,
        batch_size=1,
        service_class=service_class,
    )


class TestPerClassReports:
    def test_absent_class_has_no_entry(self):
        report = build_serving_report(
            [_outcome(0, "urllc"), _outcome(1, "urllc")], policy="edf", backend_utilization=()
        )
        assert [entry.service_class for entry in report.class_reports] == ["urllc"]
        assert report.class_report("best_effort") is None

    def test_all_demoted_class_reports_full_demotion(self):
        outcomes = [
            _outcome(0, "embb", demoted=True, met_deadline=False),
            _outcome(1, "embb", demoted=True),
            _outcome(2, "urllc"),
        ]
        report = build_serving_report(outcomes, policy="edf", backend_utilization=())
        embb = report.class_report("embb")
        assert embb.demotion_rate == 1.0
        assert embb.missed_jobs == 1
        assert embb.deadline_miss_rate == pytest.approx(0.5)
        assert report.class_report("urllc").demotion_rate == 0.0

    def test_empty_run_has_no_class_slices(self):
        report = build_serving_report([], policy="edf", backend_utilization=())
        assert report.class_reports == ()
        assert report.class_report("default") is None


# ---------------------------------------------------------------------- #
# The E-QS study
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def quick_result():
    return run_driver(QoSStudyDriver(), QoSStudyConfig.quick())


_BAD_OVERRIDES = [
    dict(scenarios=()),
    dict(scenarios=("rush-hour",)),
    dict(annealer_workers=0),
]

#: Fields the study configs reject, as (study name, overrides); the QoS
#: cases come first.
_REJECTED_FIELDS = [("qos", overrides) for overrides in _BAD_OVERRIDES] + [
    ("serve", dict(load_factors=())),
    ("serve", dict(load_factors=(-1.0,))),
    ("scenarios", dict(scenarios=())),
    ("scenarios", dict(static_workers=0)),
    ("scenarios", dict(scenarios=("rush-hour",))),
    ("scenarios", dict(warmup_us=-1.0)),
    ("network", dict(placements=())),
    ("network", dict(placements=("random",))),
    ("network", dict(migration_fraction=1.5)),
    ("network", dict(detail_max_jobs_per_cell=-1)),
    ("fig8", dict(switch_values=())),
    ("robustness", dict(channel_uses_per_point=0)),
    (
        "robustness",
        dict(correlation_grid=(), velocity_grid_mps=(), csi_error_grid=(), interference_grid=()),
    ),
    ("fig3", dict(instances_per_point=0)),
    ("fig3", dict(user_counts={"QPSK": ()})),
    ("fig6", dict(modulations=())),
    ("fig7", dict(candidates_per_bin=0)),
    ("headline", dict(switch_values=())),
    ("pipeline", dict(num_channel_uses=0)),
    ("ablation", dict(initializers=("greedy", "oracle"))),
    ("ablation", dict(initializers=())),
    ("constraints", dict(strengths=(-1.0,))),
    ("snr", dict(snr_grid_db=())),
    ("snr", dict(channel_uses_per_point=0)),
    ("pause", dict(pause_durations_us=(-1.0,))),
]

#: Values the study configs rejected before these fields became module
#: constants, as (study name, overrides); a spec naming one is now rejected
#: as an unknown field.
_CUT_FIELDS = [
    ("qos", dict(service_classes=())),
    ("qos", dict(service_classes=("platinum",))),
    ("scenarios", dict(min_workers=4)),
    ("network", dict(topology_kind="torus")),
    ("network", dict(scenario="rush-hour")),
    ("network", dict(utilization=1.0)),
    ("network", dict(min_capacity_fraction=-0.1)),
]


class TestQoSStudy:
    def test_one_row_per_scenario_and_class(self, quick_result):
        config = QoSStudyConfig.quick()
        scenarios = [row.scenario for row in quick_result.rows]
        assert list(dict.fromkeys(scenarios)) == list(config.scenarios)
        for name in config.scenarios:
            classes = {row.service_class for row in quick_result.rows if row.scenario == name}
            assert classes == set(_SERVICE_CLASSES)

    def test_rows_are_sane(self, quick_result):
        for row in quick_result.rows:
            assert row.jobs > 0
            assert 0.0 <= row.handover_fraction <= 1.0
            for rate in (row.classless_miss_rate, row.aware_miss_rate):
                assert rate is None or 0.0 <= rate <= 1.0
            assert row.classless_p99_us > 0 and row.aware_p99_us > 0

    def test_mobility_is_visible(self, quick_result):
        # The compressed velocity must actually re-home traffic.
        assert any(row.handover_fraction > 0 for row in quick_result.rows)

    def test_format_table(self, quick_result):
        table = format_qos_table(quick_result)
        assert "classless vs class-aware" in table
        assert "class-aware serving report" in table
        for name in ("urllc", "embb", "best_effort"):
            assert name in table

    def test_serial_matches_sharded(self):
        config = dataclasses.replace(QoSStudyConfig.quick(), scenarios=("busy-day",))
        serial = run_driver(QoSStudyDriver(), config)
        sharded = run_driver(QoSStudyDriver(), config, workers=2)
        assert serial.rows == sharded.rows

    def test_arms_share_one_generated_workload_per_scenario(self, monkeypatch):
        from repro.experiments import qos_study

        calls = []

        def counted(*args, **kwargs):
            calls.append(qos_study._qos_jobs.cache_info().currsize)
            return generate_serving_jobs(*args, **kwargs)

        monkeypatch.setattr(qos_study, "generate_serving_jobs", counted)
        qos_study._qos_jobs.cache_clear()
        config = QoSStudyConfig.quick()
        run_driver(QoSStudyDriver(), config)
        assert len(calls) == len(config.scenarios)
        # The memo holds one scenario's list at most, before and after.
        assert qos_study._qos_jobs.cache_info().maxsize == 1
        assert max(calls) <= 1 and qos_study._qos_jobs.cache_info().currsize == 1

    def test_serving_only_run_never_simulates_a_channel(self, monkeypatch):
        from repro.experiments import qos_study
        from repro.wireless import traffic

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return simulate_transmission(*args, **kwargs)

        monkeypatch.setattr(traffic, "simulate_transmission", counted)
        qos_study._qos_jobs.cache_clear()
        run_driver(QoSStudyDriver(), QoSStudyConfig.quick())
        assert calls == []

    @pytest.mark.parametrize("overrides", _BAD_OVERRIDES)
    def test_invalid_configurations_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            QoSStudyConfig(**overrides)

    @pytest.mark.parametrize("overrides", _REJECTED_FIELDS)
    def test_run_driver_rejects_invalid_configurations(self, overrides):
        # The config rejects itself, so neither run_driver nor an ablation
        # spec can silently run it (zero load points, zero scenarios, zero
        # annealers): both paths raise the config's own message.
        from repro.ablation import AblationSpec, run_study

        experiment, fields = overrides
        (driver,) = [driver for driver in DRIVERS if driver.name == experiment]
        # The preset the CLI's --quick selects (its default when it has none).
        presets = config_presets(driver.config_class)
        with pytest.raises(ConfigurationError) as constructed:
            dataclasses.replace(presets.get("quick", presets["default"])(), **fields)
        if not driver.metric_names:
            return  # not an ablation target
        spec = AblationSpec(name="invalid", experiment=experiment, preset="quick", base=fields)
        with pytest.raises(ConfigurationError) as studied:
            run_study(spec)
        assert str(studied.value) == str(constructed.value)

    @pytest.mark.parametrize("overrides", _CUT_FIELDS)
    def test_spec_naming_a_cut_field_is_rejected(self, overrides):
        from repro.ablation import AblationSpec, run_study

        experiment, fields = overrides
        (key,) = fields
        (driver,) = [driver for driver in DRIVERS if driver.name == experiment]
        valid = sorted(field.name for field in dataclasses.fields(driver.config_class))
        assert key not in valid
        spec = AblationSpec(name="cut", experiment=experiment, preset="quick", base=fields)
        with pytest.raises(ConfigurationError) as studied:
            run_study(spec)
        assert str(studied.value) == (
            f"unknown config field {key!r} for experiment {experiment!r}; "
            f"valid fields: {', '.join(valid)}"
        )

    def test_registered_as_ablation_target(self):
        from repro.ablation.targets import sweepable_drivers
        from repro.experiments.qos_study import QOS_METRICS

        driver = sweepable_drivers()["qos"]
        assert isinstance(driver, QoSStudyDriver)
        assert driver.metric_names == QOS_METRICS
        assert set(config_presets(driver.config_class)) >= {"default", "quick", "paper"}


# ---------------------------------------------------------------------- #
# The experiment-driver protocol
# ---------------------------------------------------------------------- #


def _square(value):
    return value * value


class _ToyDriver:
    """Minimal concrete ExperimentDriver for protocol-level assertions."""

    def __new__(cls):
        from repro.experiments.driver import ExperimentDriver
        from repro.parallel import ShardTask

        class Toy(ExperimentDriver):
            name = "toy"

            def tasks(self, config):
                return [
                    ShardTask(key=("toy", value), fn=_square, kwargs={"value": value})
                    for value in config
                ]

            def aggregate(self, config, results):
                return {"rows": list(results), "total": sum(results)}

        return Toy()


class TestExperimentDriver:
    def test_run_driver_feeds_aggregate_in_task_order(self):
        from repro.experiments.driver import run_driver

        result = run_driver(_ToyDriver(), (3, 1, 2))
        assert result["rows"] == [9, 1, 4]
        assert result["total"] == 14

    def test_sharded_run_matches_serial(self):
        from repro.experiments.driver import run_driver

        driver = _ToyDriver()
        assert run_driver(driver, (5, 4, 3, 2)) == run_driver(driver, (5, 4, 3, 2), workers=2)

    def test_target_wraps_the_driver(self):
        from repro.ablation.targets import AnnealHPOConfig, AnnealHPODriver, sweepable_drivers

        driver = sweepable_drivers()["anneal-hpo"]
        assert isinstance(driver, AnnealHPODriver)
        assert driver.name == "anneal-hpo"
        config = config_presets(driver.config_class)["quick"]()
        assert config == AnnealHPOConfig.quick()
        shards = [task.fn(**task.kwargs) for task in driver.tasks(config)]
        rows = driver.rows(driver.aggregate(config, shards))
        assert [row.restart for row in rows] == list(range(config.num_restarts))
        metrics = driver.metrics(rows)
        assert [name for name, _ in metrics] == list(driver.metric_names)
        assert dict(metrics)["best_energy"] == min(row.energy for row in rows)

    def test_every_sweep_study_driver_subclasses_the_protocol(self):
        from repro.experiments.driver import ExperimentDriver
        from repro.experiments.fig6_distributions import Figure6Driver
        from repro.experiments.fig8_tts import Figure8Driver
        from repro.experiments.load_study import LoadStudyDriver
        from repro.experiments.network_study import NetworkStudyDriver
        from repro.experiments.qos_study import QoSStudyDriver
        from repro.experiments.robustness_study import RobustnessStudyDriver
        from repro.experiments.scenario_study import ScenarioStudyDriver
        from repro.experiments.snr_study import SNRStudyDriver

        drivers = [
            Figure6Driver(),
            Figure8Driver(),
            SNRStudyDriver(),
            RobustnessStudyDriver(),
            LoadStudyDriver(),
            ScenarioStudyDriver(),
            NetworkStudyDriver(),
            QoSStudyDriver(),
        ]
        for driver in drivers:
            assert isinstance(driver, ExperimentDriver)
            assert driver.name
        assert len({driver.name for driver in drivers}) == len(drivers)
