"""Tests for the time-varying scenario engine and the autoscaling pool.

The contracts under test: phase intensity fields behave as documented
(bounds, locality, spill-over), scenario-driven workloads are exactly
reproducible for a fixed seed and respond to the intensity field (flash
cells get denser, outage cells go silent), and the elastic pool + controller
scale within bounds, honour warm-up, and never lose a job.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.network.topology import NetworkTopology
from repro.serving import (
    AnnealerServingBackend,
    AutoscaleConfig,
    AutoscaleController,
    AutoscaleEvent,
    BackendPool,
    CellOutagePhase,
    ConstantPhase,
    DiurnalPhase,
    ElasticBackendPool,
    FlashCrowdPhase,
    HotspotDriftPhase,
    NetworkScenario,
    RANServingSimulator,
    SCENARIO_NAMES,
    build_scenario,
    generate_serving_jobs,
    uniform_cell_profiles,
)
from repro.wireless.mimo import MIMOConfig
from repro.wireless.traffic import TrafficGenerator
from tests.serving_invariants import dispatchable_at


# ---------------------------------------------------------------------- #
# Load phases
# ---------------------------------------------------------------------- #


class TestPhases:
    def test_constant_phase(self):
        phase = ConstantPhase(1000.0, level=2.5)
        assert phase.intensity(0, 0.0) == 2.5
        assert phase.intensity(3, 999.0) == 2.5
        assert phase.peak_intensity() == 2.5

    def test_diurnal_wave_stays_in_band_and_lags_across_cells(self):
        phase = DiurnalPhase(1000.0, 4, amplitude=0.5, cycles=1.0, cell_lag_fraction=0.5)
        times = np.linspace(0.0, 999.9, 200)
        for cell in range(4):
            values = [phase.intensity(cell, t) for t in times]
            assert min(values) >= 0.5 - 1e-9
            assert max(values) <= phase.peak_intensity() + 1e-9
        # The crest arrives later in later cells: at the cell-0 crest time,
        # lagged cells are below their own peak.
        crest_t = 250.0  # sin peak for cell 0 at quarter period
        assert phase.intensity(0, crest_t) == pytest.approx(1.5)
        assert phase.intensity(2, crest_t) < 1.5

    def test_flash_crowd_ramps_and_localizes(self):
        phase = FlashCrowdPhase(1000.0, cell_id=1, peak=5.0)
        # Ramp: background at t=0, peak at the plateau, background at the end.
        assert phase.intensity(1, 0.0) == pytest.approx(1.0)
        assert phase.intensity(1, 125.0) == pytest.approx(3.0)  # mid-ramp
        assert phase.intensity(1, 500.0) == pytest.approx(5.0)
        assert phase.intensity(1, 1000.0) == pytest.approx(1.0)
        # Other cells never leave background.
        for t in (0.0, 500.0, 900.0):
            assert phase.intensity(0, t) == pytest.approx(1.0)
        assert phase.peak_intensity() == 5.0

    def test_hotspot_drift_moves_across_grid(self):
        phase = HotspotDriftPhase(1000.0, NetworkTopology.line(4), peak=4.0)
        # At t=0 the hotspot sits on cell 0; at the end on the last cell.
        assert phase.intensity(0, 0.0) == pytest.approx(4.0)
        assert phase.intensity(3, 0.0) == pytest.approx(1.0)
        assert phase.intensity(3, 999.999) == pytest.approx(4.0, rel=1e-3)
        # Mid-phase the centre is between cells 1 and 2.
        mid = [phase.intensity(cell, 500.0) for cell in range(4)]
        assert max(mid[1], mid[2]) > max(mid[0], mid[3])

    def test_cell_outage_spills_to_neighbours(self):
        phase = CellOutagePhase(1000.0, cell_id=1, topology=NetworkTopology.line(4))
        assert phase.intensity(1, 100.0) == 0.0
        # The dark cell's unit load splits between cells 0 and 2.
        assert phase.intensity(0, 100.0) == pytest.approx(1.5)
        assert phase.intensity(2, 100.0) == pytest.approx(1.5)
        assert phase.intensity(3, 100.0) == pytest.approx(1.0)

    def test_edge_cell_outage_single_neighbour(self):
        phase = CellOutagePhase(1000.0, cell_id=0, topology=NetworkTopology.line(3))
        assert phase.intensity(0, 10.0) == 0.0
        # The lone neighbour absorbs the whole spilt load.
        assert phase.intensity(1, 10.0) == pytest.approx(2.0)
        assert phase.peak_intensity() == 2.0
        assert phase.intensity(2, 10.0) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ConstantPhase(0.0),
            lambda: ConstantPhase(10.0, level=-1.0),
            lambda: DiurnalPhase(10.0, 2, amplitude=1.5),
            lambda: DiurnalPhase(10.0, 2, cycles=0.0),
            lambda: DiurnalPhase(10.0, 0),
            lambda: FlashCrowdPhase(10.0, cell_id=-1),
            lambda: FlashCrowdPhase(10.0, cell_id=0, peak=0.5),
            lambda: HotspotDriftPhase(10.0, NetworkTopology.line(2), peak=0.5),
            lambda: CellOutagePhase(10.0, cell_id=-1, topology=NetworkTopology.line(2)),
            lambda: CellOutagePhase(0.0, cell_id=0, topology=NetworkTopology.line(2)),
        ],
    )
    def test_invalid_phase_parameters(self, factory):
        with pytest.raises(ConfigurationError):
            factory()


class TestNetworkScenario:
    def test_phase_timeline_lookup(self):
        scenario = NetworkScenario(
            name="two-step",
            phases=(ConstantPhase(100.0, level=1.0), ConstantPhase(100.0, level=3.0)),
            topology=NetworkTopology.line(2),
        )
        assert scenario.duration_us == 200.0
        assert scenario.intensity(0, 50.0) == 1.0
        # Boundaries belong to the next phase.
        assert scenario.intensity(0, 100.0) == 3.0
        assert scenario.intensity(0, 199.0) == 3.0
        # Outside the horizon the field is silent.
        assert scenario.intensity(0, 200.0) == 0.0
        assert scenario.intensity(0, -1.0) == 0.0
        assert scenario.peak_intensity() == 3.0

    def test_cell_bounds_checked(self):
        scenario = build_scenario("steady", num_cells=2)
        with pytest.raises(ConfigurationError):
            scenario.intensity(2, 0.0)

    def test_catalog_builds_every_name(self):
        for name in SCENARIO_NAMES:
            scenario = build_scenario(name, num_cells=4, horizon_us=1000.0)
            assert scenario.name == name
            assert scenario.duration_us == pytest.approx(1000.0)
            assert scenario.peak_intensity() >= 1.0
            # The field is evaluable everywhere on the grid and horizon.
            for cell in range(4):
                for t in (0.0, 250.0, 500.0, 999.0):
                    assert scenario.intensity(cell, t) >= 0.0

    def test_default_topology_is_a_line(self):
        scenario = build_scenario("cell-outage", num_cells=5)
        assert scenario.num_cells == 5
        assert scenario.topology.kind == "line"
        assert scenario.topology.neighbor_ids == NetworkTopology.line(5).neighbor_ids

    def test_scenario_rejects_mismatched_topology(self):
        with pytest.raises(ConfigurationError):
            build_scenario("steady", 4, topology=NetworkTopology.line(5))
        with pytest.raises(ConfigurationError):
            NetworkScenario(
                name="lagged", phases=(DiurnalPhase(10.0, 4),), topology=NetworkTopology.line(5)
            )

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            build_scenario("rush-hour", num_cells=2)

    def test_invalid_scenarios_rejected(self):
        line = NetworkTopology.line(2)
        with pytest.raises(ConfigurationError):
            NetworkScenario(name="empty", phases=(), topology=line)
        with pytest.raises(ConfigurationError):
            NetworkScenario(name="bad", phases=("steady",), topology=line)

    def test_phase_targets_outside_grid_rejected(self):
        # A mistargeted flash/outage phase must fail loudly, not silently
        # degenerate to steady load (or conjure spill from a ghost cell).
        line = NetworkTopology.line(4)
        with pytest.raises(ConfigurationError):
            NetworkScenario(
                name="ghost-flash",
                phases=(FlashCrowdPhase(1000.0, cell_id=7),),
                topology=line,
            )
        with pytest.raises(ConfigurationError):
            NetworkScenario(
                name="ghost-outage",
                phases=(CellOutagePhase(1000.0, cell_id=4, topology=line),),
                topology=line,
            )

    @pytest.mark.parametrize(
        "phase_layout",
        [
            pytest.param(NetworkTopology.line(3), id="fewer-cells"),
            pytest.param(NetworkTopology.grid(2, 2), id="same-count-other-layout"),
        ],
    )
    @pytest.mark.parametrize(
        "build_phase",
        [
            pytest.param(lambda layout: HotspotDriftPhase(100.0, layout), id="hotspot"),
            pytest.param(
                lambda layout: CellOutagePhase(100.0, cell_id=1, topology=layout), id="outage"
            ),
        ],
    )
    def test_spatial_phase_on_another_layout_rejected(self, phase_layout, build_phase):
        # A spatial phase reads its own topology's positions or neighbours;
        # built on another layout it would fail mid-generation (a hotspot
        # asked for a cell its line lacks) or spill load along the wrong
        # graph without a word.
        with pytest.raises(ConfigurationError, match="layout"):
            NetworkScenario(
                name="mismatched",
                phases=(build_phase(phase_layout),),
                topology=NetworkTopology.line(4),
            )

    @pytest.mark.parametrize("layout", [NetworkTopology.line(4), NetworkTopology.grid(2, 2)])
    def test_spatial_phase_on_the_scenario_layout_accepted(self, layout):
        phases = (
            HotspotDriftPhase(100.0, layout),
            CellOutagePhase(100.0, cell_id=1, topology=layout),
        )
        scenario = NetworkScenario(name="matched", phases=phases, topology=layout)
        assert scenario.num_cells == 4


# ---------------------------------------------------------------------- #
# Modulated traffic streams
# ---------------------------------------------------------------------- #


class TestModulatedStream:
    def _generator(self, **overrides):
        defaults = dict(
            config=MIMOConfig(2, "QPSK"),
            symbol_period_us=50.0,
            arrival_process="poisson",
            turnaround_budget_us=200.0,
        )
        defaults.update(overrides)
        return TrafficGenerator(**defaults)

    def test_fixed_seed_is_bitwise_reproducible(self):
        def draw():
            return list(
                self._generator().stream_modulated(
                    2000.0, intensity=lambda t: 1.0, peak_intensity=1.0, rng=5
                )
            )

        first, second = draw(), draw()
        assert [use.arrival_time_us for use in first] == [
            use.arrival_time_us for use in second
        ]
        assert np.array_equal(
            first[0].transmission.instance.received,
            second[0].transmission.instance.received,
        )

    def test_zero_intensity_is_silent(self):
        uses = list(
            self._generator().stream_modulated(
                5000.0, intensity=lambda t: 0.0, peak_intensity=1.0, rng=5
            )
        )
        assert uses == []

    def test_intensity_modulates_arrival_density(self):
        def count(level):
            return len(
                list(
                    self._generator().stream_modulated(
                        5000.0,
                        intensity=lambda t: level,
                        peak_intensity=4.0,
                        rng=5,
                    )
                )
            )

        assert count(4.0) > count(1.0) > count(0.25)

    def test_deadlines_follow_arrivals(self):
        uses = list(
            self._generator().stream_modulated(
                2000.0, intensity=lambda t: 1.0, peak_intensity=1.0, rng=5
            )
        )
        assert uses, "expected arrivals over 40 mean periods"
        for use in uses:
            assert use.deadline_us == pytest.approx(use.arrival_time_us + 200.0)

    def test_max_count_caps_the_stream(self):
        uses = list(
            self._generator().stream_modulated(
                50_000.0, intensity=lambda t: 1.0, peak_intensity=1.0, rng=5, max_count=3
            )
        )
        assert len(uses) == 3
        assert [use.index for use in uses] == [0, 1, 2]

    def test_deterministic_process_rejected(self):
        generator = self._generator(arrival_process="deterministic")
        with pytest.raises(ConfigurationError):
            next(
                generator.stream_modulated(
                    100.0, intensity=lambda t: 1.0, peak_intensity=1.0, rng=5
                )
            )

    def test_intensity_above_peak_rejected(self):
        with pytest.raises(ConfigurationError):
            list(
                self._generator().stream_modulated(
                    5000.0, intensity=lambda t: 2.0, peak_intensity=1.0, rng=5
                )
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon_us": 0.0},
            {"peak_intensity": 0.0},
            {"start_us": -1.0},
            {"max_count": -1},
        ],
    )
    def test_invalid_stream_parameters(self, kwargs):
        defaults = dict(
            horizon_us=100.0, intensity=lambda t: 1.0, peak_intensity=1.0, rng=5
        )
        defaults.update(kwargs)
        with pytest.raises(ConfigurationError):
            next(self._generator().stream_modulated(**defaults))


# ---------------------------------------------------------------------- #
# Scenario-driven workloads
# ---------------------------------------------------------------------- #


def _profiles(num_cells=4, users_per_cell=2, period=100.0):
    return uniform_cell_profiles(
        num_cells=num_cells,
        users_per_cell=users_per_cell,
        configs=[MIMOConfig(2, "QPSK"), MIMOConfig(2, "16-QAM")],
        symbol_period_us=period,
        arrival_process="poisson",
        turnaround_budget_us=500.0,
    )


class TestScenarioWorkload:
    def test_fixed_seed_reproduces_the_workload(self):
        scenario = build_scenario("busy-day", num_cells=4, horizon_us=5000.0)

        def draw():
            return generate_serving_jobs(_profiles(), 100, rng=9, scenario=scenario)

        first = draw()
        second = draw()
        assert len(first) == len(second) > 0
        assert [job.arrival_us for job in first] == [job.arrival_us for job in second]
        assert [job.user_id for job in first] == [job.user_id for job in second]
        assert np.array_equal(
            first[0].channel_use.transmission.instance.received,
            second[0].channel_use.transmission.instance.received,
        )

    def test_jobs_confined_to_the_horizon(self):
        scenario = build_scenario("steady", num_cells=4, horizon_us=3000.0)
        jobs = generate_serving_jobs(_profiles(), 200, rng=9, scenario=scenario)
        assert jobs
        assert all(0.0 <= job.arrival_us < 3000.0 for job in jobs)

    def test_flash_cell_densifies_during_the_burst(self):
        scenario = build_scenario("flash-crowd", num_cells=4, horizon_us=8000.0)
        jobs = generate_serving_jobs(_profiles(), 500, rng=9, scenario=scenario)
        flash_cell = 4 // 2
        # During the flash window the hot cell produces far more jobs than a
        # quiet cell; outside the window the two are comparable.
        window = [job for job in jobs if 2000.0 <= job.arrival_us < 6000.0]
        hot = sum(1 for job in window if job.cell_id == flash_cell)
        cold = sum(1 for job in window if job.cell_id == 0)
        assert hot > 2 * cold

    def test_outage_cell_goes_silent_and_spills(self):
        scenario = build_scenario("cell-outage", num_cells=4, horizon_us=8000.0)
        jobs = generate_serving_jobs(_profiles(), 500, rng=9, scenario=scenario)
        dark_cell = 4 // 2
        window = [job for job in jobs if 2000.0 <= job.arrival_us < 6000.0]
        assert sum(1 for job in window if job.cell_id == dark_cell) == 0
        # Neighbours (cells 1 and 3) absorb the spill: busier than the far
        # cell 0, which stays at background load.
        neighbour = sum(1 for job in window if job.cell_id in (dark_cell - 1, dark_cell + 1))
        far = sum(1 for job in window if job.cell_id == 0)
        assert neighbour > 2 * 1.2 * far

    def test_ceiling_caps_each_user(self):
        scenario = build_scenario("steady", num_cells=2, horizon_us=50_000.0)
        jobs = generate_serving_jobs(
            _profiles(num_cells=2, period=50.0), 5, rng=9, scenario=scenario
        )
        from collections import Counter

        per_user = Counter(job.user_id for job in jobs)
        assert all(count <= 5 for count in per_user.values())

    def test_cell_outside_scenario_grid_rejected(self):
        scenario = build_scenario("steady", num_cells=2, horizon_us=1000.0)
        with pytest.raises(ConfigurationError):
            generate_serving_jobs(_profiles(num_cells=4), 10, rng=9, scenario=scenario)


# ---------------------------------------------------------------------- #
# The elastic pool
# ---------------------------------------------------------------------- #


def _elastic_pool(max_workers=4, initial=1, classical=0):
    return ElasticBackendPool(
        annealer=AnnealerServingBackend(num_reads=10),
        max_annealer_workers=max_workers,
        initial_annealer_workers=initial,
        num_classical_workers=classical,
    )


def _dispatchable_annealers(pool, now_us):
    return [worker for worker in pool.annealer_workers if dispatchable_at(worker, now_us)]


class TestElasticPool:
    def test_initial_layout(self):
        pool = _elastic_pool(max_workers=4, initial=2, classical=1)
        assert pool.active_annealer_count == 2
        assert len(pool.parked_annealer_workers) == 2
        assert len(pool.classical_workers) == 1
        # Parked workers are not dispatchable.
        assert len(_dispatchable_annealers(pool, 0.0)) == 2

    def test_activation_honours_warmup(self):
        pool = _elastic_pool()
        worker = pool.activate_worker(100.0, warmup_us=50.0)
        assert worker is not None and worker.active
        assert pool.active_annealer_count == 2
        # Warming: counted as active but not yet dispatchable.
        assert worker not in _dispatchable_annealers(pool, 120.0)
        assert worker in _dispatchable_annealers(pool, 150.0)

    def test_activation_exhausts_parked_workers(self):
        pool = _elastic_pool(max_workers=2, initial=2)
        assert pool.activate_worker(0.0, warmup_us=0.0) is None

    def test_deactivation_parks_idle_highest_index_first(self):
        pool = _elastic_pool(max_workers=3, initial=3)
        busy = pool.annealer_workers[2]
        busy.server.serve(0.0, 100.0)
        parked = pool.deactivate_worker(50.0)
        # Worker 2 is busy, so worker 1 (next highest idle) is parked.
        assert parked is pool.annealer_workers[1]
        assert pool.active_annealer_count == 2

    def test_deactivation_skips_when_all_busy(self):
        pool = _elastic_pool(max_workers=2, initial=2)
        for worker in pool.annealer_workers:
            worker.server.serve(0.0, 100.0)
        assert pool.deactivate_worker(50.0) is None

    def test_deactivation_never_parks_a_busy_worker(self):
        # A worker whose batch finishes in the future must never be parked
        # "idle" mid-job — that would strand its in-flight work.  The guard
        # must survive the idlest-candidate selection.
        pool = _elastic_pool(max_workers=3, initial=3)
        pool.annealer_workers[0].server.serve(0.0, 100.0)
        pool.annealer_workers[2].server.serve(0.0, 100.0)
        parked = pool.deactivate_worker(50.0)
        assert parked is pool.annealer_workers[1]
        assert pool.annealer_workers[0].active
        assert pool.annealer_workers[2].active
        # The lone remaining idle candidate gone, further scale-downs skip.
        pool.annealer_workers[1].active = True  # restore
        pool.annealer_workers[1].server.serve(50.0, 100.0)
        assert pool.deactivate_worker(60.0) is None

    def test_deactivation_prefers_the_idlest_worker(self):
        # Among idle workers the one idle longest (smallest free_at_us) is
        # parked, not simply the highest index.
        pool = _elastic_pool(max_workers=3, initial=3)
        pool.annealer_workers[1].server.serve(0.0, 40.0)  # idle since t=40
        pool.annealer_workers[2].server.serve(0.0, 100.0)  # busy until t=100
        parked = pool.deactivate_worker(50.0)
        assert parked is pool.annealer_workers[0]  # idle since t=0

    def test_reset_restores_initial_layout(self):
        pool = _elastic_pool(max_workers=4, initial=1)
        pool.activate_worker(0.0, warmup_us=0.0)
        pool.activate_worker(0.0, warmup_us=0.0)
        assert pool.active_annealer_count == 3
        pool.reset()
        assert pool.active_annealer_count == 1
        assert all(worker.available_from_us == 0.0 for worker in pool.workers)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_annealer_workers": 0},
            {"initial_annealer_workers": 0},
            {"initial_annealer_workers": 5},
            {"num_classical_workers": -1},
        ],
    )
    def test_invalid_pool_configuration(self, kwargs):
        defaults = dict(max_annealer_workers=4, initial_annealer_workers=1)
        defaults.update(kwargs)
        with pytest.raises(ConfigurationError):
            ElasticBackendPool(**defaults)


# ---------------------------------------------------------------------- #
# The autoscale controller
# ---------------------------------------------------------------------- #


def _queued_jobs(count, rng, deadline=1000.0):
    from repro.wireless.mimo import simulate_transmission
    from repro.wireless.traffic import ChannelUse
    from repro.serving import ServingJob

    jobs = []
    for job_id in range(count):
        transmission = simulate_transmission(MIMOConfig(2, "QPSK"), rng=rng)
        use = ChannelUse(
            index=job_id,
            arrival_time_us=0.0,
            transmission=transmission,
            deadline_us=deadline,
        )
        jobs.append(ServingJob(job_id=job_id, user_id=job_id, cell_id=0, channel_use=use))
    return jobs


class TestAutoscaleController:
    def test_scales_up_on_queue_depth(self, rng):
        pool = _elastic_pool()
        controller = AutoscaleController(
            AutoscaleConfig(warmup_us=100.0)
        )
        controller.begin(0.0, pool)
        event = controller.step(10.0, _queued_jobs(5, rng), pool, pressured_count=0)
        assert isinstance(event, AutoscaleEvent)
        assert event.action == "scale-up" and event.reason == "queue-depth"
        assert pool.active_annealer_count == 2

    def test_scales_up_on_deadline_pressure(self, rng):
        pool = _elastic_pool()
        controller = AutoscaleController(AutoscaleConfig())
        controller.begin(0.0, pool)
        event = controller.step(10.0, _queued_jobs(2, rng), pool, pressured_count=1)
        assert event is not None and event.reason == "deadline-pressure"

    def test_cooldown_blocks_consecutive_actions(self, rng):
        pool = _elastic_pool()
        controller = AutoscaleController(AutoscaleConfig(cooldown_us=500.0))
        controller.begin(0.0, pool)
        jobs = _queued_jobs(12, rng)
        assert controller.step(10.0, jobs, pool, 0) is not None
        assert controller.step(200.0, jobs, pool, 0) is None
        assert controller.step(520.0, jobs, pool, 0) is not None

    def test_scales_down_when_quiet(self, rng):
        pool = _elastic_pool(max_workers=3, initial=3)
        controller = AutoscaleController(AutoscaleConfig(min_workers=1))
        controller.begin(0.0, pool)
        event = controller.step(10.0, [], pool, pressured_count=0)
        assert event is not None and event.action == "scale-down"
        assert pool.active_annealer_count == 2

    def test_never_leaves_the_bounds(self, rng):
        pool = _elastic_pool(max_workers=3, initial=1)
        controller = AutoscaleController(
            AutoscaleConfig(min_workers=1, max_workers=2, cooldown_us=0.0)
        )
        controller.begin(0.0, pool)
        jobs = _queued_jobs(30, rng)
        for tick in range(5):
            controller.step(10.0 * (tick + 1), jobs, pool, 0)
        assert pool.active_annealer_count == 2  # capped below the pool's 3
        for tick in range(5):
            controller.step(1000.0 + 10.0 * tick, [], pool, 0)
        assert pool.active_annealer_count == 1

    def test_average_active_workers_is_time_weighted(self, rng):
        pool = _elastic_pool(max_workers=2, initial=1)
        controller = AutoscaleController(AutoscaleConfig(cooldown_us=0.0))
        controller.begin(0.0, pool)
        controller.step(100.0, _queued_jobs(10, rng), pool, 0)
        # 1 worker for [0, 100), 2 workers for [100, 200) -> mean 1.5.
        assert controller.average_active_workers(200.0) == pytest.approx(1.5)

    def test_begin_requires_elastic_pool(self):
        controller = AutoscaleController()
        with pytest.raises(ConfigurationError):
            controller.begin(0.0, BackendPool([AnnealerServingBackend(num_reads=10)]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_us": 0.0},
            {"warmup_us": -1.0},
            {"min_workers": 0},
            {"max_workers": 0},
            {"scale_down_queue_per_worker": 3.0},
            {"scale_down_queue_per_worker": -0.1},
            {"cooldown_us": -1.0},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            AutoscaleConfig(**kwargs)


# ---------------------------------------------------------------------- #
# Autoscaled serving runs
# ---------------------------------------------------------------------- #


class TestAutoscaledSimulator:
    def _run(self, jobs, **overrides):
        settings = dict(
            interval_us=150.0,
            warmup_us=300.0,
            min_workers=1,
            max_workers=4,
            cooldown_us=200.0,
        )
        settings.update(overrides)
        controller = AutoscaleController(AutoscaleConfig(**settings))
        simulator = RANServingSimulator(
            pool=_elastic_pool(max_workers=4, initial=1),
            policy="edf",
            max_batch_size=4,
            admission_control=False,
            autoscaler=controller,
        )
        return simulator.run(jobs), controller

    def _flash_jobs(self):
        scenario = build_scenario("flash-crowd", num_cells=4, horizon_us=8000.0)
        return generate_serving_jobs(
            _profiles(period=150.0), 500, rng=11, scenario=scenario
        )

    def test_every_job_accounted_and_pool_flexes(self):
        jobs = self._flash_jobs()
        report, controller = self._run(jobs)
        assert report.num_jobs == len(jobs)
        assert sorted(o.job_id for o in report.outcomes) == [j.job_id for j in jobs]
        assert any(event.action == "scale-up" for event in controller.events)
        assert report.metadata["autoscale_events"] == len(controller.events)
        assert 1.0 <= report.metadata["autoscale_average_active"] <= 4.0

    def test_autoscaled_run_is_reproducible(self):
        jobs = self._flash_jobs()
        first, first_ctrl = self._run(jobs)
        second, second_ctrl = self._run(jobs)
        assert [o.finish_us for o in first.outcomes] == [
            o.finish_us for o in second.outcomes
        ]
        assert first_ctrl.events == second_ctrl.events

    def test_autoscaling_beats_the_frozen_minimum_pool(self):
        jobs = self._flash_jobs()
        autoscaled, _ = self._run(jobs)
        frozen = RANServingSimulator(
            pool=BackendPool([AnnealerServingBackend(num_reads=10)]),
            policy="edf",
            max_batch_size=4,
            admission_control=False,
        ).run(jobs)
        assert (autoscaled.deadline_miss_rate or 0.0) <= (
            frozen.deadline_miss_rate or 0.0
        )
        assert autoscaled.p99_latency_us <= frozen.p99_latency_us

    def test_autoscaler_requires_elastic_pool(self):
        with pytest.raises(ConfigurationError):
            RANServingSimulator(
                pool=BackendPool([AnnealerServingBackend(num_reads=10)]),
                autoscaler=AutoscaleController(),
            )
