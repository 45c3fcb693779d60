"""Tests for the O&M hotspot detector, the capacity re-embedder and the
fluid placement model.

The contracts under test: the EWMA/z-score detector raises on a flash crowd
within a few KPI windows of the ramp and never on steady traffic, confirms
over consecutive windows (single-window flukes are ignored), clears with
hysteresis, and localises raises through the topology's neighbour graph; the
re-embedder conserves total capacity, honours per-cell floors and the
per-window migration budget; and the fluid model's accounting identity
``offered == served + missed + residual`` holds exactly.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.network.aggregate import AggregationConfig, cell_window_counts
from repro.network.embedding import (
    CapacityReembedder,
    EmbeddingConfig,
    oracle_capacity,
    simulate_fluid_network,
    static_capacity,
)
from repro.network import kpi
from repro.network.kpi import HotspotDetector
from repro.network.topology import NetworkTopology
from repro.serving.scenarios import build_scenario


def _steady_counts(num_cells=6, windows=30, level=100, seed=11):
    rng = np.random.default_rng(seed)
    return rng.poisson(level, size=(windows, num_cells)).astype(np.int64)


def _feed(detector, counts):
    events = []
    for window in range(counts.shape[0]):
        events.extend(detector.observe(window, window * 500.0, counts[window]))
    return events


# ---------------------------------------------------------------------- #
# Detector behaviour on synthetic counters
# ---------------------------------------------------------------------- #


def test_first_window_seeds_baseline_without_raising():
    detector = HotspotDetector(3)
    events = detector.observe(0, 0.0, [10, 10, 10])
    assert events == []
    assert detector.hot_cells == ()


def test_steady_synthetic_counters_never_raise():
    counts = _steady_counts()
    detector = HotspotDetector(counts.shape[1])
    events = _feed(detector, counts)
    assert [e for e in events if e.kind == "raised"] == []
    assert detector.hot_cells == ()


def test_flash_crowd_raises_within_confirm_windows():
    counts = _steady_counts(num_cells=5, windows=30, level=100)
    spike_start = 12
    counts[spike_start:, 2] *= 6
    detector = HotspotDetector(5)
    events = _feed(detector, counts)
    raises = [e for e in events if e.kind == "raised"]
    assert len(raises) == 1
    assert raises[0].cell_id == 2
    # Score-then-confirm: the raise lands confirm_windows after the ramp.
    latency = raises[0].window - spike_start
    assert 1 <= latency <= kpi._CONFIRM_WINDOWS + 1
    assert detector.hot_cells == (2,)


def test_single_window_fluke_is_not_confirmed():
    counts = _steady_counts(num_cells=4, windows=20, level=100)
    counts[10, 1] *= 8  # one wild window, back to normal after
    detector = HotspotDetector(4)
    events = _feed(detector, counts)
    assert [e for e in events if e.kind == "raised"] == []


def test_hotspot_clears_after_quiet_windows():
    counts = _steady_counts(num_cells=4, windows=40, level=100)
    counts[10:20, 3] *= 6  # crowd disperses at window 20
    detector = HotspotDetector(4)
    events = _feed(detector, counts)
    kinds = [(e.kind, e.cell_id) for e in events]
    assert ("raised", 3) in kinds
    assert ("cleared", 3) in kinds
    cleared = next(e for e in events if e.kind == "cleared")
    assert cleared.window >= 20 + kpi._CLEAR_WINDOWS - 1
    assert detector.hot_cells == ()


def test_baseline_freezes_while_hotspot_is_live():
    counts = _steady_counts(num_cells=3, windows=40, level=100)
    counts[10:, 0] *= 6
    detector = HotspotDetector(3)
    _feed(detector, counts)
    # A long crowd must not be absorbed into "normal": the hot cell stays
    # raised through the whole tail of the stream.
    assert detector.hot_cells == (0,)
    assert detector.z_score(0) > detector.z_threshold


def test_raise_is_localised_to_strongest_neighbor():
    topology = NetworkTopology.line(5)
    detector = HotspotDetector(5, z_threshold=3.0, topology=topology)
    counts = np.full((20, 5), 100, dtype=np.int64)
    # Cell 2 is the crowd's centre; cell 1 sees spill-over that also trips
    # the threshold, but the raise must be attributed to cell 2.
    counts[10:, 2] *= 8
    counts[10:, 1] *= 4
    events = _feed(detector, counts)
    raises = [e for e in events if e.kind == "raised"]
    assert raises
    assert all(e.cell_id == 2 for e in raises)


def test_detector_validates_inputs():
    with pytest.raises(ConfigurationError):
        HotspotDetector(0)
    with pytest.raises(ConfigurationError):
        HotspotDetector(3, topology=NetworkTopology.line(4))
    detector = HotspotDetector(3)
    with pytest.raises(ConfigurationError):
        detector.observe(0, 0.0, [1, 2])
    with pytest.raises(ConfigurationError):
        detector.observe(0, 0.0, [1, -2, 3])
    with pytest.raises(ConfigurationError):
        detector.z_score(7)
    with pytest.raises(ConfigurationError):
        HotspotDetector(3, z_threshold=0.0)


# ---------------------------------------------------------------------- #
# Detector on scenario-driven aggregate counters
# ---------------------------------------------------------------------- #


def test_flash_crowd_scenario_detected_with_low_latency():
    aggregation = AggregationConfig(users_per_cell=500, window_us=500.0)
    scenario = build_scenario("flash-crowd", num_cells=9, horizon_us=20_000.0)
    counts = cell_window_counts(scenario, aggregation, rng=5)
    detector = HotspotDetector(9)
    events = _feed(detector, counts)
    raises = [e for e in events if e.kind == "raised"]
    assert raises, "flash crowd was never detected"
    spike_window = int(0.25 * 20_000.0 // 500.0)
    assert raises[0].cell_id == 4  # the catalog centres the crowd mid-layout
    assert 1 <= raises[0].window - spike_window <= 4


def test_steady_scenario_has_no_false_positives():
    aggregation = AggregationConfig(users_per_cell=500, window_us=500.0)
    scenario = build_scenario("steady", num_cells=9, horizon_us=20_000.0)
    counts = cell_window_counts(scenario, aggregation, rng=5)
    detector = HotspotDetector(9)
    events = _feed(detector, counts)
    assert [e for e in events if e.kind == "raised"] == []


# ---------------------------------------------------------------------- #
# Re-embedder
# ---------------------------------------------------------------------- #


def test_reembedder_conserves_total_and_respects_floor_and_budget():
    config = EmbeddingConfig(
        total_capacity=100.0, min_capacity=5.0, migration_budget=7.0
    )
    embedder = CapacityReembedder(10, config)
    observed = np.full(10, 8.0)
    observed[3] = 60.0
    for _ in range(6):
        capacity = embedder.step([3], observed)
        assert capacity.sum() == pytest.approx(100.0)
        assert np.all(capacity >= config.min_capacity - 1e-9)
    # Donors never dip under their observed demand.
    donors = [cell for cell in range(10) if cell != 3]
    assert np.all(capacity[donors] >= 8.0 - 1e-9)
    assert capacity[3] > 100.0 / 10
    assert embedder.capacity_moved <= 6 * config.migration_budget + 1e-9
    assert embedder.windows_stepped == 6


def test_reembedder_relaxes_back_to_equal_split():
    config = EmbeddingConfig(total_capacity=90.0, migration_budget=1000.0)
    embedder = CapacityReembedder(9, config)
    observed = np.full(9, 1.0)
    observed[0] = 50.0
    embedder.step([0], observed)
    assert embedder.capacity[0] > 10.0
    for _ in range(50):
        capacity = embedder.step([], observed)
    assert np.allclose(capacity, 10.0)
    assert capacity.sum() == pytest.approx(90.0)


def test_reembedder_validates_inputs():
    config = EmbeddingConfig(total_capacity=10.0)
    embedder = CapacityReembedder(4, config)
    with pytest.raises(ConfigurationError, match="hot cell 9 outside the 4-cell layout"):
        embedder.step([9], np.zeros(4))
    with pytest.raises(ConfigurationError):
        embedder.step([0], observed_counts=[1.0, 2.0])
    with pytest.raises(ConfigurationError):
        EmbeddingConfig(total_capacity=10.0, min_capacity=6.0).check_feasible(2)
    with pytest.raises(ConfigurationError):
        EmbeddingConfig(total_capacity=0.0)


# ---------------------------------------------------------------------- #
# Fluid model and placements
# ---------------------------------------------------------------------- #


def test_fluid_accounting_identity_holds_exactly():
    counts = _steady_counts(num_cells=4, windows=25, level=40, seed=3)
    config = EmbeddingConfig(total_capacity=140.0)
    report = simulate_fluid_network(counts, static_capacity(4, config))
    assert report.offered == int(counts.sum())
    assert report.served + report.missed + report.residual == pytest.approx(
        report.offered
    )
    for cell in report.cells:
        assert cell.served + cell.missed + cell.residual == pytest.approx(
            cell.offered
        )


def test_fluid_deadline_drops_stale_buckets():
    counts = np.zeros((4, 1), dtype=np.int64)
    counts[0, 0] = 10
    report = simulate_fluid_network(counts, np.array([2.0]))
    # 2 served in window 0, 2 in window 1; the remaining 6 blow the
    # two-window deadline at the end of window 1.
    assert report.served == pytest.approx(4.0)
    assert report.missed == pytest.approx(6.0)
    assert report.residual == pytest.approx(0.0)


def test_oracle_schedule_covers_feasible_demand():
    counts = _steady_counts(num_cells=5, windows=20, level=20, seed=9)
    counts[10:, 2] *= 4
    config = EmbeddingConfig(
        total_capacity=float(counts.sum(axis=1).max()) + 10.0
    )
    schedule = oracle_capacity(counts, config)
    assert schedule.shape == counts.shape
    assert np.allclose(schedule.sum(axis=1), config.total_capacity)
    report = simulate_fluid_network(counts, schedule)
    assert report.miss_rate == 0.0


def test_oracle_beats_static_under_a_hotspot():
    counts = _steady_counts(num_cells=5, windows=20, level=30, seed=7)
    counts[8:, 2] *= 5
    config = EmbeddingConfig(total_capacity=200.0)
    static = simulate_fluid_network(counts, static_capacity(5, config))
    oracle = simulate_fluid_network(counts, oracle_capacity(counts, config))
    assert oracle.miss_rate <= static.miss_rate


def test_fluid_validates_shapes():
    counts = np.ones((5, 3), dtype=np.int64)
    with pytest.raises(ConfigurationError):
        simulate_fluid_network(np.ones(5), np.ones(3))
    with pytest.raises(ConfigurationError):
        simulate_fluid_network(counts, np.ones(2))
    with pytest.raises(ConfigurationError):
        simulate_fluid_network(counts, np.ones((4, 3)))
    with pytest.raises(ConfigurationError):
        simulate_fluid_network(counts, -np.ones(3))
