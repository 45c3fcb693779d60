"""Property-based and example tests of the declarative ablation harness.

The hypothesis suite (fixed, derandomized profile) pins the determinism
contract of :mod:`repro.ablation`:

* cartesian expansion has exactly ``prod(len(axis_i))`` unique points;
* subsampling is a deterministic, seed-keyed subset that grows monotonically
  with ``sample_count``;
* point fingerprints are injective on distinct points, independent of the
  spec's display name and of mapping iteration order, and stable across
  process restarts (pinned hex constant + subprocess check);
* the Pareto front is exactly the non-dominated set, direction-aware.

The example tests cover the execution layer: serial == sharded table rows at
any worker count, warm-cache reruns, bitwise subsumption of the imperative
fig8/robustness drivers, metric selection, and spec/compile validation
errors that name the offending key.
"""

import dataclasses
import json
import math
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ablation import (
    AblationSpec,
    ParetoExclusionWarning,
    compile_config,
    expand_spec,
    format_study_table,
    load_spec,
    pareto_front,
    point_fingerprint,
    run_study,
)
from repro.ablation.targets import AnnealHPOConfig, sweepable_drivers
from repro.exceptions import ConfigurationError
from repro.experiments import DRIVERS
from repro.experiments.driver import config_presets, run_driver
from repro.experiments.qos_study import QoSStudyConfig
from repro.parallel import ResultCache

# Fixed, derandomized profile: the suite must behave identically on every
# run (CI and local), like the rest of the determinism tests.
_settings = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

_scalar = st.one_of(
    st.integers(min_value=-99, max_value=99),
    st.floats(min_value=-99.0, max_value=99.0, allow_nan=False, allow_infinity=False),
    st.sampled_from(["lo", "mid", "hi"]),
    st.booleans(),
)

_axes = st.dictionaries(
    st.sampled_from(["alpha", "beta", "gamma", "delta"]),
    st.lists(_scalar, min_size=1, max_size=4),
    min_size=1,
    max_size=3,
)


def _spec(axes, **overrides) -> AblationSpec:
    kwargs = {"name": "prop", "experiment": "synthetic", "axes": axes}
    kwargs.update(overrides)
    return AblationSpec(**kwargs)


class TestCartesianExpansion:
    @given(axes=_axes)
    @_settings
    def test_count_is_product_of_axis_sizes(self, axes):
        spec = _spec(axes)
        points = expand_spec(spec)
        product = math.prod(len(values) for _, values in spec.axes)
        assert len(points) == product

    @given(axes=_axes)
    @_settings
    def test_fingerprints_are_unique(self, axes):
        points = expand_spec(_spec(axes))
        assert len({point.fingerprint for point in points}) == len(points)

    @given(axes=_axes)
    @_settings
    def test_expansion_is_deterministic(self, axes):
        spec = _spec(axes)
        assert expand_spec(spec) == expand_spec(spec)

    @given(axes=_axes)
    @_settings
    def test_duplicated_axis_values_collapse(self, axes):
        doubled = {name: list(values) + list(values) for name, values in axes.items()}
        assert expand_spec(_spec(doubled)) == expand_spec(_spec(axes))

    @given(axes=_axes)
    @_settings
    def test_axis_insertion_order_is_irrelevant(self, axes):
        reversed_axes = dict(reversed(list(axes.items())))
        assert expand_spec(_spec(reversed_axes)) == expand_spec(_spec(axes))

    @given(axes=_axes)
    @_settings
    def test_every_point_assigns_every_axis_a_declared_value(self, axes):
        spec = _spec(axes)
        declared = {name: set(map(repr, values)) for name, values in spec.axes}
        for point in expand_spec(spec):
            assignments = dict(point.assignments)
            assert set(assignments) == set(spec.axis_names())
            for name, value in assignments.items():
                assert repr(value) in declared[name]


class TestSubsampling:
    @given(axes=_axes, count=st.integers(min_value=1, max_value=12), seed=st.integers(0, 999))
    @_settings
    def test_subsample_is_subset_in_expansion_order(self, axes, count, seed):
        full = expand_spec(_spec(axes))
        sub = expand_spec(_spec(axes, strategy="subsample", sample_count=count, sample_seed=seed))
        assert len(sub) == min(count, len(full))
        positions = [full.index(point) for point in sub]
        assert positions == sorted(positions)

    @given(axes=_axes, count=st.integers(min_value=1, max_value=12), seed=st.integers(0, 999))
    @_settings
    def test_subsample_is_deterministic(self, axes, count, seed):
        spec = _spec(axes, strategy="subsample", sample_count=count, sample_seed=seed)
        assert expand_spec(spec) == expand_spec(spec)

    @given(
        axes=_axes,
        small=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=6),
        seed=st.integers(0, 999),
    )
    @_settings
    def test_growing_sample_count_only_adds_points(self, axes, small, extra, seed):
        fewer = expand_spec(
            _spec(axes, strategy="subsample", sample_count=small, sample_seed=seed),
        )
        more = expand_spec(
            _spec(axes, strategy="subsample", sample_count=small + extra, sample_seed=seed),
        )
        assert {point.fingerprint for point in fewer} <= {point.fingerprint for point in more}

    @given(axes=_axes, budget=st.integers(min_value=1, max_value=12))
    @_settings
    def test_budget_keeps_the_expansion_prefix(self, axes, budget):
        full = expand_spec(_spec(axes))
        capped = expand_spec(_spec(axes, budget=budget))
        assert capped == full[:budget]


class TestFingerprints:
    @given(axes=_axes)
    @_settings
    def test_study_name_does_not_rekey_points(self, axes):
        left = expand_spec(_spec(axes, name="one"))
        right = expand_spec(_spec(axes, name="two"))
        assert [p.fingerprint for p in left] == [p.fingerprint for p in right]

    @given(axes=_axes, preset=st.sampled_from(["quick", "paper"]))
    @_settings
    def test_preset_rekeys_every_point(self, axes, preset):
        default = expand_spec(_spec(axes))
        other = expand_spec(_spec(axes, preset=preset))
        assert not ({p.fingerprint for p in default} & {p.fingerprint for p in other})

    @given(
        axes=_axes,
        base_value=st.integers(min_value=-99, max_value=99),
    )
    @_settings
    def test_base_overrides_rekey_every_point(self, axes, base_value):
        plain = expand_spec(_spec(axes))
        based = expand_spec(_spec(axes, base={"epsilon": base_value}))
        assert not ({p.fingerprint for p in plain} & {p.fingerprint for p in based})

    @given(data=st.data())
    @_settings
    def test_injective_on_distinct_assignments(self, data):
        axes = data.draw(_axes)
        spec = _spec(axes)
        points = expand_spec(spec)
        i = data.draw(st.integers(0, len(points) - 1))
        j = data.draw(st.integers(0, len(points) - 1))
        left, right = points[i], points[j]
        same = point_fingerprint(spec, dict(left.assignments)) == point_fingerprint(
            spec, dict(right.assignments)
        )
        assert same == (i == j)


# A pinned spec/point: the hex constant asserts fingerprints never depend on
# process state (PYTHONHASHSEED, import order, dict iteration, ...).
_PINNED_FINGERPRINT = "f2f4016b41d49f4b84e2a65582a5460c72dbb3895b11c1bc2cc0f74cd17fc764"
_PINNED_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.ablation.spec import AblationSpec, point_fingerprint
spec = AblationSpec(
    name="pinned", experiment="anneal-hpo", preset="quick",
    base={{"num_restarts": 3}}, axes={{"num_sweeps": (8, 16)}},
)
print(point_fingerprint(spec, {{"num_sweeps": 8}}))
"""


class TestFingerprintRestartStability:
    def _pinned_spec(self):
        return AblationSpec(
            name="pinned",
            experiment="anneal-hpo",
            preset="quick",
            base={"num_restarts": 3},
            axes={"num_sweeps": (8, 16)},
        )

    def test_matches_pinned_constant(self):
        actual = point_fingerprint(self._pinned_spec(), {"num_sweeps": 8})
        assert actual == _PINNED_FINGERPRINT

    def test_stable_across_process_restarts(self):
        import repro

        src = str(next(iter(repro.__path__)) + "/..")
        snippet = _PINNED_SNIPPET.format(src=src)
        outputs = {
            subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONHASHSEED": str(seed)},
            ).stdout.strip()
            for seed in (0, 1)
        }
        assert outputs == {_PINNED_FINGERPRINT}


_objectives = st.lists(
    st.tuples(st.sampled_from(["x", "y", "z"]), st.sampled_from(["min", "max"])),
    min_size=1,
    max_size=3,
    unique_by=lambda pair: pair[0],
)

_metric_maps = st.lists(
    st.fixed_dictionaries(
        {
            "x": st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            "y": st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            "z": st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        }
    ),
    min_size=1,
    max_size=8,
)


def _dominates(a, b, objectives):
    oriented_a = [a[m] if d == "min" else -a[m] for m, d in objectives]
    oriented_b = [b[m] if d == "min" else -b[m] for m, d in objectives]
    return all(x <= y for x, y in zip(oriented_a, oriented_b)) and any(
        x < y for x, y in zip(oriented_a, oriented_b)
    )


class TestParetoProperties:
    @given(maps=_metric_maps, objectives=_objectives)
    @_settings
    def test_front_is_exactly_the_non_dominated_set(self, maps, objectives):
        ids = [f"p{i}" for i in range(len(maps))]
        front, exclusions = pareto_front(maps, objectives, ids)
        assert not exclusions
        assert front  # finite inputs always leave at least one survivor
        on_front = set(front)
        for i, candidate in enumerate(maps):
            dominated = any(
                _dominates(maps[j], candidate, objectives)
                for j in range(len(maps))
                if j != i
            )
            assert (i in on_front) == (not dominated)

    @given(maps=_metric_maps, objectives=_objectives)
    @_settings
    def test_direction_flip_on_negated_metrics_preserves_front(self, maps, objectives):
        ids = [f"p{i}" for i in range(len(maps))]
        front, _ = pareto_front(maps, objectives, ids)
        negated = [{m: -v for m, v in row.items()} for row in maps]
        flipped = [(m, "max" if d == "min" else "min") for m, d in objectives]
        mirror, _ = pareto_front(negated, flipped, ids)
        assert front == mirror


class TestParetoEdgeCases:
    def test_single_point_is_the_front(self):
        front, exclusions = pareto_front([{"x": 1.0}], [("x", "min")], ["only"])
        assert front == [0]
        assert exclusions == []

    def test_ties_all_stay_on_the_front(self):
        maps = [{"x": 1.0, "y": 2.0}, {"x": 1.0, "y": 2.0}, {"x": 0.5, "y": 3.0}]
        front, _ = pareto_front(maps, [("x", "min"), ("y", "min")], ["a", "b", "c"])
        assert front == [0, 1, 2]

    def test_nan_metric_is_excluded_with_warning(self):
        maps = [{"x": float("nan")}, {"x": 2.0}]
        with pytest.warns(ParetoExclusionWarning, match="non-finite"):
            front, exclusions = pareto_front(maps, [("x", "min")], ["bad", "good"])
        assert front == [1]
        assert [e.reason for e in exclusions] == ["non-finite"]
        assert exclusions[0].point_id == "bad"

    def test_missing_metric_is_excluded_with_warning(self):
        maps = [{"y": 1.0}, {"x": 2.0}]
        with pytest.warns(ParetoExclusionWarning, match="missing"):
            front, exclusions = pareto_front(maps, [("x", "min")], ["bad", "good"])
        assert front == [1]
        assert exclusions[0].metric == "x"
        assert exclusions[0].reason == "missing"

    def test_all_points_excluded_leaves_empty_front(self):
        maps = [{"x": float("inf")}, {"x": float("nan")}]
        with pytest.warns(ParetoExclusionWarning):
            front, exclusions = pareto_front(maps, [("x", "min")], ["a", "b"])
        assert front == []
        assert len(exclusions) == 2

    def test_empty_objectives_rejected(self):
        with pytest.raises(ConfigurationError, match="objective"):
            pareto_front([{"x": 1.0}], [], ["a"])

    def test_unknown_direction_rejected(self):
        with pytest.raises(ConfigurationError, match="direction"):
            pareto_front([{"x": 1.0}], [("x", "upwards")], ["a"])


class TestSpecValidation:
    def test_base_axis_overlap_rejected(self):
        with pytest.raises(ConfigurationError, match="num_sweeps"):
            _spec({"num_sweeps": (1, 2)}, base={"num_sweeps": 3})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            _spec({"alpha": ()})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="strategy"):
            _spec({"alpha": (1,)}, strategy="lhs")

    def test_sample_count_requires_subsample(self):
        with pytest.raises(ConfigurationError, match="sample_count"):
            _spec({"alpha": (1,)}, sample_count=2)

    def test_subsample_requires_sample_count(self):
        with pytest.raises(ConfigurationError, match="sample_count"):
            _spec({"alpha": (1,)}, strategy="subsample")

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="budget"):
            _spec({"alpha": (1,)}, budget=0)

    def test_bad_objective_direction_rejected(self):
        with pytest.raises(ConfigurationError, match="direction"):
            _spec({"alpha": (1,)}, objectives=(("x", "sideways"),))


class TestCompileConfig:
    def _one_point(self, spec):
        points = expand_spec(spec)
        assert len(points) == 1
        return points[0]

    def test_int_value_coerces_to_float_field(self):
        spec = AblationSpec(name="c", experiment="anneal-hpo", axes={"final_temperature": (1,)})
        config = compile_config(spec, self._one_point(spec), AnnealHPOConfig())
        assert config.final_temperature == 1.0
        assert isinstance(config.final_temperature, float)

    # ``policy`` was a QoS config field; the study now fixes it.
    @pytest.mark.parametrize(
        "experiment,key,base_config",
        [
            ("anneal-hpo", "bogus_field", AnnealHPOConfig()),
            ("qos", "policy", QoSStudyConfig.quick()),
        ],
    )
    def test_unknown_field_names_key_and_experiment(self, experiment, key, base_config):
        spec = AblationSpec(name="c", experiment=experiment, axes={key: ("edf",)})
        with pytest.raises(ConfigurationError, match=f"{key}.*{experiment}") as error:
            compile_config(spec, self._one_point(spec), base_config)
        valid = sorted(field.name for field in dataclasses.fields(base_config))
        assert str(error.value).endswith("valid fields: " + ", ".join(valid))

    def test_string_for_number_rejected(self):
        spec = AblationSpec(name="c", experiment="anneal-hpo", axes={"num_sweeps": ("many",)})
        with pytest.raises(ConfigurationError, match="num_sweeps"):
            compile_config(spec, self._one_point(spec), AnnealHPOConfig())


#: The spec files shipped with the examples.
EXAMPLE_SPECS = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples" / "specs").glob("*.toml")
)


def test_example_specs_are_found():
    assert len(EXAMPLE_SPECS) >= 3


@pytest.mark.parametrize("path", EXAMPLE_SPECS, ids=lambda path: path.name)
def test_example_spec_compiles_against_its_preset(path):
    # Every point of a shipped spec sets only fields its study's config has,
    # checked without running a shard.
    spec = load_spec(path)
    driver = sweepable_drivers()[spec.experiment]
    base_config = config_presets(driver.config_class)[spec.preset]()
    points = expand_spec(spec)
    assert points
    for point in points:
        compile_config(spec, point, base_config)


def _hpo_spec(**overrides) -> AblationSpec:
    kwargs = dict(
        name="hpo-grid",
        experiment="anneal-hpo",
        preset="quick",
        axes={"num_sweeps": (8, 16), "final_temperature": (0.05, 0.01)},
        objectives=(("best_energy", "min"), ("compute_time_us_mean", "min")),
    )
    kwargs.update(overrides)
    return AblationSpec(**kwargs)


#: Every experiment an ablation spec may name.
_SWEEPABLE = ("anneal-hpo", "fig8", "network", "qos", "robustness", "scenarios", "serve")
_SWEEPABLE_LISTING = "sweepable experiments: " + ", ".join(_SWEEPABLE)


class TestRunStudy:
    def test_serial_equals_sharded_at_any_worker_count(self):
        serial = run_study(_hpo_spec()).table_rows()
        for workers in (2, 3):
            assert run_study(_hpo_spec(), workers=workers).table_rows() == serial

    def test_warm_cache_rerun_hits_every_shard(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_study(_hpo_spec(), cache=cache)
        assert cold.stats.cache_hits == 0
        warm = run_study(_hpo_spec(), cache=cache)
        assert warm.stats.cache_hits == cold.stats.executed > 0
        assert warm.table_rows() == cold.table_rows()

    def test_metric_selectors_restrict_and_order_the_table(self):
        result = run_study(_hpo_spec(metrics=("mean_energy", "best_energy"), objectives=()))
        for row in result.table_rows():
            assert [name for name, _ in row.metrics] == ["mean_energy", "best_energy"]

    def test_unknown_metric_selector_rejected_before_compute(self):
        with pytest.raises(ConfigurationError, match="not_a_metric"):
            run_study(_hpo_spec(metrics=("not_a_metric",)))

    def test_objective_outside_selectors_rejected(self):
        with pytest.raises(ConfigurationError, match="best_energy"):
            run_study(_hpo_spec(metrics=("mean_energy",)))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="no-such-experiment") as error:
            run_study(AblationSpec(name="x", experiment="no-such-experiment"))
        assert error.value.args[0].endswith(_SWEEPABLE_LISTING)

    def test_metric_less_study_rejected(self):
        # fig6 is a CLI study, but it declares no metrics to sweep.
        with pytest.raises(ConfigurationError, match="'fig6' is not sweepable") as error:
            run_study(AblationSpec(name="x", experiment="fig6", preset="quick"))
        assert error.value.args[0].endswith(_SWEEPABLE_LISTING)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="warp"):
            run_study(AblationSpec(name="x", experiment="anneal-hpo", preset="warp"))

    def test_table_and_payload_are_consistent(self):
        result = run_study(_hpo_spec())
        payload = result.payload()
        assert payload["schema_version"] == 1
        assert payload["study"] == "hpo-grid"
        points = payload["data"]["points"]
        assert len(points) == 4
        assert [p["point_id"] for p in points] == [row.point_id for row in result.table_rows()]
        assert set(payload["data"]["pareto"]["front"]) == {
            row.point_id for row in result.table_rows() if row.on_front
        }
        json.dumps(payload)  # artifact must be JSON-clean
        table = format_study_table(result)
        for row in result.table_rows():
            assert row.point_id in table

    def test_builtin_targets_are_registered(self):
        drivers = sweepable_drivers()
        assert set(drivers) == set(_SWEEPABLE)
        assert set(drivers) - {"anneal-hpo"} == {d.name for d in DRIVERS if d.metric_names}
        assert drivers["anneal-hpo"].metric_names == (
            "best_energy",
            "mean_energy",
            "compute_time_us_mean",
            "sweeps_total",
        )


#: The two paper drivers re-expressed as degenerate (single-point, no-axis)
#: studies: running them through ``run_study`` executes exactly the shards a
#: ``repro-experiments fig8`` / ``robustness`` quick run would.
FIG8_QUICK_SPEC = AblationSpec(name="fig8-quick", experiment="fig8", preset="quick")
ROBUSTNESS_QUICK_SPEC = AblationSpec(
    name="robustness-quick", experiment="robustness", preset="quick"
)


class TestDriverSubsumption:
    """The declarative specs reproduce the imperative drivers bitwise."""

    def test_fig8_quick_spec_matches_run_driver(self):
        from repro.experiments.fig8_tts import Figure8Config, Figure8Driver

        direct = run_driver(Figure8Driver(), Figure8Config.quick())
        result = run_study(FIG8_QUICK_SPEC)
        assert len(result.points) == 1
        harness_rows = list(result.points[0].rows)
        assert [dataclasses.asdict(r) for r in harness_rows] == [
            dataclasses.asdict(r) for r in direct
        ]

    def test_robustness_quick_spec_matches_run_driver(self):
        from repro.experiments.robustness_study import (
            RobustnessStudyConfig,
            RobustnessStudyDriver,
        )

        direct = run_driver(RobustnessStudyDriver(), RobustnessStudyConfig.quick())
        result = run_study(ROBUSTNESS_QUICK_SPEC)
        assert len(result.points) == 1
        harness_rows = list(result.points[0].rows)
        assert [dataclasses.asdict(r) for r in harness_rows] == [
            dataclasses.asdict(r) for r in direct
        ]

    def test_fig8_shards_share_cache_with_imperative_driver(self, tmp_path):
        from repro.experiments.fig8_tts import Figure8Config, Figure8Driver

        cache = ResultCache(tmp_path / "cache")
        run_driver(Figure8Driver(), Figure8Config.quick(), cache=cache)
        warm = run_study(FIG8_QUICK_SPEC, cache=cache)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits > 0
