"""Tests for the experiment runners (quick configurations)."""

from repro.experiments import (
    Figure3Config,
    Figure3Driver,
    Figure6Config,
    Figure6Driver,
    Figure7Config,
    Figure7Driver,
    Figure8Config,
    Figure8Driver,
    HeadlineConfig,
    HeadlineDriver,
    InitializerAblationConfig,
    InitializerAblationDriver,
    PipelineStudyConfig,
    PipelineStudyDriver,
    SoftConstraintConfig,
    SoftConstraintDriver,
    format_figure3_table,
    format_figure6_table,
    format_figure7_table,
    format_figure8_table,
    format_headline_report,
    format_initializer_table,
    format_pipeline_table,
    format_soft_constraint_table,
    run_driver,
)
from repro.experiments.fig7_initial_state import _MAX_BIN_PERCENT


class TestFigure3:
    def test_rows_and_table(self):
        config = Figure3Config(
            instances_per_point=2,
            user_counts={"QPSK": (2, 6, 20), "16-QAM": (1, 3, 10)},
        )
        rows = run_driver(Figure3Driver(), config)
        assert len(rows) == 6
        for row in rows:
            assert 0.0 <= row.simplified_ratio <= 1.0
            assert row.average_fixed_variables >= 0.0
            assert row.num_variables == row.num_users * (2 if row.modulation == "QPSK" else 4)
        table = format_figure3_table(rows)
        assert "simplified ratio" in table

    def test_large_problems_not_simplified(self):
        config = Figure3Config(instances_per_point=2, user_counts={"16-QAM": (12,)})
        rows = run_driver(Figure3Driver(), config)
        assert rows[0].simplified_ratio == 0.0

    def test_paper_scale_configuration(self):
        assert Figure3Config.paper_scale().instances_per_point == 50


class TestFigure6:
    def test_quick_run(self):
        series = run_driver(Figure6Driver(), Figure6Config.quick())
        methods = {row.method for row in series}
        assert methods == {"FA", "RA-random", "RA-greedy"}
        for row in series:
            assert row.num_samples > 0
            assert abs(sum(row.histogram) - 1.0) < 1e-6
            assert 0.0 <= row.ground_state_fraction <= 1.0
        table = format_figure6_table(series)
        assert "RA-greedy" in table

    def test_modulation_filter(self):
        config = Figure6Config(
            num_variables=8,
            instances_per_modulation=1,
            num_reads=60,
            modulations=("QPSK",),
        )
        series = run_driver(Figure6Driver(), config)
        assert {row.modulation for row in series} == {"QPSK"}


class TestFigure7:
    def test_quick_run(self):
        rows = run_driver(Figure7Driver(), Figure7Config.quick())
        assert rows, "at least the ground-state bin must be populated"
        assert rows[0].bin_low_percent == 0.0
        for row in rows:
            assert 0.0 <= row.success_probability <= 1.0
            assert row.mean_initial_quality < _MAX_BIN_PERCENT
        assert "dE_IS%" in format_figure7_table(rows)

    def test_bins_are_ordered(self):
        rows = run_driver(Figure7Driver(), Figure7Config.quick())
        lows = [row.bin_low_percent for row in rows]
        assert lows == sorted(lows)


class TestFigure8:
    def test_quick_run(self):
        config = Figure8Config.quick()
        rows = run_driver(Figure8Driver(), config)
        methods = {row.method for row in rows}
        assert {"FA", "RA-greedy", "RA-ground"}.issubset(methods)
        per_method = {
            method: [row for row in rows if row.method == method] for method in methods
        }
        for method_rows in per_method.values():
            assert len(method_rows) == len(config.grid())
        assert "TTS" in format_figure8_table(rows)

    def test_ra_ground_dominates_at_high_switch(self):
        rows = run_driver(Figure8Driver(), Figure8Config.quick())
        high = max(Figure8Config.quick().grid())
        ground_row = next(
            row for row in rows if row.method == "RA-ground" and row.switch_s == high
        )
        assert ground_row.success_probability > 0.5


class TestHeadline:
    def test_quick_run(self):
        result = run_driver(HeadlineDriver(), HeadlineConfig.quick())
        assert len(result.instance_labels) == 1
        assert len(result.success_ratios) == 1
        assert result.median_tts_speedup >= 0.0
        report = format_headline_report(result)
        assert "speedup" in report


class TestPipelineStudy:
    def test_quick_run(self):
        result = run_driver(PipelineStudyDriver(), PipelineStudyConfig.quick())
        assert result.pipelined.num_jobs == result.serial.num_jobs
        assert result.throughput_gain >= 1.0 - 1e-9
        assert "pipelined" in format_pipeline_table(result)


class TestAblations:
    def test_initializer_ablation_quick(self):
        rows = run_driver(InitializerAblationDriver(), InitializerAblationConfig.quick())
        names = [row.initializer for row in rows]
        assert names == ["greedy", "zero-forcing"]
        for row in rows:
            assert row.initial_quality_percent >= -1e-9
            assert 0.0 <= row.success_probability <= 1.0
        assert "initializer" in format_initializer_table(rows)

    def test_soft_constraint_quick(self):
        rows = run_driver(SoftConstraintDriver(), SoftConstraintConfig.quick())
        knowledge_kinds = {row.knowledge for row in rows}
        assert "none" in knowledge_kinds
        assert "correct" in knowledge_kinds
        baseline = next(row for row in rows if row.knowledge == "none")
        assert baseline.optimum_preserved
        correct = next(row for row in rows if row.knowledge == "correct")
        assert correct.optimum_preserved
        assert "strength" in format_soft_constraint_table(rows)
