"""Benchmark E-F4: the soft-information constraint study (paper Fig. 4 / Sec. 3.1).

The paper explored adding soft-information penalty terms to the QUBO and found
the scheme "not currently practical": helpful only when the pre-knowledge is
both correct and gently weighted, and harmful when the pre-knowledge is wrong
(the global optimum of the augmented problem moves away from the true one).
The benchmark reproduces exactly that trade-off.
"""

from conftest import run_once

from repro.experiments.ablation import (
    SoftConstraintConfig,
    SoftConstraintDriver,
    format_soft_constraint_table,
)
from repro.experiments.driver import run_driver


def test_soft_constraint_study(benchmark, report_writer):
    config = SoftConstraintConfig(num_reads=400, strengths=(0.0, 0.5, 2.0, 8.0))
    rows = run_once(benchmark, run_driver, SoftConstraintDriver(), config)
    report_writer("soft_constraints", format_soft_constraint_table(rows), data=rows)

    baseline = next(row for row in rows if row.knowledge == "none")
    assert baseline.optimum_preserved

    # Correct pre-knowledge never destroys the optimum, at any strength.
    correct_rows = [row for row in rows if row.knowledge == "correct"]
    assert correct_rows and all(row.optimum_preserved for row in correct_rows)

    # Wrong pre-knowledge at high strength distorts the problem: the original
    # optimum stops being the augmented ground state for at least one setting,
    # which is the failure mode the paper warns about.
    wrong_rows = [row for row in rows if row.knowledge == "partially-wrong"]
    assert wrong_rows
    assert any(not row.optimum_preserved for row in wrong_rows)
    # And the solver's success on the original objective under wrong knowledge
    # never exceeds its success under correct knowledge at the same strength.
    for strength in {row.strength for row in wrong_rows}:
        correct = next(row for row in correct_rows if row.strength == strength)
        wrong = next(row for row in wrong_rows if row.strength == strength)
        assert wrong.success_probability <= correct.success_probability + 0.05
