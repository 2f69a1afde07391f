"""Tests for the run-all CLI and the security harness internals."""

import pytest

from repro.compiler import InvalidateExtent, KernelBuilder, run_lmi_pass
from repro.experiments.__main__ import EXPERIMENTS, main
from repro.security.harness import CaseResult, SecurityReport
from repro.security.testcases import CaseOutcome, Category


class TestCli:
    def test_all_experiment_names_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig4", "fig12", "fig13", "table2", "table3", "table6",
            "feasibility",
        }

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["warpdrive"]) == 2
        assert "unknown experiments" in capsys.readouterr().out

    def test_single_fast_experiment_runs(self, capsys):
        assert main(["--fast", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "backprop" in out
        assert "geomean" in out

    def test_feasibility_runs(self, capsys):
        assert main(["feasibility"]) == 0
        assert "vector_add" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_usage_and_runs_nothing(self, flag, capsys,
                                                monkeypatch):
        def boom(fast, jobs):
            raise AssertionError("--help ran an experiment")

        for name in EXPERIMENTS:
            monkeypatch.setitem(EXPERIMENTS, name, boom)
        assert main([flag]) == 0
        out = capsys.readouterr().out
        assert "python -m repro.experiments" in out
        assert "=" * 72 not in out  # no experiment banner or table

    @pytest.mark.parametrize("argv, flag", [
        (["--job", "4"], "--job"),
        (["fig4", "--batch", "2"], "--batch"),
        (["--fsat", "fig4"], "--fsat"),
    ])
    def test_unknown_flag_exits_2_naming_it(self, argv, flag, capsys):
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert f"unknown option {flag!r}" in out
        assert "=" * 72 not in out


class TestLmiPassIdempotency:
    def test_double_run_inserts_nothing_new(self):
        b = KernelBuilder("x")
        b.alloca(64)
        b.scope_begin()
        b.alloca(32)
        b.scope_end()
        h = b.malloc(128)
        b.free(h)
        b.ret()
        module = b.module()
        run_lmi_pass(module)
        first = sum(
            isinstance(i, InvalidateExtent)
            for i in module.kernel.instructions()
        )
        second_result = run_lmi_pass(module)
        second = sum(
            isinstance(i, InvalidateExtent)
            for i in module.kernel.instructions()
        )
        assert first == second
        assert second_result.inserted_instructions == 0


def _fake_report():
    """A hand-built report exercising the aggregation paths."""
    report = SecurityReport()

    def add(case_id, category, mechanism, detected, oracle=True):
        report.results.append(
            CaseResult(
                case_id=case_id,
                category=category,
                mechanism=mechanism,
                outcome=CaseOutcome(detected=detected, oracle=oracle),
            )
        )

    for mech, hits in (("a", True), ("b", False)):
        add("g1", Category.GLOBAL_OOB, mech, hits)
        add("g2", Category.GLOBAL_OOB, mech, True)
        add("u1", Category.UAF, mech, hits)
    # A broken case: the oracle never fired.
    add("broken", Category.HEAP_OOB, "a", False, oracle=False)
    add("broken", Category.HEAP_OOB, "b", False, oracle=False)
    return report


class TestHarnessAggregation:
    def test_detections_counts_true_positives_only(self):
        report = _fake_report()
        assert report.detections("a", Category.GLOBAL_OOB) == 2
        assert report.detections("b", Category.GLOBAL_OOB) == 1

    def test_totals_count_unique_cases(self):
        report = _fake_report()
        assert report.total(Category.GLOBAL_OOB) == 2
        assert report.total(Category.UAF) == 1
        assert report.total(Category.INVALID_FREE) == 0

    def test_coverage_split_by_spatial(self):
        report = _fake_report()
        # Mechanism a: 2/2 global + 0/1 heap(broken) spatial.
        assert report.coverage("a", spatial=True) == pytest.approx(2 / 3)
        assert report.coverage("a", spatial=False) == pytest.approx(1.0)
        assert report.coverage("b", spatial=False) == pytest.approx(0.0)

    def test_oracle_failures_surface_broken_cases(self):
        report = _fake_report()
        assert [r.case_id for r in report.oracle_failures()] == ["broken"]

    def test_rows_include_every_category(self):
        rows = _fake_report().rows()
        assert len(rows) == len(Category)

    def test_empty_report_coverage_is_zero(self):
        assert SecurityReport().coverage("x", spatial=True) == 0.0
