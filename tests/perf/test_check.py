"""Unit tests for the benchmark regression gate (repro.perf.check)."""

import json

import pytest

from repro.perf.check import DEFAULT_BASELINE, compare, load_summary, main


def summary(spans):
    return {"schema_version": 1, "metadata": {},
            "spans": {name: {"count": 1, "total_s": mean,
                             "mean_s": mean, "min_s": mean,
                             "max_s": mean}
                      for name, mean in spans.items()},
            "entries": []}


def write(path, document):
    path.write_text(json.dumps(document))
    return str(path)


class TestCompare:
    def test_no_regression_yields_only_notes(self):
        violations, notes = compare(summary({"a": 0.010}),
                                    summary({"a": 0.010}))
        assert violations == []
        assert notes == ["a: 10.00 ms vs baseline 10.00 ms (1.00x)"]

    def test_regression_names_span_ratio_and_delta(self):
        violations, _ = compare(summary({"a": 0.030}),
                                summary({"a": 0.010}))
        line, = violations
        assert line.startswith("a: 30.00 ms vs baseline 10.00 ms")
        assert "(3.00x)" in line
        assert "exceeds 2.0x" in line
        assert "(+20.00 ms/call)" in line

    def test_violations_sorted_worst_regression_first(self):
        violations, _ = compare(
            summary({"mild": 0.025, "severe": 0.100}),
            summary({"mild": 0.010, "severe": 0.010}))
        assert [v.split(":")[0] for v in violations] == \
            ["severe", "mild"]

    def test_unmatched_spans_are_notes_not_failures(self):
        violations, notes = compare(summary({"new": 1.0}),
                                    summary({"old": 0.001}))
        assert violations == []
        assert "old: in baseline only (not run)" in notes
        assert "new: new span (no baseline)" in notes

    def test_threshold_is_configurable(self):
        current, baseline = summary({"a": 0.015}), summary({"a": 0.010})
        assert compare(current, baseline, threshold=1.2)[0]
        assert not compare(current, baseline, threshold=2.0)[0]

    def test_zero_baseline_mean_never_divides(self):
        violations, _ = compare(summary({"a": 1.0}),
                                summary({"a": 0.0}))
        assert violations == []


class TestLoadSummary:
    def test_rejects_documents_without_a_spans_map(self, tmp_path):
        path = write(tmp_path / "bad.json", {"spans": "nope"})
        with pytest.raises(ValueError, match="not a benchmark summary"):
            load_summary(path)
        path = write(tmp_path / "list.json", [1, 2, 3])
        with pytest.raises(ValueError, match="not a benchmark summary"):
            load_summary(path)


class TestCommittedBaseline:
    def test_baseline_holds_span_aggregates_only(self):
        baseline = load_summary(DEFAULT_BASELINE)
        assert set(baseline) == {"schema_version", "metadata", "spans"}
        assert baseline["spans"]
        for stats in baseline["spans"].values():
            assert set(stats) == {"count", "total_s", "min_s", "max_s",
                                  "mean_s"}


class TestMain:
    def test_missing_summary_exits_2_with_usage(self, tmp_path,
                                                capsys):
        code = main(["--current", str(tmp_path / "absent.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "no benchmark summary" in err
        assert "python -m pytest benchmarks" in err
        assert "repro.perf.check" in err

    def test_malformed_summary_exits_2_with_usage(self, tmp_path,
                                                  capsys):
        current = tmp_path / "current.json"
        current.write_text("{not json")
        baseline = write(tmp_path / "baseline.json", summary({}))
        code = main(["--current", str(current),
                     "--baseline", baseline])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read benchmark summaries" in err
        assert "--update-baseline" in err

    def test_missing_baseline_passes_with_hint(self, tmp_path, capsys):
        current = write(tmp_path / "current.json", summary({"a": 1.0}))
        code = main(["--current", current,
                     "--baseline", str(tmp_path / "absent.json")])
        assert code == 0
        assert "--update-baseline" in capsys.readouterr().out

    def test_update_baseline_copies_current(self, tmp_path, capsys):
        current = write(tmp_path / "current.json", summary({"a": 1.0}))
        baseline = tmp_path / "baseline.json"
        assert main(["--current", current, "--baseline",
                     str(baseline), "--update-baseline"]) == 0
        assert json.loads(baseline.read_text()) == summary({"a": 1.0})

    def test_regression_exits_1_and_reports_worst_first(
            self, tmp_path, capsys):
        current = write(tmp_path / "current.json",
                        summary({"mild": 0.025, "severe": 0.100,
                                 "fine": 0.010}))
        baseline = write(tmp_path / "baseline.json",
                         summary({"mild": 0.010, "severe": 0.010,
                                  "fine": 0.010}))
        code = main(["--current", current, "--baseline", baseline])
        assert code == 1
        captured = capsys.readouterr()
        fail_lines = [l for l in captured.out.splitlines()
                      if l.startswith("FAIL")]
        assert [l.split()[1].rstrip(":") for l in fail_lines] == \
            ["severe", "mild"]
        assert "  ok  fine:" in captured.out
        assert "2 span(s) regressed" in captured.err
        assert "worst first" in captured.err

    def test_clean_run_exits_0(self, tmp_path, capsys):
        current = write(tmp_path / "current.json", summary({"a": 0.01}))
        baseline = write(tmp_path / "baseline.json",
                         summary({"a": 0.01}))
        assert main(["--current", current, "--baseline",
                     baseline]) == 0
        assert "no regressions" in capsys.readouterr().out
