"""Integration tests for the command-line interface."""

import json
import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cli import EXIT_FAILURE, EXIT_USAGE, main
from repro.obs.metrics import parse_prometheus_text

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture()
def microdata_csv(tmp_path):
    path = tmp_path / "micro.csv"
    assert main(["generate", str(path), "--n", "1500", "--d", "3",
                 "--seed", "5"]) == 0
    return path


class TestGenerate:
    def test_writes_csv(self, microdata_csv):
        lines = microdata_csv.read_text().splitlines()
        assert lines[0] == "Age,Gender,Education,Occupation"
        assert len(lines) == 1501

    def test_salary_view(self, tmp_path):
        path = tmp_path / "sal.csv"
        assert main(["generate", str(path), "--n", "100",
                     "--sensitive", "Salary-class"]) == 0
        assert "Salary-class" in path.read_text().splitlines()[0]


class TestAnatomizeVerify(object):
    def test_publish_and_verify(self, microdata_csv, tmp_path, capsys):
        qit = tmp_path / "qit.csv"
        st = tmp_path / "st.csv"
        assert main(["anatomize", str(microdata_csv), str(qit),
                     str(st), "--l", "10"]) == 0
        out = capsys.readouterr().out
        assert "150 QI-groups" in out

        assert main(["verify", str(microdata_csv), str(qit), str(st),
                     "--l", "10"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_fails_for_stronger_l(self, microdata_csv, tmp_path,
                                         capsys):
        qit = tmp_path / "qit.csv"
        st = tmp_path / "st.csv"
        main(["anatomize", str(microdata_csv), str(qit), str(st),
              "--l", "5"])
        capsys.readouterr()
        assert main(["verify", str(microdata_csv), str(qit), str(st),
                     "--l", "20"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_infeasible_l_reports_error(self, microdata_csv, tmp_path,
                                        capsys):
        rc = main(["anatomize", str(microdata_csv),
                   str(tmp_path / "q.csv"), str(tmp_path / "s.csv"),
                   "--l", "4000"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestAttack:
    def test_posterior_printed(self, microdata_csv, tmp_path, capsys):
        qit = tmp_path / "qit.csv"
        st = tmp_path / "st.csv"
        main(["anatomize", str(microdata_csv), str(qit), str(st),
              "--l", "10"])
        # pick the first tuple's QI values as the target
        first = microdata_csv.read_text().splitlines()[1].split(",")
        capsys.readouterr()
        rc = main(["attack", str(microdata_csv), str(qit), str(st),
                   first[0], first[1], first[2]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max inference probability" in out
        # the bound must show through the CLI too
        pct = float(out.rsplit(":", 1)[1].strip().rstrip("%"))
        assert pct <= 10.0 + 1e-6

    def test_wrong_arity_rejected(self, microdata_csv, tmp_path,
                                  capsys):
        qit = tmp_path / "qit.csv"
        st = tmp_path / "st.csv"
        main(["anatomize", str(microdata_csv), str(qit), str(st)])
        capsys.readouterr()
        rc = main(["attack", str(microdata_csv), str(qit), str(st),
                   "30"])
        assert rc == 2

    def test_absent_target_reported(self, microdata_csv, tmp_path,
                                    capsys):
        qit = tmp_path / "qit.csv"
        st = tmp_path / "st.csv"
        main(["anatomize", str(microdata_csv), str(qit), str(st)])
        capsys.readouterr()
        # Age 15 / F / Education:0 may exist; use an impossible combo by
        # picking a value absent from the (inferred, data-driven) domain
        rc = main(["attack", str(microdata_csv), str(qit), str(st),
                   "nope", "F", "Education:0"])
        assert rc == 1


class TestExitCodes:
    def test_usage_errors_return_two(self, capsys):
        assert main(["no-such-command"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE
        capsys.readouterr()  # argparse wrote usage to stderr

    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_repro_error_returns_one(self, microdata_csv, tmp_path,
                                     capsys):
        rc = main(["anatomize", str(microdata_csv),
                   str(tmp_path / "q.csv"), str(tmp_path / "s.csv"),
                   "--l", "4000"])
        assert rc == EXIT_FAILURE
        assert "error" in capsys.readouterr().err
        assert EXIT_FAILURE != EXIT_USAGE


class TestServe:
    def test_serve_smoke_over_http(self):
        """Start ``python -m repro serve``, create/ingest/query over
        HTTP, then shut the process down."""
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--trace", "--log-json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            line = process.stdout.readline()
            assert line.startswith("serving on http://"), line
            base = line.split()[-1].strip()

            def call(method, path, body=None):
                data = json.dumps(body).encode() if body is not None \
                    else None
                request = urllib.request.Request(
                    base + path, data=data, method=method,
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=30) as r:
                    return r.status, json.loads(r.read())

            status, _ = call("POST", "/publications", {
                "name": "smoke", "l": 2,
                "schema": {"qi": [{"name": "A", "size": 10}],
                           "sensitive": {"name": "S", "size": 5}}})
            assert status == 201
            status, result = call(
                "POST", "/publications/smoke/ingest",
                {"rows": [[i % 10, i % 5] for i in range(10)]})
            assert status == 200 and result["sealed_groups"] > 0
            status, answer = call(
                "POST", "/publications/smoke/query",
                {"qi": {"A": [0, 1, 2]}, "sensitive": [0, 1]})
            assert status == 200 and answer["version"] > 0

            # /metrics serves strictly-valid Prometheus text: every
            # line must parse, and the instrumented families must show
            # the traffic generated above
            request = urllib.request.Request(base + "/metrics")
            with urllib.request.urlopen(request, timeout=30) as r:
                assert r.status == 200
                assert r.headers["Content-Type"].startswith(
                    "text/plain")
                parsed = parse_prometheus_text(r.read().decode())
            assert parsed["repro_http_requests_total"]["type"] \
                == "counter"
            assert parsed["repro_http_request_seconds"]["type"] \
                == "histogram"
            audits = parsed["repro_privacy_audit_ok"]["samples"]
            assert audits and all(
                'publication="smoke"' in key and value == 1.0
                for key, value in audits.items())
            assert "repro_cache_misses_total" in parsed

            # --trace: the JSON document exposes finished trace spans
            request = urllib.request.Request(
                base + "/metrics?format=json")
            with urllib.request.urlopen(request, timeout=30) as r:
                document = json.loads(r.read())
            traces = document.get("traces", [])
            assert any(s["name"] == "http.request" for s in traces)
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)

    def test_serve_rejects_bad_mode(self, capsys):
        assert main(["serve", "--mode", "sloppy"]) == EXIT_USAGE
        # exact is the only evaluation mode, so there is no flag left
        assert main(["serve", "--mode", "exact"]) == EXIT_USAGE
        assert "--mode" in capsys.readouterr().err

    def test_serve_monitor_smoke(self, tmp_path):
        """``serve --monitor --slo-config --export-telemetry``: the
        background canary publishes ``repro_utility_relative_error``
        on /metrics, /healthz turns tri-state, and the telemetry
        exporter writes span/metrics JSON lines."""
        slo_path = tmp_path / "slo.json"
        slo_path.write_text(json.dumps({"error_rate_failing": 0.5}))
        telemetry_path = tmp_path / "telemetry.jsonl"
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--trace", "--monitor", "--monitor-interval", "0.1",
             "--monitor-queries", "8",
             "--slo-config", str(slo_path),
             "--export-telemetry", str(telemetry_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            line = process.stdout.readline()
            assert line.startswith("serving on http://"), line
            base = line.split()[-1].strip()

            def call(method, path, body=None):
                data = json.dumps(body).encode() if body is not None \
                    else None
                request = urllib.request.Request(
                    base + path, data=data, method=method,
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=30) as r:
                    return r.status, json.loads(r.read())

            status, _ = call("POST", "/publications", {
                "name": "smoke", "l": 2,
                "schema": {"qi": [{"name": "A", "size": 10}],
                           "sensitive": {"name": "S", "size": 5}}})
            assert status == 201
            status, result = call(
                "POST", "/publications/smoke/ingest",
                {"rows": [[i % 10, i % 5] for i in range(40)]})
            assert status == 200 and result["sealed_groups"] > 0

            # poll until the background canary has measured the
            # publication and its gauge is scrapeable
            deadline = time.monotonic() + 30.0
            while True:
                with urllib.request.urlopen(base + "/metrics",
                                            timeout=30) as r:
                    parsed = parse_prometheus_text(r.read().decode())
                samples = parsed.get(
                    "repro_utility_relative_error", {}).get(
                        "samples", {})
                if any('publication="smoke"' in key
                       for key in samples):
                    break
                assert time.monotonic() < deadline, \
                    "canary gauge never appeared on /metrics"
                time.sleep(0.05)
            assert all(value >= 0.0 for value in samples.values())
            assert "repro_build_info" in parsed
            assert "repro_uptime_seconds" in parsed
            assert "repro_utility_canary_runs_total" in parsed

            # tri-state health: quiet clean service reports ok with
            # the per-SLO breakdown attached
            status, health = call("GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert "slos" in health and "reasons" in health
            # the evaluation above published the state gauge
            with urllib.request.urlopen(base + "/metrics",
                                        timeout=30) as r:
                parsed = parse_prometheus_text(r.read().decode())
            assert parsed["repro_slo_state"]["samples"][
                "repro_slo_state"] == 0.0

            # the exporter drains spans and metric snapshots to disk
            deadline = time.monotonic() + 30.0
            while True:
                lines = [json.loads(l) for l in
                         telemetry_path.read_text().splitlines()] \
                    if telemetry_path.exists() else []
                kinds = {record["kind"] for record in lines}
                if {"span", "metrics"} <= kinds:
                    break
                assert time.monotonic() < deadline, \
                    f"telemetry never flushed both kinds: {kinds}"
                time.sleep(0.05)
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)


class TestExperimentCommand:
    def test_fig4_smoke(self, capsys):
        assert main(["experiment", "fig4", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "anatomy" in out and "generalization" in out
