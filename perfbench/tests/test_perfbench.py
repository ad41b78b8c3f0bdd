"""Tiny-scale passes of every workload through the real server.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import closedloop
import oracle
import plan as plans
import run
import traced

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

TINY = {
    "point-lookup": plans.Scale(base_rows=3000, warmup_ops=4, ops=40),
    "batch-scan": plans.Scale(base_rows=3000, warmup_ops=1, ops=40,
                              batch_queries=50),
    "ingest-fresh": plans.Scale(base_rows=3000, warmup_ops=1, ops=40),
}


def _names_and_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


@pytest.fixture(scope="module")
def runs():
    """Two HTTP runs of the same seed per workload."""
    out = {}
    for workload, scale in TINY.items():
        plan = plans.build_plan(workload, SEED, scale)
        out[workload] = [
            (plan, closedloop.run_http(ROOT, plan, setups=2))
            for _ in range(2)]
    return out


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_every_metric_is_printed_with_its_unit_and_nothing_fails(
        runs, workload):
    plan, result = runs[workload][0]
    verdict = oracle.check(plan, result.exchanges, result.publication)
    assert verdict.correct, verdict.errors
    assert len(verdict.failed) == len(plan.timed)
    assert not any(verdict.failed)
    metrics = run.end_to_end(plan, result, verdict)
    assert {n: u for n, (_, u) in metrics.items()} == \
        _names_and_units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    layers = traced.per_layer(plan, result)
    assert {n: u for n, (_, u) in layers.items()} == \
        _names_and_units("per_layer")


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_same_seed_sends_the_same_bytes_and_repeats_counters(runs,
                                                             workload):
    first = [dataclasses.astuple(r) for r in
             plans.build_plan(workload, SEED, TINY[workload]).requests()]
    again = [dataclasses.astuple(r) for r in
             plans.build_plan(workload, SEED, TINY[workload]).requests()]
    other = [dataclasses.astuple(r) for r in
             plans.build_plan(workload, SEED + 1, TINY[workload]).requests()]
    assert first == again
    assert first != other

    def counters(result):
        stats = result.after["stats"]
        spans = result.after["metrics"]["spans"]
        return (stats["cache"], stats["index_cache"],
                spans.get("service.snapshot", {}).get("count"),
                [r[1] for ex in result.exchanges for r in ex.replies])

    (_, a), (_, b) = runs[workload]
    assert counters(a) == counters(b)


def test_workload_repeat_shares(runs):
    plan, result = runs["point-lookup"][0]
    hits = (result.after["stats"]["cache"]["hits"]
            - result.before["stats"]["cache"]["hits"])
    assert hits == plan.repeats > 0
    for workload in ("batch-scan", "ingest-fresh"):
        plan, result = runs[workload][0]
        assert plan.repeats == 0
        assert result.after["stats"]["cache"]["hits"] == \
            result.before["stats"]["cache"]["hits"]


def _corrupt(reply: bytes, index: int | None) -> bytes:
    document = json.loads(reply)
    target = document["answers"][index] if index is not None else document
    target["answer"] += 1.0
    return json.dumps(document).encode()


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_a_corrupted_answer_counts_as_failed(runs, workload):
    plan, result = runs[workload][0]
    exchanges = list(result.exchanges)
    op = len(exchanges) - 1  # always value-checked
    replies = list(exchanges[op].replies)
    status, body, seconds = replies[-1]
    index = 7 if workload == "batch-scan" else None
    replies[-1] = (status, _corrupt(body, index), seconds)
    exchanges[op] = closedloop.Exchange(replies, exchanges[op].seconds)
    verdict = oracle.check(plan, exchanges, result.publication)
    assert not verdict.correct
    assert verdict.failed == [i == op for i in range(len(exchanges))]


def test_a_transport_failure_counts_as_failed_but_not_wrong(runs):
    plan, result = runs["point-lookup"][0]
    exchanges = list(result.exchanges)
    exchanges[0] = closedloop.Exchange([(None, b"", 0.0)], 0.0)
    verdict = oracle.check(plan, exchanges, result.publication)
    assert verdict.correct
    assert sum(verdict.failed) == 1 and verdict.failed[0]


def test_tail_guard_refuses_a_thin_tail():
    assert run.tail([float(i) for i in range(40)]) == (75.0, 29.0)
    assert run.tail([float(i) for i in range(1000)])[0] == 99.0
    with pytest.raises(closedloop.BenchError):
        run.tail([float(i) for i in range(39)])


def test_run_prints_the_contract_document():
    document = run.run("ingest-fresh", SEED, 1, trace=False,
                       scale=TINY["ingest-fresh"])
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] and document["failed"] == 0
    assert document["attempted"] == TINY["ingest-fresh"].ops
    json.dumps(document)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
