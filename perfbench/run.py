"""End-to-end HTTP benchmark of the anatomy publication server.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point-lookup --seed 1 \\
        --seconds 20 --trace 0

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured over HTTP
against a fresh server; with ``--trace 1`` they are the per-layer ones
(see README.md).  Exits non-zero without a result when the run cannot
be made, e.g. outside a checkout that holds ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Fresh-server set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Tail percentiles tried from the highest down; the first one with at
#: least ``TAIL_BEYOND`` samples above it is reported.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest ladder percentile with at
    least ``TAIL_BEYOND`` samples beyond it; raises when none has."""
    from closedloop import BenchError
    n = len(values)
    for p in TAIL_LADDER:
        if math.floor(n * (100.0 - p) / 100.0 + 1e-9) >= TAIL_BEYOND:
            ordered = sorted(values)
            return p, ordered[math.ceil(n * p / 100.0) - 1]
    raise BenchError(f"{n} samples cannot support a tail percentile: "
                     f"p{TAIL_LADDER[-1]:g} needs {TAIL_BEYOND} beyond it")


def end_to_end(plan, result, verdict) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of one untraced run."""
    exchanges = result.exchanges
    latencies = [ex.seconds for ex in exchanges]
    if plan.workload == "ingest-fresh":
        acks = [ex.replies[0][2] for ex in exchanges]
    else:
        acks = result.load_ack_s
    completed = sum(not f for f in verdict.failed)
    p, tail_s = tail(latencies)
    print(f"request_tail_ms is p{p:g} of {len(latencies)} samples")
    return {
        "setup_s": (statistics.median(result.setup_s), "s"),
        "request_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "request_tail_ms": (tail_s * 1e3, "ms"),
        "requests_per_s": (completed / result.timed_wall_s, "1/s"),
        "server_peak_rss_mb": (result.peak_rss_mb, "MB"),
        "ingest_ack_p50_ms": (statistics.median(acks) * 1e3, "ms"),
    }


def run(workload: str, seed: int, seconds: int, trace: bool,
        scale=None) -> dict:
    """One benchmark run; returns the result object the CLI prints."""
    import closedloop
    import oracle
    import plan as plans
    scale = scale or plans.full_scale(workload, seconds)
    plan = plans.build_plan(workload, seed, scale)
    print(f"{workload}: seed {seed}, {len(plan.timed)} timed operations, "
          f"{plan.repeats} repeats "
          f"({plan.repeats / len(plan.timed):.1%} repeat share)")
    result = closedloop.run_http(ROOT, plan, 1 if trace else SETUPS)
    verdict = oracle.check(plan, result.exchanges, result.publication)
    for error in verdict.errors[:10]:
        print(f"  check failed: {error}")
    if trace:
        import traced
        metrics = traced.per_layer(plan, result)
    else:
        metrics = end_to_end(plan, result, verdict)
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.4f} {unit}")
    return {
        "correct": verdict.correct,
        "attempted": len(verdict.failed),
        "failed": sum(verdict.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from closedloop import BenchError
    from plan import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM so every server subprocess is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        document = run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
