"""Benchmark regression gate: ``python -m repro.perf.check``.

Compares the spans of a freshly written ``BENCH_summary.json`` against a
recorded baseline and exits non-zero when any span's mean wall-clock
time regressed by more than the threshold (default 2x).  The quick-tier
smoke job runs::

    REPRO_BENCH_SCALE=smoke python -m pytest benchmarks \
        -k "algorithm_speed or batch_queries or service or monitor"
    python -m repro.perf.check

Record (or refresh) the baseline from the current summary with
``python -m repro.perf.check --update-baseline``.  Span names present in
only one of the two files are reported but never fail the gate, so new
benchmarks can land before the baseline is refreshed.

A summary is ``{"schema_version", "metadata", "spans"}`` with ``spans``
the per-name aggregates of :meth:`repro.obs.tracing.Tracer.totals`;
:func:`write_summary` is its one writer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

_BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))), "benchmarks")
DEFAULT_CURRENT = os.path.join(_BENCH_DIR, "BENCH_summary.json")
DEFAULT_BASELINE = os.path.join(_BENCH_DIR, "BENCH_baseline.json")

#: Format version of the summary document.
SCHEMA_VERSION = 1

#: Spans whose ``mean_s`` holds a dimensionless ratio rather than a
#: time (``benchmarks/bench_monitor.py`` records the monitored/plain
#: latency ratio this way).  They are gated like every other span but
#: printed without a unit.
RATIO_SPANS = frozenset({"bench.service_query_monitor_overhead"})


def write_summary(path: str, spans: dict[str, dict], **metadata) -> str:
    """Write a benchmark summary as JSON, creating the parent directory
    if missing; returns ``path``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    document = {"schema_version": SCHEMA_VERSION, "metadata": metadata,
                "spans": spans}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_summary(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    if not isinstance(document, dict) or \
            not isinstance(document.get("spans", {}), dict):
        raise ValueError(f"{path} is not a benchmark summary "
                         f"(expected an object with a 'spans' map)")
    return document


def _format_mean(name: str, value: float) -> str:
    """A span's mean as printed: milliseconds, or a bare number for the
    :data:`RATIO_SPANS`."""
    if name in RATIO_SPANS:
        return f"{value:.3f}"
    return f"{value * 1e3:.2f} ms"


def compare(current: dict, baseline: dict,
            threshold: float = 2.0) -> tuple[list[str], list[str]]:
    """Diff two summaries' per-span mean times.

    Returns ``(violations, notes)``: spans slower than ``threshold`` x
    baseline — worst regression first, each naming the span and the
    regression factor — and informational lines (unmatched spans,
    improvements).
    """
    regressed: list[tuple[float, str]] = []
    notes: list[str] = []
    current_spans = current.get("spans", {})
    baseline_spans = baseline.get("spans", {})
    for name in sorted(baseline_spans):
        base = baseline_spans[name]
        cur = current_spans.get(name)
        if cur is None:
            notes.append(f"{name}: in baseline only (not run)")
            continue
        base_mean = float(base.get("mean_s", 0.0))
        cur_mean = float(cur.get("mean_s", 0.0))
        if base_mean <= 0.0:
            continue
        ratio = cur_mean / base_mean
        line = (f"{name}: {_format_mean(name, cur_mean)} vs baseline "
                f"{_format_mean(name, base_mean)} ({ratio:.2f}x)")
        if ratio > threshold:
            delta = _format_mean(name, cur_mean - base_mean)
            if name not in RATIO_SPANS:
                delta += "/call"
            regressed.append((ratio, (
                f"{line} exceeds {threshold:.1f}x (+{delta})")))
        else:
            notes.append(line)
    for name in sorted(set(current_spans) - set(baseline_spans)):
        notes.append(f"{name}: new span (no baseline)")
    regressed.sort(key=lambda pair: -pair[0])
    return [line for _, line in regressed], notes


def report_header(current: dict, baseline: dict) -> list[str]:
    """Environment lines printed above the diff: the CPU count of this
    runner plus the scale and CPU count recorded in each summary's
    metadata, so a "regression" caused by comparing a 16-core baseline
    against a 2-core runner is readable as such."""
    def describe(document: dict) -> str:
        metadata = document.get("metadata") or {}
        fields = [f"{key}={metadata[key]}"
                  for key in ("scale", "cpu_count")
                  if key in metadata]
        return ", ".join(fields) if fields else "no metadata"

    return [
        f"runner: cpu_count={os.cpu_count()}",
        f"current:  {describe(current)}",
        f"baseline: {describe(baseline)}",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perf.check",
        description="Fail when benchmark spans regress vs the baseline.")
    parser.add_argument("--current", default=DEFAULT_CURRENT,
                        help="summary written by the benchmark run")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="recorded baseline summary")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="max allowed mean-time ratio (default 2.0)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="copy the current summary over the baseline")
    args = parser.parse_args(argv)

    if not os.path.exists(args.current):
        print(f"error: no benchmark summary at {args.current}\n"
              f"usage: run the benchmark suite first, e.g.\n"
              f"  REPRO_BENCH_SCALE=smoke python -m pytest benchmarks "
              f"-k 'algorithm_speed or batch_queries or service or monitor'\n"
              f"then re-run python -m repro.perf.check",
              file=sys.stderr)
        return 2
    if args.update_baseline:
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline updated: {args.baseline}")
        return 0
    if not os.path.exists(args.baseline):
        print(f"no baseline recorded at {args.baseline}; "
              f"run with --update-baseline to create one")
        return 0
    try:
        current = load_summary(args.current)
        baseline = load_summary(args.baseline)
    except (ValueError, OSError) as exc:
        print(f"error: cannot read benchmark summaries: {exc}\n"
              f"usage: regenerate with the benchmark suite, or refresh "
              f"the baseline with --update-baseline", file=sys.stderr)
        return 2
    for line in report_header(current, baseline):
        print(line)
    violations, notes = compare(current, baseline,
                                threshold=args.threshold)
    for line in notes:
        print(f"  ok  {line}")
    for line in violations:
        print(f"FAIL  {line}")
    if violations:
        print(f"{len(violations)} span(s) regressed more than "
              f"{args.threshold:.1f}x (worst first above)",
              file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
