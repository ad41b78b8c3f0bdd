"""Typed metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` owns named metrics, each optionally labelled
(low-cardinality label sets only — label values become Prometheus time
series).  The registry renders two ways:

* :meth:`MetricsRegistry.to_json` — a plain dict for the JSON
  ``/metrics`` document and programmatic assertions;
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition format 0.0.4 (``# HELP`` / ``# TYPE`` / sample lines),
  which ``GET /metrics`` serves to scrapers.

Library hot paths use the module-level hooks (:func:`inc`,
:func:`set_gauge`, :func:`observe`), which are no-ops until a registry
is installed with :func:`set_registry` — mirroring
:mod:`repro.obs.tracing`.  Call sites that would allocate label dicts
should guard with :func:`enabled` so a disabled process pays only a
global load and a branch::

    from repro.obs import metrics

    if metrics.enabled():
        metrics.inc("repro_service_ingest_rows_total", len(rows),
                    publication=name)

*Collectors* bridge state that is already counted elsewhere (the LRU
cache's hit/miss/eviction counters, registry gauges): a collector
callback registered with :meth:`MetricsRegistry.register_collector`
runs right before every render and copies the externally-maintained
values in, so nothing is double-counted on the hot path.
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_left
from collections.abc import Callable, Sequence

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): 0.5 ms .. 10 s, roughly log-spaced.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 10.0,
)

#: Default size buckets (counts): powers of two up to 1024.
DEFAULT_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Base: one named metric with a value per label-value tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 labelnames: Sequence[str]) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: dict[tuple[str, ...], object] = {}

    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{self.labelnames}, got {tuple(sorted(labels))}")
        return tuple(str(labels[n]) for n in self.labelnames)

    def _label_text(self, key: tuple[str, ...]) -> str:
        if not key:
            return ""
        pairs = ",".join(
            f'{n}="{_escape_label_value(v)}"'
            for n, v in zip(self.labelnames, key))
        return "{" + pairs + "}"

    def samples(self) -> list[tuple[str, str, float]]:
        """``(suffix, label_text, value)`` rows for exposition."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (got {value})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def set_total(self, value: float, **labels) -> None:
        """Mirror an externally-maintained monotonic total (collector
        use only; never mix with :meth:`inc` on the same series)."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._values.get(key, 0.0))

    def samples(self) -> list[tuple[str, str, float]]:
        with self._lock:
            return [("", self._label_text(k), float(v))
                    for k, v in sorted(self._values.items())]

    def to_json(self) -> dict:
        with self._lock:
            if not self.labelnames:
                return {"type": self.kind,
                        "value": float(self._values.get((), 0.0))}
            return {"type": self.kind,
                    "values": {",".join(k): float(v)
                               for k, v in sorted(self._values.items())}}


class Gauge(Counter):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def add(self, delta: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + delta

    def inc(self, value: float = 1.0, **labels) -> None:
        self.add(value, **labels)

    def dec(self, value: float = 1.0, **labels) -> None:
        self.add(-value, **labels)


class Histogram(_Metric):
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    Each label series keeps per-bucket counts (``le`` upper bounds plus
    ``+Inf``), a running sum, and a total count.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 labelnames: Sequence[str],
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be distinct")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            series = self._values.get(key)
            if series is None:
                series = self._values[key] = {
                    "buckets": [0] * (len(self.buckets) + 1),
                    "sum": 0.0, "count": 0}
            series["buckets"][idx] += 1  # type: ignore[index]
            series["sum"] += value  # type: ignore[operator]
            series["count"] += 1  # type: ignore[operator]

    def snapshot(self, **labels) -> dict:
        """Cumulative view of one series: ``{le: count}``, sum, count."""
        key = self._key(labels)
        with self._lock:
            series = self._values.get(key)
            if series is None:
                return {"buckets": {}, "sum": 0.0, "count": 0}
            cumulative, running = {}, 0
            for bound, n in zip(self.buckets, series["buckets"]):
                running += n
                cumulative[bound] = running
            cumulative[math.inf] = running + series["buckets"][-1]
            return {"buckets": cumulative, "sum": series["sum"],
                    "count": series["count"]}

    def quantile(self, q: float, **labels) -> float:
        """Estimate the ``q``-quantile of one series by linear
        interpolation within its bucket (see
        :func:`quantile_from_buckets`); ``nan`` for an empty series."""
        key = self._key(labels)
        with self._lock:
            series = self._values.get(key)
            counts = list(series["buckets"]) if series is not None \
                else None
        if counts is None:
            return math.nan
        return quantile_from_buckets(self.buckets, counts, q)

    def samples(self) -> list[tuple[str, str, float]]:
        rows: list[tuple[str, str, float]] = []
        with self._lock:
            items = sorted((k, dict(v, buckets=list(v["buckets"])))
                           for k, v in self._values.items())
        for key, series in items:
            running = 0
            for bound, n in zip(self.buckets, series["buckets"]):
                running += n
                label = self._label_text_with(key, "le",
                                              _format_value(bound))
                rows.append(("_bucket", label, float(running)))
            running += series["buckets"][-1]
            rows.append(("_bucket",
                         self._label_text_with(key, "le", "+Inf"),
                         float(running)))
            rows.append(("_sum", self._label_text(key),
                         float(series["sum"])))
            rows.append(("_count", self._label_text(key),
                         float(series["count"])))
        return rows

    def _label_text_with(self, key: tuple[str, ...], extra_name: str,
                         extra_value: str) -> str:
        pairs = [f'{n}="{_escape_label_value(v)}"'
                 for n, v in zip(self.labelnames, key)]
        pairs.append(f'{extra_name}="{_escape_label_value(extra_value)}"')
        return "{" + ",".join(pairs) + "}"

    def to_json(self) -> dict:
        with self._lock:
            items = sorted((k, dict(v, buckets=list(v["buckets"])))
                           for k, v in self._values.items())
        out: dict = {"type": self.kind,
                     "buckets": [float(b) for b in self.buckets],
                     "values": {}}
        for key, series in items:
            out["values"][",".join(key)] = {
                "counts": list(series["buckets"]),
                "sum": float(series["sum"]),
                "count": int(series["count"]),
            }
        return out


def quantile_from_buckets(bounds: Sequence[float],
                          counts: Sequence[float], q: float) -> float:
    """The ``q``-quantile of a fixed-bucket histogram, Prometheus style.

    ``bounds`` are the finite ``le`` upper bounds and ``counts`` the
    per-bucket (non-cumulative) counts, with the trailing entry the
    ``+Inf`` bucket (``len(counts) == len(bounds) + 1``).  Within the
    containing bucket the quantile is linearly interpolated between the
    bucket's lower and upper bound (the first bucket's lower bound is 0,
    matching non-negative observations like latencies and sizes); a
    quantile landing in the ``+Inf`` bucket is reported as the highest
    finite bound, as ``histogram_quantile`` does.  Returns ``nan`` for
    an empty histogram.

    Examples
    --------
    >>> quantile_from_buckets((1.0, 2.0, 4.0), (0, 10, 0, 0), 0.5)
    1.5
    >>> quantile_from_buckets((1.0, 2.0), (0, 0, 5), 0.99)
    2.0
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if len(counts) != len(bounds) + 1:
        raise ValueError(
            f"expected {len(bounds) + 1} bucket counts "
            f"(finite bounds + the +Inf bucket), got {len(counts)}")
    total = float(sum(counts))
    if total <= 0.0:
        return math.nan
    target = q * total
    cumulative = 0.0
    for i, count in enumerate(counts[:-1]):
        previous = cumulative
        cumulative += float(count)
        if cumulative >= target and count:
            lower = float(bounds[i - 1]) if i else 0.0
            upper = float(bounds[i])
            fraction = (target - previous) / float(count)
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return float(bounds[-1])


class MetricsRegistry:
    """A named collection of typed metrics plus render-time collectors.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: repeated
    calls with the same name return the same metric; re-registering a
    name as a different type (or different labels/buckets) raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, labelnames, **kwargs)
                self._metrics[name] = metric
                return metric
        if type(metric) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{metric.kind}, not {cls.kind}")
        if tuple(labelnames) != metric.labelnames:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{metric.labelnames}, not {tuple(labelnames)}")
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def register_collector(
            self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run before every render; it should copy
        externally-maintained values into registry metrics."""
        with self._lock:
            self._collectors.append(collector)

    # ------------------------------------------------------------------ #
    # one-line instrumentation (auto-creating)
    # ------------------------------------------------------------------ #

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        self.counter(name, labelnames=tuple(labels)).inc(value, **labels)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self.gauge(name, labelnames=tuple(labels)).set(value, **labels)

    def observe(self, name: str, value: float,
                buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                **labels) -> None:
        self.histogram(name, labelnames=tuple(labels),
                       buckets=buckets).observe(value, **labels)

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector(self)

    def to_json(self) -> dict:
        """``{name: metric-dict}`` after running collectors."""
        self.collect()
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.to_json() for name, metric in metrics}

    def render_prometheus(self) -> str:
        """Text exposition format 0.0.4, collectors included."""
        self.collect()
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: list[str] = []
        for name, metric in metrics:
            if metric.help:
                escaped = (metric.help.replace("\\", "\\\\")
                           .replace("\n", "\\n"))
                lines.append(f"# HELP {name} {escaped}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for suffix, label_text, value in metric.samples():
                lines.append(f"{name}{suffix}{label_text} "
                             f"{_format_value(value)}")
        return "\n".join(lines) + "\n"


# the label block is matched greedily up to the last "}" before the
# value: quoted label values may themselves contain "{" and "}"
# (e.g. endpoint="/publications/{name}/query"); _LABEL_PAIR_RE then
# validates each pair's shape.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)(?: (?P<timestamp>-?\d+))?$")
_LABEL_PAIR_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$')


def parse_prometheus_text(text: str) -> dict[str, dict]:
    """Parse (and strictly validate) Prometheus text exposition.

    Every non-comment line must be a well-formed sample; returns
    ``{metric_name: {"type": ..., "samples": {label_text: value}}}``
    where histogram series fold under their base name.  Raises
    ``ValueError`` on the first malformed line — tests use this to
    assert ``GET /metrics`` output is scrapeable.
    """
    metrics: dict[str, dict] = {}
    types: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("# TYPE "):
            fields = line.split(" ")
            if len(fields) != 4 or fields[3] not in (
                    "counter", "gauge", "histogram", "summary",
                    "untyped"):
                raise ValueError(f"line {lineno}: bad TYPE line "
                                 f"{line!r}")
            types[fields[2]] = fields[3]
            continue
        if line.startswith("#"):
            if not line.startswith(("# HELP ", "# TYPE ")):
                raise ValueError(f"line {lineno}: bad comment "
                                 f"{line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample "
                             f"{line!r}")
        label_text = match.group("labels")
        if label_text:
            for pair in _split_label_pairs(label_text):
                if not _LABEL_PAIR_RE.match(pair):
                    raise ValueError(
                        f"line {lineno}: malformed label pair "
                        f"{pair!r}")
        raw = match.group("value")
        if raw in ("+Inf", "-Inf", "NaN"):
            value = {"+Inf": math.inf, "-Inf": -math.inf,
                     "NaN": math.nan}[raw]
        else:
            value = float(raw)  # raises ValueError if malformed
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types:
                base = name[:-len(suffix)]
                break
        entry = metrics.setdefault(
            base, {"type": types.get(base, "untyped"), "samples": {}})
        entry["samples"][name + (("{" + label_text + "}")
                                 if label_text else "")] = value
    return metrics


def _split_label_pairs(label_text: str) -> list[str]:
    """Split ``a="x",b="y"`` respecting escaped quotes."""
    pairs, current, in_quotes, escaped = [], [], False, False
    for ch in label_text:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        pairs.append("".join(current))
    return pairs


def register_build_info(registry: MetricsRegistry, *,
                        version: str | None = None,
                        start_time: float | None = None) -> None:
    """Register the ``repro_build_info`` / ``repro_uptime_seconds``
    gauge pair on ``registry``.

    ``repro_build_info`` is the Prometheus build-info convention — a
    constant ``1`` gauge whose labels carry the interesting values
    (package version, python version) — and ``repro_uptime_seconds``
    is refreshed by a render-time collector, so every scrape reports
    the process age without any hot-path bookkeeping.
    """
    import platform

    if version is None:
        import repro

        version = repro.__version__
    registry.gauge(
        "repro_build_info",
        "Constant 1; labels carry the build identity",
        labelnames=("version", "python")).set(
            1.0, version=version, python=platform.python_version())
    started = time.time() if start_time is None else float(start_time)
    uptime = registry.gauge("repro_uptime_seconds",
                            "Seconds since the process registered "
                            "build info")
    registry.register_collector(
        lambda _reg: uptime.set(max(0.0, time.time() - started)))


_active: MetricsRegistry | None = None


def set_registry(registry: MetricsRegistry | None) -> \
        MetricsRegistry | None:
    """Install ``registry`` as the hook target; returns the previous one
    (pass it back to restore)."""
    global _active
    previous = _active
    _active = registry
    return previous


def active_registry() -> MetricsRegistry | None:
    return _active


def enabled() -> bool:
    return _active is not None


def inc(name: str, value: float = 1.0, **labels) -> None:
    """Increment a counter on the active registry, if any."""
    registry = _active
    if registry is not None:
        registry.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge on the active registry, if any."""
    registry = _active
    if registry is not None:
        registry.set_gauge(name, value, **labels)


def observe(name: str, value: float,
            buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
            **labels) -> None:
    """Observe into a histogram on the active registry, if any."""
    registry = _active
    if registry is not None:
        registry.observe(name, value, buckets=buckets, **labels)
