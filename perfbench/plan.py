"""Seeded request plans for the three workloads.

A plan is everything one run sends, serialized to bytes before any
server starts: the set-up requests (create the publication, load it to
the workload's base size, answer a first query), warm-up operations and
the timed operations.  The same ``(workload, seed, scale)`` always
yields byte-identical requests, so two commits serve the same work in
the same order and the cache and snapshot counters repeat exactly.

Data comes from the in-repo CENSUS generator (OCC-5 view); queries
follow the paper's Section 6.1 workload with the Table 7 defaults
qd = d = 5 and s = 5%.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.dataset.census import CensusDataset, census_schema
from repro.query.workload import predicate_width
from repro.service.registry import schema_to_json

WORKLOADS = ("point-lookup", "batch-scan", "ingest-fresh")

PUBLICATION = "bench"
L = 10
#: Seed of the server's incremental anatomizer (the publication seed).
PUBLICATION_SEED = 0
D = 5
QD = 5
SELECTIVITY = 0.05
#: The server's default result-cache capacity (``serve --cache-size``).
#: point-lookup sends this many distinct queries in one batch before the
#: timed phase, so the LRU is full and every timed miss evicts.
CACHE_ENTRIES = 4096
#: Share of point-lookup requests that resend one of the last
#: ``REPEAT_WINDOW`` distinct queries; the window is far below the
#: cache's capacity, so a repeat is always still cached.
REPEAT_SHARE = 0.30
REPEAT_WINDOW = 32
#: Rows per ingest-fresh cycle (about 10 sealed groups at l = 10).
CYCLE_ROWS = 100
#: Rows per set-up ingest call.
LOAD_CHUNK = 10_000

QUERY_PATH = f"/publications/{PUBLICATION}/query"
INGEST_PATH = f"/publications/{PUBLICATION}/ingest"


@dataclass(frozen=True)
class Scale:
    """Sizes of one run.  ``ops`` is a fixed operation count, not a time
    budget, so that every run of a seed does the same work."""

    base_rows: int
    warmup_ops: int
    ops: int
    batch_queries: int = 1000


#: Operations per second of ``--seconds`` on the parent commit (2-vCPU
#: KVM guest), so a run measures for about ``--seconds``.  The count
#: stays fixed when the program gets faster, which keeps counters exact.
NOMINAL_OPS_PER_S = {"point-lookup": 22.0, "batch-scan": 2.2,
                     "ingest-fresh": 3.0}


def full_scale(workload: str, seconds: int) -> Scale:
    """The scale a ``--seconds`` run of ``workload`` uses."""
    return Scale(
        base_rows=30_000 if workload == "ingest-fresh" else 100_000,
        warmup_ops=32 if workload == "point-lookup" else 2,
        ops=max(40, round(seconds * NOMINAL_OPS_PER_S[workload])))


@dataclass(frozen=True)
class Request:
    method: str
    path: str
    body: bytes | None = None


@dataclass
class Plan:
    """One run's requests plus what the oracle needs to replay it."""

    workload: str
    seed: int
    scale: Scale
    #: Create, load chunks, first query.
    setup: list[Request]
    #: Untimed operations after set-up; each operation is a tuple of
    #: requests sent back to back.
    warmup: list[tuple[Request, ...]]
    timed: list[tuple[Request, ...]]
    #: Rows of each set-up ingest call, in send order.
    load_chunks: list[list[list[int]]]
    #: Rows of each ingest-fresh cycle, warm-up cycles first.
    cycle_chunks: list[list[list[int]]] = field(default_factory=list)
    #: Timed operations that resend a recently sent query.
    repeats: int = 0

    def requests(self):
        """Every request of the run in send order."""
        yield from self.setup
        for op in self.warmup + self.timed:
            yield from op


def _dumps(payload) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


class _QuerySource:
    """Never-repeating Section 6.1 query specs, drawn in blocks."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.schema = census_schema(D, "Occupation")
        self._rng = rng
        self._seen: set[bytes] = set()
        self._attrs = list(self.schema.qi_attributes)
        self._widths = [predicate_width(a.size, SELECTIVITY, QD)
                        for a in self._attrs]
        self._sens_width = predicate_width(self.schema.sensitive.size,
                                           SELECTIVITY, QD)

    def _subsets(self, size: int, width: int, count: int) -> np.ndarray:
        keys = self._rng.random((count, size))
        picked = np.argpartition(keys, width - 1, axis=1)[:, :width]
        return np.sort(picked, axis=1)

    def draw(self, count: int) -> list[bytes]:
        """``count`` query bodies, none equal to any drawn before."""
        out: list[bytes] = []
        while len(out) < count:
            block = min(4096, count - len(out))
            columns = [self._subsets(a.size, w, block).tolist()
                       for a, w in zip(self._attrs, self._widths)]
            sens = self._subsets(self.schema.sensitive.size,
                                 self._sens_width, block).tolist()
            for i in range(block):
                spec = {"qi": {a.name: col[i]
                               for a, col in zip(self._attrs, columns)},
                        "sensitive": sens[i]}
                body = _dumps(spec)
                if body not in self._seen:
                    self._seen.add(body)
                    out.append(body)
        return out


def _rows(seed: int, n: int) -> list[list[int]]:
    table = CensusDataset(n=n, seed=seed).occ(D)
    codes = np.column_stack([table.column(name)
                             for name in table.schema.names])
    return codes.tolist()


def _setup(source: _QuerySource, base: list[list[int]]
           ) -> tuple[list[Request], list[list[list[int]]]]:
    create = {"name": PUBLICATION, "l": L,
              "schema": schema_to_json(source.schema),
              "seed": PUBLICATION_SEED}
    chunks = [base[i:i + LOAD_CHUNK]
              for i in range(0, len(base), LOAD_CHUNK)]
    setup = [Request("POST", "/publications", _dumps(create))]
    setup += [Request("POST", INGEST_PATH, _dumps({"rows": rows}))
              for rows in chunks]
    setup.append(Request("POST", QUERY_PATH, source.draw(1)[0]))
    return setup, chunks


def _batch(bodies: list[bytes]) -> bytes:
    return b'{"queries":[' + b",".join(bodies) + b"]}"


def build_plan(workload: str, seed: int, scale: Scale) -> Plan:
    """The run's full request sequence, derived from ``seed`` alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one "
                         f"of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    source = _QuerySource(rng)
    n_ops = scale.warmup_ops + scale.ops
    extra = n_ops * CYCLE_ROWS if workload == "ingest-fresh" else 0
    rows = _rows(seed, scale.base_rows + extra)
    setup, chunks = _setup(source, rows[:scale.base_rows])
    plan = Plan(workload, seed, scale, setup, [], [], chunks)
    ops: list[tuple[Request, ...]] = []
    if workload == "point-lookup":
        plan.warmup.append(
            (Request("POST", QUERY_PATH,
                     _batch(source.draw(CACHE_ENTRIES))),))
        recent: list[bytes] = []
        for i in range(n_ops):
            if recent and rng.random() < REPEAT_SHARE:
                body = recent[int(rng.integers(len(recent)))]
                plan.repeats += i >= scale.warmup_ops
            else:
                body = source.draw(1)[0]
                recent = (recent + [body])[-REPEAT_WINDOW:]
            ops.append((Request("POST", QUERY_PATH, body),))
    elif workload == "batch-scan":
        for _ in range(n_ops):
            ops.append((Request("POST", QUERY_PATH,
                                _batch(source.draw(scale.batch_queries))),))
    else:
        fresh = rows[scale.base_rows:]
        for i in range(n_ops):
            cycle = fresh[i * CYCLE_ROWS:(i + 1) * CYCLE_ROWS]
            plan.cycle_chunks.append(cycle)
            ops.append((Request("POST", INGEST_PATH,
                                _dumps({"rows": cycle})),
                        Request("POST", QUERY_PATH, source.draw(1)[0])))
    plan.warmup += ops[:scale.warmup_ops]
    plan.timed = ops[scale.warmup_ops:]
    return plan
