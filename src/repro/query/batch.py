"""Batch query-evaluation engine: whole workloads in a few vectorized passes.

The per-query estimators in :mod:`repro.query.estimators` cost O(n) or
O(m) *per query*; a paper-scale experiment evaluates thousands of queries
against the same published tables, so almost all of that work is
redundant.  This module splits evaluation into a **one-time index** over
the published view and a **per-workload encoding**, after which an entire
workload is answered by dense array passes whose arithmetic is
O(workload), not O(workload x n):

* :class:`WorkloadEncoding` stacks the ``Q`` queries' membership rows
  (:mod:`repro.query.predicates`) into one ``(Q, width)`` matrix and
  slices it per attribute into membership tables with the *bit axis
  along queries*: for attribute ``A``, a ``(|A|, ceil(Q/8))`` uint8
  matrix whose bit ``q`` of row ``c`` says whether query ``q`` accepts
  code ``c`` (unconstrained queries accept every code).  One gather per
  attribute then produces the qualification mask of *all* queries at
  once, and the conjunction over attributes is a bitwise AND.

* :class:`MicrodataIndex` (ground truth) gathers those bit rows per
  microdata row, ANDs across columns, and column-sums the unpacked bits:
  exact integer counts for every query in one pass.

* :class:`AnatomyIndex` exploits the structure of anatomized tables.
  The QIT has few distinct QI combinations (cells), so masks are computed
  per *cell*, not per row.  Group membership is a padded ``(m, s_max)``
  cell-index matrix (groups have l or l+1 members), and the per-group
  satisfied counts for all queries are accumulated with a carry-save
  adder over bit-planes — ``s_max`` gathers of byte rows instead of an
  ``n x Q`` intermediate.  The final contraction with the ST histogram is
  a single BLAS matrix product.

* :class:`GeneralizationIndex` evaluates the uniform-assumption estimate
  from per-query prefix sums of the membership tables: per attribute, the
  in-interval count for every (query, group) pair is two fancy-indexed
  differences of the cumulative table.

Every index reproduces the per-query estimators' floating-point results
*bit for bit*: every sum is either an integer count or reduced in the
same order numpy uses per query, so the engine can replace a per-query
loop anywhere without changing an answer.

Estimators gain the batch path by inheriting :class:`BatchEvaluator`,
which owns the index and adds ``estimate_workload``; their per-query
``estimate`` keeps reading the same precomputed index, so building the
batch machinery costs nothing extra at construction time.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Sequence

import numpy as np

from repro.core.tables import AnatomizedTables
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.exceptions import QueryError
from repro.generalization.generalized_table import GeneralizedTable
from repro.obs import metrics
from repro.obs.tracing import span
from repro.query.predicates import CountQuery

#: Queries evaluated per chunk.  A multiple of 8 so chunks stay
#: byte-aligned in the packed masks; 256 keeps every intermediate well
#: inside cache while amortizing the per-pass fixed costs.
CHUNK_QUERIES = 256

class WorkloadEncoding:
    """Bit-packed predicate tables for one workload against one schema.

    Build once per workload; every estimator sharing the schema can then
    evaluate from the same encoding (:func:`repro.query.evaluate`
    does exactly that for the ground truth plus both estimators).
    """

    __slots__ = ("schema", "n_queries", "qi_luts", "qi_bits",
                 "sens_bits", "sens_indicator")

    def __init__(self, schema: Schema,
                 queries: Sequence[CountQuery]) -> None:
        queries = list(queries)
        self.schema = schema
        self.n_queries = len(queries)
        others = {id(q.schema): q.schema for q in queries
                  if q.schema is not schema}
        for other in others.values():
            if other != schema:
                raise QueryError(
                    f"workload query schema {other!r} does not match "
                    f"encoding schema {schema!r}")
        slices = schema.domain_slices
        rows = np.array([q.row for q in queries], dtype=np.uint8).reshape(
            self.n_queries, slices[schema.sensitive.name].stop)
        #: name -> (Q, |A|) uint8 membership table, or None when no query
        #: constrains the attribute (all-zero slices of unconstrained
        #: queries become all-ones, so gathering them is a no-op AND).
        self.qi_luts: dict[str, np.ndarray | None] = {}
        #: name -> (|A|, ceil(Q/8)) packed table, bit axis = queries.
        self.qi_bits: dict[str, np.ndarray | None] = {}
        for attr in schema.qi_attributes:
            lut = rows[:, slices[attr.name]]
            unconstrained = ~lut.any(axis=1)
            if unconstrained.all():
                self.qi_luts[attr.name] = None
                self.qi_bits[attr.name] = None
                continue
            lut = lut.copy()
            lut[unconstrained] = 1
            self.qi_luts[attr.name] = lut
            self.qi_bits[attr.name] = np.packbits(lut.T, axis=1)
        sens_lut = rows[:, slices[schema.sensitive.name]]
        self.sens_bits = np.packbits(sens_lut.T, axis=1)
        #: (Q, |As|) float64 indicator — the sensitive-side factor of the
        #: final contraction in both estimators.
        self.sens_indicator = sens_lut.astype(np.float64)

    def __repr__(self) -> str:
        constrained = sorted(n for n, b in self.qi_bits.items()
                             if b is not None)
        return (f"WorkloadEncoding(queries={self.n_queries}, "
                f"constrained={constrained})")


def _chunks(n_queries: int):
    """Yield (lo, hi, word_lo, word_hi) byte-aligned query chunks."""
    for lo in range(0, n_queries, CHUNK_QUERIES):
        hi = min(lo + CHUNK_QUERIES, n_queries)
        yield lo, hi, lo // 8, (hi + 7) // 8


class MicrodataIndex:
    """Row-level index of the microdata for exact COUNT evaluation."""

    def __init__(self, table: Table) -> None:
        self.schema = table.schema
        self.n = len(table)
        self._columns = {
            attr.name: np.ascontiguousarray(table.column(attr.name))
            for attr in table.schema.qi_attributes
        }
        self._sensitive = np.ascontiguousarray(table.sensitive_column)

    def evaluate(self, encoding: WorkloadEncoding) -> np.ndarray:
        """Exact integer counts (as float64) for every query."""
        out = np.empty(encoding.n_queries, dtype=np.float64)
        for lo, hi, wlo, whi in _chunks(encoding.n_queries):
            mask = encoding.sens_bits[:, wlo:whi][self._sensitive]
            for name, column in self._columns.items():
                bits = encoding.qi_bits[name]
                if bits is not None:
                    mask &= bits[:, wlo:whi][column]
            unpacked = np.unpackbits(mask, axis=1, count=hi - lo)
            out[lo:hi] = unpacked.sum(axis=0, dtype=np.int64)
        return out


class AnatomyIndex:
    """Cell/group index of an anatomized publication.

    ``st_matrix`` and ``group_sizes`` are the same arrays the per-query
    estimator uses; the batch-only parts are the distinct-cell table and
    the padded member matrix described in the module docstring.
    """

    def __init__(self, published: AnatomizedTables) -> None:
        st = published.st
        qit = published.qit
        self.schema = published.schema
        self.m = st.group_count()
        sens_size = self.schema.sensitive.size
        # Dense per-group sensitive histogram; group_id g -> row g-1.
        self.st_matrix = np.zeros((self.m, sens_size), dtype=np.int64)
        self.st_matrix[st.group_ids - 1, st.sensitive_codes] = st.counts
        self.group_sizes = self.st_matrix.sum(axis=1).astype(np.float64)
        if np.any(self.group_sizes == 0):
            raise QueryError("ST contains an empty group")
        self._st_matrix_f = self.st_matrix.astype(np.float64)
        # Distinct QI combinations (cells) and the padded member matrix:
        # row j holds the cell ids of group j+1's tuples, padded with the
        # sentinel cell K whose mask bits are always zero.
        n = qit.n
        group_ids = qit.group_ids
        if n == 0:
            self._n_cells = 0
            self._member_cells = np.zeros((self.m, 0), dtype=np.int64)
            self._cell_columns = {
                attr.name: np.zeros(0, dtype=np.int64)
                for attr in self.schema.qi_attributes}
            return
        order = np.argsort(group_ids, kind="stable")
        cells, inverse = np.unique(qit.qi_codes[order], axis=0,
                                   return_inverse=True)
        self._n_cells = cells.shape[0]
        sizes = np.bincount(group_ids - 1, minlength=self.m)
        starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
        within_group = np.arange(n) - np.repeat(starts, sizes)
        member_cells = np.full((self.m, int(sizes.max())),
                               self._n_cells, dtype=np.int64)
        member_cells[group_ids[order] - 1, within_group] = inverse
        self._member_cells = member_cells
        self._cell_columns = {
            attr.name: np.ascontiguousarray(cells[:, i])
            for i, attr in enumerate(self.schema.qi_attributes)}

    def _satisfied_counts(self, encoding: WorkloadEncoding,
                          wlo: int, whi: int, q_chunk: int) -> np.ndarray:
        """``(m, q_chunk)`` uint8 per-group counts of tuples satisfying
        each query's QI predicates, for one byte-aligned chunk."""
        mask = None
        for name, cell_column in self._cell_columns.items():
            bits = encoding.qi_bits[name]
            if bits is None:
                continue
            gathered = bits[:, wlo:whi][cell_column]
            mask = gathered if mask is None else np.bitwise_and(
                mask, gathered, out=mask)
        width = whi - wlo
        if mask is None:  # no query constrains any QI attribute
            mask = np.full((self._n_cells, width), 0xFF, dtype=np.uint8)
        padded = np.vstack([mask, np.zeros((1, width), dtype=np.uint8)])
        member_cells = self._member_cells
        s_max = member_cells.shape[1]
        n_bits = max(1, s_max.bit_length())
        # Carry-save adder over bit planes: insert each member's mask row
        # into an s_max-deep vertical counter.
        planes = [np.zeros((self.m, width), dtype=np.uint8)
                  for _ in range(n_bits)]
        for k in range(s_max):
            carry = padded[member_cells[:, k]]
            for plane in planes:
                lower = plane & carry
                plane ^= carry
                carry = lower
        counts = np.unpackbits(planes[0], axis=1, count=q_chunk)
        for b in range(1, n_bits):
            contribution = np.unpackbits(planes[b], axis=1, count=q_chunk)
            contribution <<= b
            counts |= contribution  # planes carry disjoint bits: | is +
        return counts

    def _chunk_factors(self, encoding: WorkloadEncoding, lo: int, hi: int,
                       wlo: int, whi: int) -> tuple[np.ndarray, np.ndarray]:
        """``(satisfied, count_s)`` for one query chunk: ``(q_chunk, m)``
        float64 per-group counts of the tuples inside each query's QI
        region and of the tuples carrying one of its sensitive values.
        Both are integer-valued, hence exact (the second is a dgemm of
        integers, exact under f64 BLAS)."""
        satisfied = self._satisfied_counts(
            encoding, wlo, whi, hi - lo).T.astype(np.float64)
        count_s = encoding.sens_indicator[lo:hi] @ self._st_matrix_f.T
        return satisfied, count_s

    def _estimates(self, satisfied: np.ndarray,
                   count_s: np.ndarray) -> np.ndarray:
        """One chunk's estimates, bit for bit the per-query arithmetic:
        the same elementwise divide by ``|QI_j|`` and the same row-order
        reduction.  Overwrites both arguments."""
        satisfied /= self.group_sizes
        count_s *= satisfied
        return count_s.sum(axis=1)

    def evaluate_with_variance(self, encoding: WorkloadEncoding
                               ) -> tuple[np.ndarray, np.ndarray]:
        """Estimates plus the paper's Section-5.4 error variance.

        The anatomy estimate models each group's qualifying sensitive
        values as uniformly assigned among the group's tuples; under
        that model the actual count in group ``j`` is hypergeometric
        (``n_j`` tuples, ``c_j`` carrying a qualifying sensitive value,
        ``a_j`` inside the QI region), so::

            Var_j = a_j * (c_j/n_j) * (1 - c_j/n_j) * (n_j-a_j)/(n_j-1)

        and the query's variance is the sum over groups (associations
        are independent across groups).  Everything needed is already
        published — the variance is computable from QIT + ST alone,
        which is exactly why the canary utility monitor can fall back
        to it when the retained microdata ground truth is unavailable:
        ``sqrt(Var)/est`` is the model's expected relative error.

        Returns ``(estimates, variances)``, both ``(Q,)`` float64 with
        estimates identical to :meth:`evaluate`.
        """
        est = np.empty(encoding.n_queries, dtype=np.float64)
        var = np.empty(encoding.n_queries, dtype=np.float64)
        sizes = self.group_sizes
        denominator = np.maximum(sizes - 1.0, 1.0)
        for lo, hi, wlo, whi in _chunks(encoding.n_queries):
            a, c = self._chunk_factors(encoding, lo, hi, wlo, whi)
            p = c / sizes
            # a == n_j (or 0, or n_j == 1) makes the factor 0, so the
            # clamped denominator never manufactures variance.
            var[lo:hi] = (a * p * (1.0 - p)
                          * ((sizes - a) / denominator)).sum(axis=1)
            est[lo:hi] = self._estimates(a, c)
        return est, var

    def evaluate(self, encoding: WorkloadEncoding) -> np.ndarray:
        """``sum_j count_j(V_s) * p_j`` for every query (Section 1.2)."""
        out = np.empty(encoding.n_queries, dtype=np.float64)
        for lo, hi, wlo, whi in _chunks(encoding.n_queries):
            # The factors are temporaries, so one chunk's arrays are
            # freed before the next chunk's are built.
            out[lo:hi] = self._estimates(
                *self._chunk_factors(encoding, lo, hi, wlo, whi))
        return out


#: Release -> AnatomyIndex, weakly keyed so an index dies with its
#: release; one mutex guards lookups and the hit/miss tally.
_INDEX_CACHE: "weakref.WeakKeyDictionary[AnatomizedTables, AnatomyIndex]" \
    = weakref.WeakKeyDictionary()
_INDEX_CACHE_LOCK = threading.Lock()
_INDEX_CACHE_TALLY = {"hits": 0, "misses": 0}


def anatomy_index_for(published: AnatomizedTables) -> AnatomyIndex:
    """The cached :class:`AnatomyIndex` for ``published``, built on first
    use.

    Releases are immutable once published, so the index is a pure
    function of the release object; caching it means repeat estimator
    constructions against the same release (every frontend request, in
    the service) skip the O(n log n) rebuild.  Hits and misses are
    tallied (see :func:`index_cache_stats`) and mirrored to
    ``repro_index_cache_{hits,misses}_total`` when metrics are on.
    """
    with _INDEX_CACHE_LOCK:
        index = _INDEX_CACHE.get(published)
        hit = index is not None
        _INDEX_CACHE_TALLY["hits" if hit else "misses"] += 1
    if metrics.enabled():
        metrics.inc("repro_index_cache_hits_total" if hit
                    else "repro_index_cache_misses_total")
    if not hit:
        # Build outside the lock: concurrent first requests may build
        # twice, but both indexes are equivalent and the last one wins.
        index = AnatomyIndex(published)
        with _INDEX_CACHE_LOCK:
            index = _INDEX_CACHE.setdefault(published, index)
    return index


def index_cache_stats() -> dict[str, int]:
    """Hit/miss/entry counts of the release->index cache."""
    with _INDEX_CACHE_LOCK:
        return {**_INDEX_CACHE_TALLY, "entries": len(_INDEX_CACHE)}


def clear_index_cache() -> None:
    """Drop cached indexes and reset the tally (tests)."""
    with _INDEX_CACHE_LOCK:
        _INDEX_CACHE.clear()
        _INDEX_CACHE_TALLY["hits"] = 0
        _INDEX_CACHE_TALLY["misses"] = 0


class GeneralizationIndex:
    """Interval index of a generalized publication.

    Evaluation is exact interval arithmetic on prefix sums.
    """

    def __init__(self, published: GeneralizedTable) -> None:
        schema = published.schema
        self.schema = schema
        self.m = published.m
        self.lows: dict[str, np.ndarray] = {}
        self.highs: dict[str, np.ndarray] = {}
        self._lengths: dict[str, np.ndarray] = {}
        for i, attr in enumerate(schema.qi_attributes):
            lows = np.asarray([g.intervals[i][0] for g in published],
                              dtype=np.int64)
            highs = np.asarray([g.intervals[i][1] for g in published],
                               dtype=np.int64)
            self.lows[attr.name] = lows
            self.highs[attr.name] = highs
            self._lengths[attr.name] = highs - lows + 1
        sens_size = schema.sensitive.size
        self.sens_matrix = np.zeros((self.m, sens_size), dtype=np.int64)
        for j, group in enumerate(published):
            for code, count in group.sensitive_histogram().items():
                self.sens_matrix[j, code] = count
        self._sens_matrix_f = self.sens_matrix.astype(np.float64)

    def evaluate(self, encoding: WorkloadEncoding) -> np.ndarray:
        """``sum_j count_j(V_s) * p_j`` with the uniform-assumption
        in-box fractions (Section 1.1)."""
        out = np.empty(encoding.n_queries, dtype=np.float64)
        if encoding.n_queries == 0:
            return out
        if self.m == 0:
            out.fill(0.0)
            return out
        for lo, hi, _, _ in _chunks(encoding.n_queries):
            fractions = np.ones((hi - lo, self.m), dtype=np.float64)
            for attr in self.schema.qi_attributes:
                lut = encoding.qi_luts[attr.name]
                if lut is None:
                    continue
                # per-query prefix sums of the membership table
                chunk = np.zeros((hi - lo, lut.shape[1] + 1), dtype=np.int64)
                np.cumsum(lut[lo:hi], axis=1, dtype=np.int64,
                          out=chunk[:, 1:])
                inside = (chunk[:, self.highs[attr.name] + 1]
                          - chunk[:, self.lows[attr.name]])
                # Unconstrained queries have all-ones rows, so inside ==
                # interval length and the factor is exactly 1.0.
                fractions *= inside / self._lengths[attr.name]
            count_s = (encoding.sens_indicator[lo:hi]
                       @ self._sens_matrix_f.T)
            count_s *= fractions
            out[lo:hi] = count_s.sum(axis=1)
        return out


class BatchEvaluator:
    """Mixin base for estimators that share a precomputed index.

    Subclasses build their index in ``__init__`` and keep answering
    single queries from it; this base contributes the workload path:

    * :meth:`encode` — build a :class:`WorkloadEncoding` for this
      estimator's schema (reusable across estimators of equal schema);
    * :meth:`estimate_workload` — evaluate a whole workload, returning a
      float64 array aligned with the query sequence.
    """

    _index: MicrodataIndex | AnatomyIndex | GeneralizationIndex

    @property
    def index(self):
        """The precomputed index backing both evaluation paths."""
        return self._index

    def encode(self, queries: Sequence[CountQuery]) -> WorkloadEncoding:
        return WorkloadEncoding(self._index.schema, queries)

    def estimate_workload(self,
                          queries: Sequence[CountQuery] | WorkloadEncoding,
                          *, mode: str = "exact") -> np.ndarray:
        """Evaluate every query of a workload in one vectorized pass.

        ``queries`` may be a sequence of :class:`CountQuery` or an
        already-built :class:`WorkloadEncoding`.  The result matches
        ``estimate`` bit for bit.  ``mode="exact"`` is the only
        accepted mode and any other value raises :class:`QueryError`;
        the keyword stays so callers that still pass it (the perfbench
        oracle) keep working.
        """
        if mode != "exact":
            raise QueryError(
                f"unknown batch evaluation mode {mode!r}; the batch "
                f"engine only evaluates exactly")
        if isinstance(queries, WorkloadEncoding):
            encoding = queries
            if encoding.schema != self._index.schema:
                raise QueryError(
                    f"encoding schema {encoding.schema!r} does not match "
                    f"estimator schema {self._index.schema!r}")
        else:
            encoding = self.encode(queries)
        with span("query.batch.evaluate", queries=encoding.n_queries,
                  index=type(self._index).__name__):
            values = self._index.evaluate(encoding)
        if metrics.enabled():
            metrics.inc("repro_query_batch_evaluations_total",
                        index=type(self._index).__name__)
            metrics.inc("repro_query_batch_queries_total",
                        encoding.n_queries)
        return values
