"""The Anatomize algorithm (paper Figure 3).

Given microdata ``T`` and a diversity parameter ``l``, Anatomize computes an
l-diverse partition in two phases and then renders it as a QIT/ST pair:

1. **Group-creation** (lines 3-8): hash tuples into buckets by sensitive
   value; while at least ``l`` buckets are non-empty, form a new QI-group by
   removing one arbitrary tuple from each of the ``l`` *currently largest*
   buckets.  Choosing the largest buckets is what guarantees termination
   with at most ``l - 1`` leftover tuples (Property 1).
2. **Residue-assignment** (lines 9-12): each leftover tuple joins a random
   existing group that does not yet contain its sensitive value; such a
   group always exists (Property 2).

The resulting groups each hold ``l`` or ``l + 1`` tuples with pairwise
distinct sensitive values (Property 3), which makes the partition l-diverse
and puts its reconstruction error within a factor ``1 + r/(n(l-1)) <=
1 + 1/n`` of the RCE lower bound (Theorem 4).

Two implementations of group-creation are provided:

* ``method="heap"`` (default) — the literal Figure 3 loop over a max-heap
  of bucket sizes.  This is the reference algorithm whose output the
  paper's utility claims are stated for.
* ``method="fast"`` — a vectorized dealer.  Sort the buckets by
  descending size, concatenate their (pre-shuffled) rows into one
  sequence, and deal the first ``m * l`` rows round-robin into the ``m``
  groups (row at position ``p`` joins group ``p mod m``).  Rows of one
  bucket occupy at most ``m`` consecutive positions (eligibility caps
  every bucket at ``n/l``, so at ``floor(n/l) = m``), hence no two land
  in the same group and Property 3 holds; the ``n mod l`` trailing rows
  are the residues.  This replaces the per-group Python loop with O(n)
  array passes and is several times faster at paper scale.

Both paths satisfy Properties 1-3 and produce identical group-size
multisets for the same seed (whenever the residues can be spread over
distinct groups), so every privacy guarantee — l-diversity, Corollary 1,
Theorem 4 — is method-independent.  Their group *compositions* differ,
which can matter for downstream utility on correlated data: the heap's
largest-first selection with code-order tie-breaking tends to group
*adjacent* sensitive codes once bucket sizes equalize, and on real data
(where nearby codes are semantically similar, e.g. census occupation
codes) that preserves QI/sensitive correlation measurably better than
the dealer's uniform mixing.  The heap therefore stays the default;
``method="fast"`` is the opt-in choice when partitioning speed dominates
(benchmarks, repeated runs, very large ``n``).

Both paths share one residue-assignment routine that prefers groups which
have not yet absorbed a residue, so the group-size multiset is the
deterministic ``{l+1: n mod l, l: m - (n mod l)}`` whenever the residues
can be spread that widely.

This module provides the in-memory implementation; the I/O-metered variant
used for the paper's cost experiments lives in
:mod:`repro.storage.algorithms`.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.diversity import check_eligibility
from repro.core.partition import Partition
from repro.dataset.table import Table
from repro.exceptions import PartitionError
from repro.obs import metrics
from repro.obs.tracing import span


class _BucketHeap:
    """Max-heap over sensitive-value buckets, keyed by current size.

    Entries are lazily invalidated: a bucket's stale sizes remain in the
    heap and are skipped on pop.  With ``lambda`` buckets and ``n/l``
    iterations, total work is ``O(n log lambda)``.  The non-empty count
    is maintained incrementally (it is read every loop iteration, so
    recounting would make the loop quadratic in ``lambda``).
    """

    __slots__ = ("_heap", "_sizes", "_nonempty")

    def __init__(self, sizes: dict[int, int]) -> None:
        self._sizes = dict(sizes)
        self._heap: list[tuple[int, int]] = [
            (-size, code) for code, size in sizes.items() if size > 0
        ]
        heapq.heapify(self._heap)
        self._nonempty = len(self._heap)

    @property
    def nonempty_count(self) -> int:
        return self._nonempty

    def size(self, code: int) -> int:
        return self._sizes[code]

    def pop_largest(self, l: int) -> list[int]:
        """Remove one tuple from each of the ``l`` largest buckets.

        Returns the bucket codes chosen; their recorded sizes are
        decremented and re-pushed.
        """
        chosen: list[int] = []
        while len(chosen) < l:
            neg_size, code = heapq.heappop(self._heap)
            if -neg_size != self._sizes[code]:
                continue  # stale entry
            chosen.append(code)
        for code in chosen:
            self._sizes[code] -= 1
            if self._sizes[code] > 0:
                heapq.heappush(self._heap, (-self._sizes[code], code))
            else:
                self._nonempty -= 1
        return chosen


def _build_buckets(table: Table,
                   rng: np.random.Generator) -> dict[int, list[int]]:
    """Hash row indices by sensitive code (line 2 of Figure 3).

    Each bucket's rows are pre-shuffled so that popping from the end
    implements the algorithm's "remove an arbitrary tuple" uniformly at
    random.
    """
    sensitive = table.sensitive_column
    order = np.argsort(sensitive, kind="stable")
    sorted_codes = sensitive[order]
    buckets: dict[int, list[int]] = {}
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    start = 0
    for end in list(boundaries) + [len(sorted_codes)]:
        if end == start:
            continue
        code = int(sorted_codes[start])
        rows = order[start:end]
        buckets[code] = list(rows[rng.permutation(len(rows))])
        start = end
    return buckets


def _place_residues(residues: list[tuple[int, int]],
                    containing: dict[int, set[int]], m: int,
                    rng: np.random.Generator) -> dict[int, list[int]]:
    """Residue-assignment (lines 9-12), shared by both group-creation
    paths.

    Each residue tuple joins a random group that does not contain its
    sensitive value, *preferring* groups that have not already absorbed a
    residue; when the residues can be spread to distinct groups this
    pins the group sizes to ``l`` and ``l + 1`` exactly.  ``containing``
    maps each residue code to the set of group positions (0-based) that
    already hold that code, and is updated in place.

    Returns a mapping from group position to the rows it absorbs.
    """
    placement: dict[int, list[int]] = {}
    taken: set[int] = set()
    for code, row in residues:
        holders = containing.setdefault(code, set())
        eligible = [j for j in range(m)
                    if j not in holders and j not in taken]
        if not eligible:
            eligible = [j for j in range(m) if j not in holders]
        if not eligible:
            raise PartitionError(
                "internal error: no group lacks the residue's sensitive "
                "value (Property 2 violated)")
        j = int(rng.choice(eligible))
        placement.setdefault(j, []).append(int(row))
        holders.add(j)
        taken.add(j)
    return placement


def _heap_partition(table: Table, l: int,
                    rng: np.random.Generator) -> Partition:
    """The literal Figure 3 loop (reference implementation)."""
    buckets = _build_buckets(table, rng)
    heap = _BucketHeap({code: len(rows) for code, rows in buckets.items()})

    # --- group-creation (lines 3-8) ---------------------------------- #
    groups: list[list[int]] = []
    group_codes: list[set[int]] = []   # sensitive codes per group
    while heap.nonempty_count >= l:
        chosen = heap.pop_largest(l)
        group = [buckets[code].pop() for code in chosen]
        groups.append(group)
        group_codes.append(set(chosen))

    # --- residue-assignment (lines 9-12) ------------------------------ #
    residues = [(code, int(rows[0]))
                for code, rows in buckets.items() if rows]
    if len(residues) >= l:
        raise PartitionError(
            f"internal error: {len(residues)} residue tuples, expected "
            f"< {l} (Property 1 violated)")
    containing = {
        code: {j for j, codes in enumerate(group_codes) if code in codes}
        for code, _ in residues
    }
    placement = _place_residues(residues, containing, len(groups), rng)
    for j, rows in placement.items():
        groups[j].extend(rows)

    return Partition(table, groups, validate=False)


def _fast_partition(table: Table, l: int,
                    rng: np.random.Generator) -> Partition:
    """Vectorized group-creation: deal the size-sorted bucket
    concatenation round-robin into ``floor(n/l)`` groups."""
    sensitive = table.sensitive_column
    n = len(sensitive)
    if n == 0:
        return Partition(table, [], validate=False)
    m = n // l
    # One global shuffle followed by a stable sort on bucket rank
    # (descending bucket size, ties by code) is the size-sorted bucket
    # concatenation with every bucket's rows in uniform random order —
    # no per-bucket Python lists needed.
    perm = rng.permutation(n)
    codes, counts = np.unique(sensitive, return_counts=True)
    bucket_order = np.lexsort((codes, -counts))
    rank_of_code = np.empty(int(codes.max()) + 1, dtype=np.int64)
    rank_of_code[codes[bucket_order]] = np.arange(len(codes))
    order = np.argsort(rank_of_code[sensitive[perm]], kind="stable")
    sequence = perm[order].astype(np.int64, copy=False)
    dealt = sequence[:m * l]
    residue_rows = sequence[m * l:]
    # Position p of the dealt prefix goes to group p mod m: row j of the
    # transposed (l, m) reshape collects positions j, m+j, ..., (l-1)m+j.
    groups_2d = np.ascontiguousarray(dealt.reshape(l, m).T)
    if residue_rows.size == 0:
        return Partition(table, list(groups_2d), validate=False)
    dealt_codes = sensitive[dealt]
    containing: dict[int, set[int]] = {}
    residues: list[tuple[int, int]] = []
    for row in residue_rows:
        code = int(sensitive[row])
        if code not in containing:
            containing[code] = set(
                (np.flatnonzero(dealt_codes == code) % m).tolist())
        residues.append((code, int(row)))
    placement = _place_residues(residues, containing, m, rng)
    groups: list[np.ndarray] = [
        np.concatenate([groups_2d[j],
                        np.asarray(placement[j], dtype=np.int64)])
        if j in placement else groups_2d[j]
        for j in range(m)
    ]
    return Partition(table, groups, validate=False)


def anatomize_partition(table: Table, l: int,
                        seed: int | None = 0,
                        method: str = "heap") -> Partition:
    """Compute an l-diverse partition of ``table`` with Anatomize
    (lines 1-12 of Figure 3).

    Parameters
    ----------
    table:
        The microdata ``T``.
    l:
        Diversity parameter; the published tables will cap an adversary's
        inference probability at ``1/l``.
    seed:
        Seed for the tuple selections the paper leaves arbitrary (which
        tuple leaves a bucket, which eligible group receives a residue
        tuple).  ``None`` draws fresh OS entropy.
    method:
        ``"heap"`` (default) for the literal Figure 3 loop, ``"fast"``
        for the vectorized dealer.  Both satisfy Properties 1-3 and
        give the same group-size multiset, but they produce different
        (equally private) partitions for the same seed; see the module
        docstring for why the heap remains the default.

    Returns
    -------
    Partition
        An l-diverse partition with ``floor(n / l)`` groups.  Every group
        has at least ``l`` tuples, all with distinct sensitive values
        (Property 3); the ``n mod l`` residue tuples are spread over
        distinct groups whenever possible, giving sizes of exactly ``l``
        or ``l + 1``.

    Raises
    ------
    EligibilityError
        If more than ``n/l`` tuples share one sensitive value, in which
        case no l-diverse partition exists.
    """
    if method not in ("fast", "heap"):
        raise ValueError(
            f"unknown anatomize method {method!r}; expected 'fast' or "
            f"'heap'")
    check_eligibility(table, l)
    rng = np.random.default_rng(seed)
    if method == "heap":
        return _heap_partition(table, l, rng)
    return _fast_partition(table, l, rng)


def anatomize(table: Table, l: int, seed: int | None = 0,
              method: str = "heap"):
    """Run Anatomize end-to-end: partition, then publish QIT and ST
    (the full Figure 3, lines 1-19).

    Returns
    -------
    AnatomizedTables
        The QIT/ST pair (Definition 3) together with the partition it was
        derived from.

    Examples
    --------
    >>> from repro.dataset.hospital import hospital_table
    >>> published = anatomize(hospital_table(), l=2)
    >>> published.partition.is_l_diverse(2)
    True
    >>> published.breach_probability_bound()  # Corollary 1
    0.5
    """
    from repro.core.tables import AnatomizedTables

    with span("core.anatomize", n=len(table), l=l, method=method):
        partition = anatomize_partition(table, l, seed=seed,
                                        method=method)
        published = AnatomizedTables.from_partition(partition)
    if metrics.enabled():
        metrics.inc("repro_anatomize_total", method=method)
        metrics.inc("repro_anatomize_tuples_total", len(table))
    return published
