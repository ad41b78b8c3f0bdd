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

Group-creation is the literal Figure 3 loop over a max-heap of bucket
sizes (:class:`_BucketHeap`); the incremental anatomizer seals its
groups with the same heap.  Residue-assignment prefers groups which have
not yet absorbed a residue, so the group-size multiset is the
deterministic ``{l+1: n mod l, l: m - (n mod l)}`` whenever the residues
can be spread that widely.

This module provides the in-memory implementation; the I/O-metered variant
used for the paper's cost experiments lives in
:mod:`repro.storage.algorithms`.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping

import numpy as np

from repro.core.diversity import check_eligibility
from repro.core.partition import Partition
from repro.dataset.table import Table
from repro.exceptions import PartitionError
from repro.obs import metrics
from repro.obs.tracing import span


class _BucketHeap:
    """Max-heap over sensitive-value buckets, keyed by current size.

    Ties between equal sizes go to the bucket that comes first in the
    ``sizes`` mapping's iteration order.  Entries are lazily
    invalidated: a bucket's stale sizes remain in the heap and are
    skipped on pop.  With ``lambda`` buckets and ``n/l`` iterations,
    total work is ``O(n log lambda)``.  The non-empty count is
    maintained incrementally (it is read every loop iteration, so
    recounting would make the loop quadratic in ``lambda``).
    """

    __slots__ = ("_heap", "_codes", "_sizes", "_nonempty")

    def __init__(self, sizes: Mapping[int, int]) -> None:
        # Buckets are addressed by their rank in ``sizes``, so the heap
        # order ``(-size, rank)`` breaks ties by that rank.
        self._codes = list(sizes)
        self._sizes = list(sizes.values())
        self._heap = [(-size, rank)
                      for rank, size in enumerate(self._sizes) if size > 0]
        heapq.heapify(self._heap)
        self._nonempty = len(self._heap)

    @property
    def nonempty_count(self) -> int:
        return self._nonempty

    def size(self, code: int) -> int:
        return self._sizes[self._codes.index(code)]

    def pop_largest(self, l: int) -> list[int]:
        """Remove one tuple from each of the ``l`` largest buckets.

        Returns the bucket codes chosen, largest first; their recorded
        sizes are decremented and re-pushed.
        """
        sizes = self._sizes
        chosen: list[int] = []
        while len(chosen) < l:
            neg_size, rank = heapq.heappop(self._heap)
            if -neg_size != sizes[rank]:
                continue  # stale entry
            chosen.append(rank)
        for rank in chosen:
            sizes[rank] -= 1
            if sizes[rank] > 0:
                heapq.heappush(self._heap, (-sizes[rank], rank))
            else:
                self._nonempty -= 1
        return [self._codes[rank] for rank in chosen]


def _build_buckets(table: Table,
                   rng: np.random.Generator) -> dict[int, list[int]]:
    """Hash row indices by sensitive code (line 2 of Figure 3).

    Each bucket's rows are pre-shuffled so that popping from the end
    implements the algorithm's "remove an arbitrary tuple" uniformly at
    random.  Buckets are inserted in ascending code order, which is the
    order :class:`_BucketHeap` breaks size ties by.
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


def anatomize_partition(table: Table, l: int,
                        seed: int | None = 0) -> Partition:
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
    check_eligibility(table, l)
    rng = np.random.default_rng(seed)
    buckets = _build_buckets(table, rng)
    heap = _BucketHeap({code: len(rows) for code, rows in buckets.items()})

    # --- group-creation (lines 3-8) ---------------------------------- #
    groups: list[list[int]] = []
    group_codes: list[set[int]] = []   # sensitive codes per group
    while heap.nonempty_count >= l:
        chosen = heap.pop_largest(l)
        groups.append([buckets[code].pop() for code in chosen])
        group_codes.append(set(chosen))

    # --- residue-assignment (lines 9-12) ------------------------------ #
    # Each residue joins a random group lacking its sensitive value,
    # preferring groups that have not absorbed a residue yet: when the
    # residues can be spread to distinct groups this pins the group
    # sizes to l and l + 1 exactly.
    residues = [(code, rows[0]) for code, rows in buckets.items() if rows]
    if len(residues) >= l:
        raise PartitionError(
            f"internal error: {len(residues)} residue tuples, expected "
            f"< {l} (Property 1 violated)")
    taken: set[int] = set()
    for code, row in residues:
        holders = {j for j, codes in enumerate(group_codes)
                   if code in codes}
        eligible = [j for j in range(len(groups))
                    if j not in holders and j not in taken]
        if not eligible:
            eligible = [j for j in range(len(groups)) if j not in holders]
        if not eligible:
            raise PartitionError(
                "internal error: no group lacks the residue's sensitive "
                "value (Property 2 violated)")
        j = int(rng.choice(eligible))
        groups[j].append(int(row))
        taken.add(j)

    return Partition(table, groups, validate=False)


def anatomize(table: Table, l: int, seed: int | None = 0):
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

    with span("core.anatomize", n=len(table), l=l):
        partition = anatomize_partition(table, l, seed=seed)
        published = AnatomizedTables.from_partition(partition)
    if metrics.enabled():
        metrics.inc("repro_anatomize_total")
        metrics.inc("repro_anatomize_tuples_total", len(table))
    return published
