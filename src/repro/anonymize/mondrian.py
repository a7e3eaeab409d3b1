"""Mondrian multidimensional partitioning (LeFevre et al., paper ref [24]).

The paper computes all four anonymized tables (distinct l-diversity,
probabilistic l-diversity, t-closeness and (B,t)-privacy) with "variations of
the Mondrian multidimensional algorithm ... using the original dimension
selection and median split heuristics, and check[ing] if the specific privacy
requirement is satisfied".  This module implements exactly that scheme:

1. start from the whole table as one partition;
2. pick a split dimension (widest normalised range by default);
3. split at the median of that dimension;
4. keep the split only if **both** halves satisfy the supplied privacy model
   (the model is an arbitrary :class:`~repro.privacy.models.PrivacyModel`,
   so k-anonymity can be conjoined with any attribute-disclosure model);
5. recurse until no allowable split remains.

Categorical attributes are split on their domain code order (the common
Mondrian relaxation when full hierarchical splits are not required); numeric
attributes are split on raw values.

The candidate evaluation is vectorised: per node, the normalised widths and
the median cut points of *every* dimension come from one NumPy pass over the
group's value matrix (instead of one pass per attribute).  Two entry points
consume the shared search:

* :meth:`MondrianAnonymizer.partition` - the run used by ``anonymize()``.
  By default it executes **frontier-synchronously** (all candidate splits of
  a round are checked through one ``is_satisfied_batch`` call - one batched
  posterior pass for (B,t) models) and returns the groups in the recorded
  tree's deterministic left-to-right leaf order.  The legacy depth-first
  traversal survives as ``split_strategy="dfs"``; it cuts the *identical
  partition* (both traversals try the same candidate splits per node), only
  the emission order of the groups differs.
* :meth:`MondrianAnonymizer.partition_forest` - the frontier-synchronous run
  over one or more *regions* that records the split decisions as a tree of
  :class:`MondrianNode` / :class:`MondrianLeaf`.  The recorded trees are what
  :mod:`repro.stream` replays to route appended rows and re-split only dirty
  leaves.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.data.table import MicrodataTable
from repro.exceptions import AnonymizationError
from repro.knowledge.combinations import unique_rows
from repro.privacy.models import PrivacyModel

_STRATEGIES = ("widest", "round_robin", "dfs")


def spilled_value_matrix(source, *, directory: str | None = None) -> np.ndarray:
    """Build the Mondrian value matrix in a temp-file memmap, chunk by chunk.

    The frontier recursion of :meth:`MondrianAnonymizer.partition_forest`
    touches nothing but this ``(n, d)`` matrix and the frontier's row-index
    arrays, so spilling the matrix to disk makes only the frontier's indices
    plus the pages of the actively gathered groups resident.  ``source`` is
    any :class:`~repro.data.source.TableSource`; each chunk is decoded and
    written in place, so at no point is more than one chunk's values in RAM.
    The backing file is unlinked immediately (the mapping keeps the storage
    alive), so the spill disappears with the returned array.

    Values are identical to the resident :func:`_value_matrix` build - the
    decode of a chunk's codes against the shared full-table domains yields
    exactly the observed float64s - so partitions over a spilled matrix match
    the resident recursion exactly (pass it to ``partition(...,
    values=...)``).
    """
    qi_names = list(source.schema.quasi_identifier_names)
    handle, path = tempfile.mkstemp(prefix="mondrian-values-", suffix=".bin", dir=directory)
    os.close(handle)
    values = np.memmap(
        path, dtype=np.float64, mode="w+", shape=(source.n_rows, len(qi_names))
    )
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - e.g. platforms without unlink-while-open
        pass
    cursor = 0
    for chunk in source.iter_chunks():
        stop = cursor + chunk.n_rows
        values[cursor:stop] = MondrianAnonymizer._value_matrix(chunk, qi_names)
        cursor = stop
    if cursor != source.n_rows:
        raise AnonymizationError(
            f"table source yielded {cursor} rows but declared {source.n_rows}"
        )
    return values


@dataclass
class MondrianStatistics:
    """Bookkeeping for one Mondrian run (useful for efficiency experiments)."""

    n_groups: int = 0
    n_split_attempts: int = 0
    n_rejected_splits: int = 0
    max_depth: int = 0


@dataclass(frozen=True)
class MondrianSplit:
    """One accepted cut: ``value <= threshold`` goes left (``<`` when not inclusive).

    Numeric attributes cut on raw values, categorical attributes on domain
    codes - the same convention :meth:`MondrianAnonymizer._median_split` uses,
    so a recorded split can route rows that were not part of the original run.
    """

    attribute: str
    threshold: float
    inclusive: bool = True

    def goes_left(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of ``values`` (raw numeric or codes) routed to the left child."""
        values = np.asarray(values, dtype=np.float64)
        if self.inclusive:
            return values <= self.threshold
        return values < self.threshold


@dataclass
class MondrianLeaf:
    """A leaf of a recorded Mondrian tree: one released group.

    ``searched_size`` records how many rows the group held when the split
    search last declared it unsplittable; the streaming publisher uses it to
    amortise re-searches (a group re-enters the search once it has outgrown
    its last searched size by a configurable factor).
    """

    indices: np.ndarray
    depth: int = 0
    searched_size: int = 0

    @property
    def is_leaf(self) -> bool:
        return True

    def leaves(self) -> Iterator["MondrianLeaf"]:
        yield self


@dataclass
class MondrianNode:
    """An internal node of a recorded Mondrian tree: a split and two subtrees."""

    split: MondrianSplit
    left: "MondrianNode | MondrianLeaf | None" = None
    right: "MondrianNode | MondrianLeaf | None" = None
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return False

    def leaves(self) -> Iterator[MondrianLeaf]:
        """Leaves in deterministic left-to-right order."""
        yield from self.left.leaves()
        yield from self.right.leaves()


@dataclass
class _Frontier:
    """One unresolved region during a frontier-synchronous run."""

    indices: np.ndarray
    depth: int
    parent: MondrianNode | None  # None while this region is a forest root
    side: str  # "left" / "right" / "root"
    root_slot: int
    combos: np.ndarray  # the region's distinct QI combinations (rows of the value matrix)
    counts: np.ndarray  # the region's rows per combination
    dimensions: list[int] = field(default_factory=list)  # candidate columns, in try order
    next_dimension: int = 0
    medians: np.ndarray | None = None
    proposal: tuple[MondrianSplit, np.ndarray, np.ndarray] | None = None
    proposal_left: np.ndarray | None = None  # combinations going left


class MondrianAnonymizer:
    """Top-down multidimensional Mondrian with a pluggable privacy requirement.

    Parameters
    ----------
    model:
        Privacy requirement every released group must satisfy.  The model is
        ``prepare``-d on the table at the start of :meth:`partition`.
    split_strategy:
        ``"widest"`` (paper / original Mondrian heuristic: split the dimension
        with the widest normalised range, frontier-synchronous traversal),
        ``"round_robin"`` (rotating dimension choice, ablation) or ``"dfs"``
        (widest dimension ordering with the legacy depth-first traversal -
        identical partition, legacy group emission order).
    """

    def __init__(self, model: PrivacyModel, *, split_strategy: str = "widest"):
        if split_strategy not in _STRATEGIES:
            raise AnonymizationError(
                f"unknown split strategy {split_strategy!r}; choose from {_STRATEGIES}"
            )
        self.model = model
        self.split_strategy = split_strategy
        self.statistics = MondrianStatistics()

    # -- public API -------------------------------------------------------------------
    def partition(
        self,
        table: MicrodataTable,
        *,
        prepare: bool = True,
        values: np.ndarray | None = None,
    ) -> list[np.ndarray]:
        """Partition ``table`` into groups satisfying the privacy model.

        Returns the list of group index arrays.  Raises
        :class:`~repro.exceptions.AnonymizationError` if even the whole table
        fails the requirement (no release is possible).

        The default strategies run frontier-synchronously (every candidate
        split of a round verified through one batched model call) and return
        the groups in a **deterministic, documented order**: the left-to-right
        leaf order of the recorded split tree, i.e. for every accepted cut the
        ``value <= threshold`` half's groups precede the other half's.
        ``split_strategy="dfs"`` opts back into the legacy iterative
        depth-first traversal; both traversals try the same candidate splits
        per node, so the *partition* is identical - only the group emission
        order differs.

        ``values`` optionally supplies a prebuilt value matrix - e.g. a
        :func:`spilled_value_matrix` memmap - instead of building the
        resident one from ``table``; the partition is identical either way.
        """
        if prepare:
            self.model.prepare(table)
        self.statistics = MondrianStatistics()
        all_indices = np.arange(table.n_rows, dtype=np.int64)
        if not self.model.is_satisfied(all_indices):
            raise AnonymizationError(
                "the whole table does not satisfy the privacy requirement; no release is possible"
            )
        if self.split_strategy != "dfs":
            root = self.partition_forest(table, [all_indices], values=values)[0]
            return [leaf.indices for leaf in root.leaves()]
        return self._partition_dfs(table, all_indices, values=values)

    def _partition_dfs(
        self,
        table: MicrodataTable,
        all_indices: np.ndarray,
        values: np.ndarray | None = None,
    ) -> list[np.ndarray]:
        """The legacy iterative depth-first traversal (``split_strategy="dfs"``)."""
        qi_names = list(table.quasi_identifier_names)
        spans = self._span_vector(table, qi_names)
        values = self._checked_values(table, qi_names, values)
        groups: list[np.ndarray] = []
        # Iterative depth-first traversal to avoid recursion limits on large tables.
        stack: list[tuple[np.ndarray, int]] = [(all_indices, 0)]
        while stack:
            indices, depth = stack.pop()
            self.statistics.max_depth = max(self.statistics.max_depth, depth)
            split = self._find_split(values, indices, qi_names, spans, depth)
            if split is None:
                groups.append(np.sort(indices))
                self.statistics.n_groups += 1
            else:
                _, left, right = split
                stack.append((left, depth + 1))
                stack.append((right, depth + 1))
        return groups

    def partition_tree(
        self,
        table: MicrodataTable,
        *,
        prepare: bool = True,
        values: np.ndarray | None = None,
    ) -> MondrianNode | MondrianLeaf:
        """Like :meth:`partition`, but record the split decisions as a tree.

        The leaves of the returned tree (in :meth:`MondrianNode.leaves` order)
        are exactly the groups a :meth:`partition` call would produce - the
        two entry points share the same per-node candidate search - plus the
        routing information (:class:`MondrianSplit`) the streaming publisher
        needs to place appended rows.
        """
        if prepare:
            self.model.prepare(table)
        self.statistics = MondrianStatistics()
        all_indices = np.arange(table.n_rows, dtype=np.int64)
        if not self.model.is_satisfied(all_indices):
            raise AnonymizationError(
                "the whole table does not satisfy the privacy requirement; no release is possible"
            )
        return self.partition_forest(table, [all_indices], values=values)[0]

    def partition_forest(
        self,
        table: MicrodataTable,
        regions: Sequence[np.ndarray],
        *,
        depths: Sequence[int] | None = None,
        values: np.ndarray | None = None,
    ) -> list[MondrianNode | MondrianLeaf]:
        """Recursively split several regions at once, frontier-synchronously.

        Every region is assumed to *already satisfy* the privacy model (the
        caller checks, e.g. the whole-table check of :meth:`partition_tree` or
        the merge-up walk of the streaming publisher).  Per frontier round all
        candidate splits - across every region - are verified through a single
        ``is_satisfied_batch`` call, so models with a batched risk kernel
        evaluate the whole round in one posterior pass.

        ``depths`` gives the tree depth each region starts at (it offsets the
        ``round_robin`` dimension rotation and the depth statistics); it
        defaults to 0 for every region.  Statistics are *accumulated*, not
        reset, so a streaming publisher can total its incremental work.
        ``values`` optionally supplies a prebuilt (e.g. spilled) value
        matrix.
        """
        qi_names = list(table.quasi_identifier_names)
        spans = self._span_vector(table, qi_names)
        values = self._checked_values(table, qi_names, values)
        if depths is None:
            depths = [0] * len(regions)
        if len(depths) != len(regions):
            raise AnonymizationError("depths must align one-to-one with regions")
        region_rows = [np.asarray(region, dtype=np.int64) for region in regions]
        rows = np.concatenate(region_rows) if region_rows else np.empty(0, dtype=np.int64)
        # The regions' distinct QI combinations (work proportional to the regions).
        combo_values, combo_of_row = unique_rows(values[rows].astype(np.float64, copy=False))

        roots: list[MondrianNode | MondrianLeaf | None] = [None] * len(regions)
        frontier = []
        start = 0
        for slot, (region, depth) in enumerate(zip(region_rows, depths)):
            region_combos, counts = np.unique(
                combo_of_row[start : start + region.size], return_counts=True
            )
            start += region.size
            frontier.append(
                _Frontier(
                    indices=region,
                    depth=int(depth),
                    parent=None,
                    side="root",
                    root_slot=slot,
                    combos=region_combos,
                    counts=counts,
                )
            )
        self._start_entries(frontier, combo_values, spans)

        while frontier:
            self._fill_medians(frontier, combo_values)
            proposals: list[_Frontier] = []
            for entry in frontier:
                self.statistics.max_depth = max(self.statistics.max_depth, entry.depth)
                if self._propose(entry, values, combo_values, qi_names):
                    proposals.append(entry)
                else:
                    self._finalise_leaf(entry, roots)
            if not proposals:
                break
            halves: list[np.ndarray] = []
            for entry in proposals:
                halves.extend(entry.proposal[1:])
            verdicts = self.model.is_satisfied_batch(halves)
            self.statistics.n_split_attempts += len(proposals)
            frontier = []
            started: list[_Frontier] = []
            for position, entry in enumerate(proposals):
                split, left, right = entry.proposal
                goes_left = entry.proposal_left
                entry.proposal = entry.proposal_left = None
                if verdicts[2 * position] and verdicts[2 * position + 1]:
                    node = MondrianNode(split=split, depth=entry.depth)
                    self._attach(entry, node, roots)
                    for side, indices, chosen in (
                        ("left", left, goes_left),
                        ("right", right, ~goes_left),
                    ):
                        child = _Frontier(
                            indices=indices,
                            depth=entry.depth + 1,
                            parent=node,
                            side=side,
                            root_slot=entry.root_slot,
                            combos=entry.combos[chosen],
                            counts=entry.counts[chosen],
                        )
                        started.append(child)
                        frontier.append(child)
                else:
                    self.statistics.n_rejected_splits += 1
                    entry.next_dimension += 1
                    frontier.append(entry)
            self._start_entries(started, combo_values, spans)
        return roots

    # -- helpers -----------------------------------------------------------------------
    @staticmethod
    def _value_matrix(table: MicrodataTable, qi_names: list[str]) -> np.ndarray:
        """``(n, d)`` float matrix: raw values (numeric) / domain codes (categorical)."""
        columns = [
            table.column(name)
            if table.schema[name].is_numeric
            else table.codes(name).astype(np.float64)
            for name in qi_names
        ]
        return np.column_stack(columns)

    def _checked_values(
        self,
        table: MicrodataTable,
        qi_names: list[str],
        values: np.ndarray | None,
    ) -> np.ndarray:
        """The value matrix to recurse over: the caller's (shape-checked) or a fresh build."""
        if values is None:
            return self._value_matrix(table, qi_names)
        if values.shape != (table.n_rows, len(qi_names)):
            raise AnonymizationError(
                f"value matrix shape {values.shape} does not match "
                f"({table.n_rows}, {len(qi_names)})"
            )
        return values

    @staticmethod
    def _span_vector(table: MicrodataTable, qi_names: list[str]) -> np.ndarray:
        spans = np.empty(len(qi_names), dtype=np.float64)
        for position, name in enumerate(qi_names):
            domain = table.domain(name)
            if table.schema[name].is_numeric:
                spans[position] = max(domain.numeric_range, 1e-12)
            else:
                spans[position] = max(float(domain.size - 1), 1e-12)
        return spans

    def _ordered_dimensions(
        self, sub: np.ndarray, spans: np.ndarray, depth: int
    ) -> list[int]:
        """Candidate dimension columns in try order (one NumPy pass for all widths)."""
        return self._dimension_order((sub.max(axis=0) - sub.min(axis=0)) / spans, depth)

    def _dimension_order(self, widths: np.ndarray, depth: int) -> list[int]:
        """Columns of positive normalised width, in this strategy's try order."""
        candidates = [int(j) for j in np.flatnonzero(widths > 0.0)]
        if not candidates:
            return []
        if self.split_strategy != "round_robin":
            # "widest" and its depth-first twin "dfs" share the dimension order.
            return sorted(candidates, key=lambda j: widths[j], reverse=True)
        offset = depth % len(candidates)
        return candidates[offset:] + candidates[:offset]

    def _start_entries(
        self, entries: list[_Frontier], combo_values: np.ndarray, spans: np.ndarray
    ) -> None:
        """Widths and dimension order of a round's new regions, in one pass.

        Widths are max - min over each region's distinct combinations,
        exactly as over its rows.  Medians are filled lazily, per round, for
        the one dimension each region tries next (:meth:`_fill_medians`).
        """
        if not entries:
            return
        sizes = np.fromiter((entry.combos.size for entry in entries), dtype=np.int64)
        offsets = np.cumsum(sizes) - sizes
        pair_values = combo_values[np.concatenate([entry.combos for entry in entries])]
        widths = (
            np.maximum.reduceat(pair_values, offsets, axis=0)
            - np.minimum.reduceat(pair_values, offsets, axis=0)
        ) / spans
        positive = (widths > 0.0).sum(axis=1)
        # Stable sort on negated widths: widest first, ties by column.
        widest = np.argsort(-widths, axis=1, kind="stable")
        for position, entry in enumerate(entries):
            if self.split_strategy == "round_robin":
                entry.dimensions = self._dimension_order(widths[position], entry.depth)
            else:
                entry.dimensions = widest[position, : positive[position]].tolist()
            entry.medians = np.full(widths.shape[1], np.nan) if entry.dimensions else None
            entry.next_dimension = 0

    @staticmethod
    def _fill_medians(entries: list[_Frontier], combo_values: np.ndarray) -> None:
        """Median of each region's next dimension, one vectorised pass per column.

        A region's median is the weighted order statistic of its
        combinations' values at positions ``(N-1)//2`` and ``N//2`` (their
        mean when ``N`` is even) - bit for bit ``np.median`` over its ``N``
        rows.
        """
        wanted: dict[int, list[_Frontier]] = {}
        for entry in entries:
            if entry.next_dimension < len(entry.dimensions):
                column = entry.dimensions[entry.next_dimension]
                if np.isnan(entry.medians[column]):
                    wanted.setdefault(column, []).append(entry)
        for column, group in wanted.items():
            sizes = np.fromiter((entry.combos.size for entry in group), dtype=np.int64)
            rows = np.fromiter((entry.indices.size for entry in group), dtype=np.int64)
            pair_combos = np.concatenate([entry.combos for entry in group])
            counts = np.concatenate([entry.counts for entry in group])
            column_values = combo_values[pair_combos, column]
            order = np.lexsort(
                (column_values, np.repeat(np.arange(len(group), dtype=np.int64), sizes))
            )
            cumulative = np.cumsum(counts[order])
            ordered = column_values[order]
            first = np.cumsum(rows) - rows
            lower = ordered[np.searchsorted(cumulative, first + (rows - 1) // 2, side="right")]
            upper = ordered[np.searchsorted(cumulative, first + rows // 2, side="right")]
            medians = np.where(rows % 2 == 0, (lower + upper) / 2, upper)
            for entry, median in zip(group, medians):
                entry.medians[column] = median

    def _propose(
        self,
        entry: _Frontier,
        values: np.ndarray,
        combo_values: np.ndarray,
        qi_names: list[str],
    ) -> bool:
        """Advance ``entry`` to its next viable candidate split (False = leaf).

        The cut is decided on the region's combinations; its rows follow.
        """
        while entry.next_dimension < len(entry.dimensions):
            column = entry.dimensions[entry.next_dimension]
            if np.isnan(entry.medians[column]):
                self._fill_medians([entry], combo_values)
            threshold = float(entry.medians[column])
            halves = self._cut(combo_values[entry.combos, column], threshold)
            if halves is None:
                entry.next_dimension += 1
                continue
            goes_left, inclusive = halves
            split = MondrianSplit(
                attribute=qi_names[column], threshold=threshold, inclusive=inclusive
            )
            left_mask = split.goes_left(values[entry.indices, column])
            entry.proposal = (split, entry.indices[left_mask], entry.indices[~left_mask])
            entry.proposal_left = goes_left
            return True
        return False

    @staticmethod
    def _cut(column: np.ndarray, median: float) -> tuple[np.ndarray, bool] | None:
        """Left-half mask for a median cut (None when the cut is degenerate)."""
        left_mask = column <= median
        inclusive = True
        if left_mask.all():
            # Median equals the maximum; split strictly below it instead.
            left_mask = column < median
            inclusive = False
        if not left_mask.any() or left_mask.all():
            return None
        return left_mask, inclusive

    def _find_split(
        self,
        values: np.ndarray,
        indices: np.ndarray,
        qi_names: list[str],
        spans: np.ndarray,
        depth: int,
    ) -> tuple[MondrianSplit, np.ndarray, np.ndarray] | None:
        """The best allowable split of one group (vectorised candidate search).

        Widths and medians for *all* candidate dimensions come from one NumPy
        pass over the group's value matrix; candidates are then tried in
        strategy order, each verified with one batched model call.
        """
        sub = values[indices]
        ordered = self._ordered_dimensions(sub, spans, depth)
        if not ordered:
            return None
        medians = np.median(sub, axis=0)
        for column in ordered:
            halves = self._cut(sub[:, column], float(medians[column]))
            if halves is None:
                continue
            left_mask, inclusive = halves
            left, right = indices[left_mask], indices[~left_mask]
            self.statistics.n_split_attempts += 1
            # One batched call so models with a vectorised posterior kernel
            # ((B,t)-privacy, skylines) evaluate both halves in a single pass.
            if all(self.model.is_satisfied_batch((left, right))):
                split = MondrianSplit(
                    attribute=qi_names[column],
                    threshold=float(medians[column]),
                    inclusive=inclusive,
                )
                return split, left, right
            self.statistics.n_rejected_splits += 1
        return None

    def _finalise_leaf(
        self, entry: _Frontier, roots: list[MondrianNode | MondrianLeaf | None]
    ) -> None:
        leaf = MondrianLeaf(
            indices=np.sort(entry.indices),
            depth=entry.depth,
            searched_size=int(entry.indices.size),
        )
        self.statistics.n_groups += 1
        self._attach(entry, leaf, roots)

    @staticmethod
    def _attach(
        entry: _Frontier,
        node: MondrianNode | MondrianLeaf,
        roots: list[MondrianNode | MondrianLeaf | None],
    ) -> None:
        if entry.parent is None:
            roots[entry.root_slot] = node
        elif entry.side == "left":
            entry.parent.left = node
        else:
            entry.parent.right = node
