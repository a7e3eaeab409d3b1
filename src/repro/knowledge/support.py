"""The sparse support of the compact-kernel joint weight matrix.

The factored backend contracts every query against the joint kernel weight
``J[r, r'] = prod_i K_i(d_i(v_i(r), v_i(r')))`` between observed rest
combinations.  With a compact-support kernel and a narrow bandwidth almost
every cell of ``J`` is an exact zero: on Adult-like data at ``B <= 0.3``
every categorical rest attribute's kernel matrix is diagonal, so ``J`` is the
identity pattern of ``c`` non-zeros among ``c^2`` cells.  This module finds
the non-zero cells directly, without ever building a ``c x c`` array:

* :class:`SupportIndex` is a lexicographic prefix trie over a set of rest
  combinations.  Level ``l`` holds the sorted keys ``parent * |D_l| + value``
  of the distinct length-``l+1`` prefixes, where ``parent`` is the position
  of the prefix's own parent in level ``l-1``, so keys stay compact however
  many levels there are.  It depends only on the combinations, never on the
  bandwidth.
* :func:`neighbour_pairs` walks two tries level by level: it expands each
  live (source prefix, target prefix) pair by the source prefix's children
  and each child value's non-zero kernel neighbours (from the attribute's
  tiny ``|D_l|^2`` kernel matrix), keeps the candidates whose target prefix
  exists (one ``searchsorted`` per level) and multiplies the weights as it
  goes.  The intermediate frontier of level ``l`` is bounded by the number of
  candidate prefixes, which :func:`pair_bound` bounds per source combination
  in ``O(c d)``.
* :class:`NeighbourPairs` holds the result in CSR order: the pairs sorted by
  ``(source slot, target slot)``.

Weights are multiplied in the dense chain's order - attribute by attribute
inside a block, then block by block (see ``FactoredPriorBackend``) - so
every pair weight is bitwise equal to the matching cell of the dense
blocked joint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate the ranges ``[starts[i], starts[i] + counts[i])``."""
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


class SupportIndex:
    """Lexicographic prefix trie over rest combinations (see the module docstring).

    Parameters
    ----------
    combos:
        ``(c, L)`` integer codes, one row per combination, columns in the
        expansion order.  Rows must be distinct.
    sizes:
        Domain size of each column (the key multiplier of its level).
    slots:
        The slot id each row stands for.
    """

    def __init__(self, combos: np.ndarray, sizes: Sequence[int], slots: np.ndarray):
        self.sizes = tuple(int(size) for size in sizes)
        self.levels: list[np.ndarray] = []
        # first_child[l][p]..first_child[l][p + 1] are the level-l children
        # of the level-(l-1) prefix p; level 0 hangs off a single root.
        self.first_child: list[np.ndarray] = []
        parent = np.zeros(combos.shape[0], dtype=np.int64)
        n_parents = 1
        for level, size in enumerate(self.sizes):
            keys, parent = np.unique(
                parent * size + combos[:, level].astype(np.int64), return_inverse=True
            )
            parent = parent.reshape(-1).astype(np.int64)
            self.levels.append(keys)
            self.first_child.append(
                np.searchsorted(keys // size, np.arange(n_parents + 1, dtype=np.int64))
            )
            n_parents = keys.size
        self.leaf_slot = np.empty(n_parents, dtype=np.int64)
        self.leaf_slot[parent] = np.asarray(slots, dtype=np.int64)


@dataclass(frozen=True)
class AttributeNeighbours:
    """The non-zero kernel neighbours of every value of one attribute (CSR)."""

    start: np.ndarray  # (|D| + 1,) row pointers
    index: np.ndarray  # neighbour values, ascending per row
    weight: np.ndarray  # K(d(v, u)) > 0

    @classmethod
    def from_weights(cls, weights: np.ndarray) -> "AttributeNeighbours":
        rows, cols = np.nonzero(weights > 0.0)
        start = np.searchsorted(rows, np.arange(weights.shape[0] + 1))
        return cls(start=start, index=cols.astype(np.int64), weight=weights[rows, cols])

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.start)


@dataclass(frozen=True)
class NeighbourPairs:
    """The positive-weight pairs of the joint, sorted by (source, target) slot."""

    source: np.ndarray
    target: np.ndarray
    weight: np.ndarray

    @property
    def size(self) -> int:
        return int(self.source.size)

    @classmethod
    def merge(cls, parts: Sequence["NeighbourPairs"], n_slots: int) -> "NeighbourPairs":
        """Concatenate disjoint pair sets into one canonically sorted set."""
        empty = cls(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.float64))
        parts = [empty, *parts]
        source = np.concatenate([part.source for part in parts])
        target = np.concatenate([part.target for part in parts])
        weight = np.concatenate([part.weight for part in parts])
        order = np.argsort(source * max(1, n_slots) + target, kind="stable")
        return cls(source=source[order], target=target[order], weight=weight[order])

    def offsets(self, n_slots: int) -> np.ndarray:
        """CSR row pointers: slot ``r``'s pairs are ``offsets[r]:offsets[r + 1]``."""
        return np.searchsorted(self.source, np.arange(n_slots + 1, dtype=np.int64))


def pair_bound(combos: np.ndarray, neighbours: Sequence[AttributeNeighbours]) -> np.ndarray:
    """Per-combination upper bound ``prod_l |N_l(v_l(r))|`` on its pair count.

    Float-valued so wide schemas cannot overflow.  It also bounds every level's
    candidate frontier in :func:`neighbour_pairs`: each live source prefix
    has at least one descendant combination, and every kernel keeps a value's
    self-neighbour.
    """
    bound = np.ones(combos.shape[0], dtype=np.float64)
    for level, attribute in enumerate(neighbours):
        bound *= attribute.counts[combos[:, level]]
    return bound


def neighbour_pairs(
    source: SupportIndex,
    target: SupportIndex,
    neighbours: Sequence[AttributeNeighbours],
    block_starts: Sequence[bool],
    block_ends: Sequence[bool],
) -> NeighbourPairs:
    """Every (source slot, target slot) pair with a positive joint weight.

    ``block_starts[l]`` / ``block_ends[l]`` mark the levels that open and
    close a block of the backend's layout: weights fold attribute by
    attribute inside a block and block by block across them, the dense
    chain's order.  Returns the pairs sorted by ``(source, target)``.
    """
    src = np.zeros(1, dtype=np.int64)
    dst = np.zeros(1, dtype=np.int64)
    within: np.ndarray | None = None  # product over the open block
    closed: np.ndarray | None = None  # product over the closed blocks
    for level, attribute in enumerate(neighbours):
        first = source.first_child[level]
        n_children = first[src + 1] - first[src]
        child = expand_ranges(first[src], n_children)
        parent = np.repeat(np.arange(src.size, dtype=np.int64), n_children)
        value = source.levels[level][child] % source.sizes[level]
        n_neighbours = attribute.counts[value]
        edge = expand_ranges(attribute.start[value], n_neighbours)
        origin = np.repeat(np.arange(child.size, dtype=np.int64), n_neighbours)
        keys = target.levels[level]
        candidate = dst[parent[origin]] * target.sizes[level] + attribute.index[edge]
        position = np.searchsorted(keys, candidate)
        found = position < keys.size
        found[found] = keys[position[found]] == candidate[found]
        kept = origin[found]
        frontier = parent[kept]
        src = child[kept]
        dst = position[found]
        weight = attribute.weight[edge[found]]
        within = weight if block_starts[level] else within[frontier] * weight
        if closed is not None:
            closed = closed[frontier]
        if block_ends[level]:
            closed = within if closed is None else closed * within
    positive = closed > 0.0
    source_slot = source.leaf_slot[src[positive]]
    target_slot = target.leaf_slot[dst[positive]]
    n_slots = int(max(source_slot.max(initial=0), target_slot.max(initial=0))) + 1
    return NeighbourPairs.merge(
        [NeighbourPairs(source_slot, target_slot, closed[positive])], n_slots
    )
