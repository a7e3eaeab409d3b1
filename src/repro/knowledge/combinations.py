"""The table's quasi-identifier combination index and the (group, combination) layout.

The kernel prior of a tuple (Section II-B) depends only on its QI combination,
and its Omega posterior (Section III-D, Equation 5) only on its prior row and
its group's sensitive counts and prior column sums.  So every tuple sharing a
combination inside a group has the same posterior and the same knowledge gain.
The privacy check, the audit and Mondrian therefore work over the distinct
``(group, combination)`` pairs of a batch of groups, weighted by how many
tuples each pair stands for, and expand to per-tuple values by index only at
the end.

* :class:`CombinationIndex` - one per table: the combination id of every row
  and each combination's multiplicity.  The kernel-prior backend derives it
  from its query index; priors injected without one use
  :meth:`CombinationIndex.trivial` (one combination per row).
* :class:`GroupPairs` - the layout of one batch of groups: members back to
  back, the distinct pairs of each group with their multiplicities, and the
  pair of every member (the final gather).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class CombinationIndex:
    """Rows of one table grouped by quasi-identifier combination.

    Attributes
    ----------
    combo_of_row:
        Length-``n`` combination id of every row, in ``[0, n_combinations)``.
        Rows sharing an id must share their QI combination (and hence their
        kernel prior row).
    n_combinations:
        Number of combinations.
    identity:
        ``True`` for the trivial index of one combination per row (no
        deduplication possible).
    """

    combo_of_row: np.ndarray
    n_combinations: int
    identity: bool = False

    @classmethod
    def from_inverse(cls, inverse: np.ndarray, n_combinations: int) -> "CombinationIndex":
        """The index of a ``return_inverse`` labelling (every id in range occurs)."""
        return cls(
            combo_of_row=np.asarray(inverse, dtype=np.int64).reshape(-1),
            n_combinations=int(n_combinations),
        )

    @classmethod
    def of_rows(cls, matrix: np.ndarray) -> "CombinationIndex":
        """The index of a matrix's distinct rows, in lexicographic order.

        Rows are keyed by the mixed-radix number of their per-column value
        ranks - one 1-D ``np.unique`` per column and one over the keys, far
        cheaper than ``np.unique(axis=0)``, which remains the fallback when
        the key would not fit in 62 bits.
        """
        key = np.zeros(matrix.shape[0], dtype=np.int64)
        span = 1
        for column in range(matrix.shape[1]):
            distinct, rank = np.unique(matrix[:, column], return_inverse=True)
            span *= distinct.size
            if span >= 2**62:
                _, inverse = np.unique(np.asarray(matrix), axis=0, return_inverse=True)
                break
            key = key * distinct.size + rank.reshape(-1)
        else:
            _, inverse = np.unique(key, return_inverse=True)
        inverse = inverse.reshape(-1)
        return cls.from_inverse(inverse, int(inverse.max()) + 1 if inverse.size else 0)

    @classmethod
    def trivial(cls, n_rows: int) -> "CombinationIndex":
        """One combination per row: the index of priors injected without one."""
        return cls(
            combo_of_row=np.arange(n_rows, dtype=np.int64),
            n_combinations=int(n_rows),
            identity=True,
        )

    @property
    def n_rows(self) -> int:
        """Number of rows the index covers."""
        return int(self.combo_of_row.shape[0])

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Rows per combination."""
        return np.bincount(self.combo_of_row, minlength=self.n_combinations)

    def pairs(self, members: np.ndarray, offsets: np.ndarray) -> "GroupPairs":
        """The distinct (group, combination) layout of a batch of groups.

        ``members`` holds the row positions of every group back to back and
        ``offsets`` the start of each (non-empty) group.  Groups may overlap
        (Mondrian's split alternatives); within a group, pairs come out in
        ascending combination order.
        """
        members = np.asarray(members, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        n_members = members.shape[0]
        key = np.zeros(n_members, dtype=np.int64)
        key[offsets[1:]] = self.n_combinations
        np.cumsum(key, out=key)
        key += self.combo_of_row[members]
        order = np.argsort(key)
        ordered = key[order]
        starts = np.empty(n_members, dtype=bool)
        starts[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        pair_index = np.cumsum(starts) - 1
        pair_of_member = np.empty(n_members, dtype=np.int64)
        pair_of_member[order] = pair_index
        first = np.flatnonzero(starts)
        multiplicity = np.empty(first.shape[0], dtype=np.int64)
        np.subtract(first[1:], first[:-1], out=multiplicity[:-1])
        multiplicity[-1] = n_members - first[-1]
        return GroupPairs(
            members=members,
            offsets=offsets,
            combination=ordered[first] % self.n_combinations,
            multiplicity=multiplicity,
            # Sorting keeps each group's members at its own offsets.
            pair_offsets=pair_index[offsets],
            pair_of_member=pair_of_member,
        )


def unique_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(matrix, axis=0, return_inverse=True)`` through :meth:`CombinationIndex.of_rows`.

    Same distinct rows in the same lexicographic order, and the 1-D inverse.
    """
    matrix = np.asarray(matrix)
    index = CombinationIndex.of_rows(matrix)
    rows = np.empty((index.n_combinations, matrix.shape[1]), dtype=matrix.dtype)
    rows[index.combo_of_row] = matrix
    return rows, index.combo_of_row


@dataclass(frozen=True, eq=False)
class GroupPairs:
    """One batch of groups as distinct (group, combination) pairs.

    Attributes
    ----------
    members:
        Row positions of every group, back to back.
    offsets:
        Start of each group within ``members``.
    combination:
        Combination id of every pair; a group's pairs are contiguous.
    multiplicity:
        Members each pair stands for (a group's multiplicities sum to its
        size).
    pair_offsets:
        Start of each group's pairs.
    pair_of_member:
        The pair of every member: per-pair values reach the members with one
        gather.
    """

    members: np.ndarray
    offsets: np.ndarray
    combination: np.ndarray
    multiplicity: np.ndarray
    pair_offsets: np.ndarray
    pair_of_member: np.ndarray

    @property
    def n_pairs(self) -> int:
        """Number of distinct (group, combination) pairs."""
        return int(self.combination.shape[0])
