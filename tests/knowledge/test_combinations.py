"""The QI-combination index and its (group, combination) layout."""

import numpy as np
import pytest

from repro.knowledge.combinations import CombinationIndex


@pytest.mark.parametrize("distinct", [3, 400])
def test_of_rows_matches_axis_zero_unique(distinct):
    """Mixed-radix keys, or the axis-0 fallback when they would overflow."""
    rng = np.random.default_rng(distinct)
    matrix = rng.integers(0, distinct, size=(500, 8)).astype(np.float64) * 0.5
    _, inverse = np.unique(matrix, axis=0, return_inverse=True)
    index = CombinationIndex.of_rows(matrix)
    np.testing.assert_array_equal(index.combo_of_row, inverse.reshape(-1))
    assert index.n_combinations == int(inverse.max()) + 1


def test_multiplicity_counts_rows_per_combination():
    index = CombinationIndex.from_inverse(np.array([2, 0, 2, 1, 0, 2]), 3)
    np.testing.assert_array_equal(index.multiplicity, [2, 1, 3])


def test_pairs_of_overlapping_groups():
    index = CombinationIndex.from_inverse(np.array([2, 0, 2, 1, 0, 2]), 3)
    members = np.array([0, 2, 4, 1, 2, 3, 5])
    pairs = index.pairs(members, np.array([0, 3]))
    np.testing.assert_array_equal(pairs.combination, [0, 2, 0, 1, 2])
    np.testing.assert_array_equal(pairs.multiplicity, [1, 2, 1, 1, 2])
    np.testing.assert_array_equal(pairs.pair_offsets, [0, 2])
    np.testing.assert_array_equal(
        pairs.combination[pairs.pair_of_member], index.combo_of_row[members]
    )


def test_trivial_index_keeps_one_pair_per_member():
    index = CombinationIndex.trivial(4)
    pairs = index.pairs(np.array([3, 1, 2]), np.array([0, 2]))
    assert index.identity and pairs.n_pairs == 3
    np.testing.assert_array_equal(pairs.combination, [1, 3, 2])
    np.testing.assert_array_equal(pairs.multiplicity, [1, 1, 1])


def test_rarely_repeated_combinations_are_still_paired():
    index = CombinationIndex.from_inverse(np.array([0, 1, 2, 3, 1]), 4)
    pairs = index.pairs(np.array([1, 4, 0]), np.array([0]))
    np.testing.assert_array_equal(pairs.combination, [0, 1])
    np.testing.assert_array_equal(pairs.multiplicity, [1, 2])
    np.testing.assert_array_equal(pairs.pair_of_member, [1, 1, 0])
