"""The weighted Omega kernel: one posterior per distinct (group, combination) pair.

Members sharing a prior row inside a group share their Omega posterior, so
``grouped_posterior`` over one row per pair with multiplicities must equal
the per-row reference pass (``tests/omega_reference.py``) expanded back to
the members - including both degenerate fallbacks and overlapping groups.
"""

import numpy as np
import pytest
from omega_reference import omega_posterior_rows

from repro.exceptions import InferenceError
from repro.inference.omega import grouped_posterior, posterior_for_groups
from repro.knowledge.combinations import CombinationIndex


def _random_case(rng, *, zero_mass: float):
    n_combos = int(rng.integers(1, 12))
    m = int(rng.integers(2, 7))
    combos = rng.random((n_combos, m))
    if zero_mass:
        combos[rng.random((n_combos, m)) < zero_mass] = 0.0
        combos[combos.sum(axis=1) <= 0.0] = 1.0
    combos /= combos.sum(axis=1, keepdims=True)
    n = int(rng.integers(1, 50))
    combo_of_row = rng.integers(0, n_combos, n)
    combo_of_row[:n_combos] = np.arange(n_combos)[: min(n, n_combos)]
    index = CombinationIndex.from_inverse(combo_of_row, max(n_combos, combo_of_row.max() + 1))
    codes = rng.integers(0, m, n)
    # Overlapping candidate groups with repeated combinations.
    groups = [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) for _ in range(4)]
    return combos, index, codes, groups


@pytest.mark.parametrize("zero_mass", [0.0, 0.5])
def test_pair_posteriors_match_the_per_row_reference(zero_mass):
    rng = np.random.default_rng(13)
    for _ in range(60):
        combos, index, codes, groups = _random_case(rng, zero_mass=zero_mass)
        members = np.concatenate(groups)
        offsets = np.cumsum([0] + [g.size for g in groups[:-1]])
        reference = omega_posterior_rows(combos[index.combo_of_row[members]], codes[members], offsets)
        pairs = index.pairs(members, offsets)
        assert pairs.multiplicity.sum() == members.size
        posterior = grouped_posterior(
            combos[pairs.combination], codes[members], pairs.pair_offsets,
            multiplicities=pairs.multiplicity,
        )
        np.testing.assert_allclose(posterior[pairs.pair_of_member], reference, rtol=0, atol=1e-12)


def test_unit_multiplicities_are_bitwise_the_row_pass():
    rng = np.random.default_rng(5)
    prior = rng.random((40, 5))
    prior /= prior.sum(axis=1, keepdims=True)
    codes = rng.integers(0, 5, 40)
    offsets = np.array([0, 7, 19, 33])
    plain = grouped_posterior(prior, codes, offsets)
    weighted = grouped_posterior(prior, codes, offsets, multiplicities=np.ones(40, dtype=np.int64))
    assert plain.tobytes() == weighted.tobytes()
    assert plain.tobytes() == omega_posterior_rows(prior, codes, offsets).tobytes()


def test_exact_method_expands_pairs_to_members():
    rng = np.random.default_rng(8)
    prior = rng.random((3, 4))
    prior /= prior.sum(axis=1, keepdims=True)
    multiplicities = np.array([2, 1, 3])
    codes = rng.integers(0, 4, 6)
    expanded = np.repeat(prior, multiplicities, axis=0)
    rows = grouped_posterior(expanded, codes, np.array([0]), method="exact")
    pairs = grouped_posterior(prior, codes, np.array([0]), method="exact", multiplicities=multiplicities)
    np.testing.assert_allclose(pairs, rows[[0, 2, 3]], atol=1e-12)


def test_multiplicities_are_validated():
    prior = np.full((2, 2), 0.5)
    with pytest.raises(InferenceError):
        grouped_posterior(prior, np.array([0, 1]), np.array([0]), multiplicities=np.array([1, 0]))
    with pytest.raises(InferenceError):
        # Codes must cover every member the pairs stand for.
        grouped_posterior(prior, np.array([0, 1]), np.array([0]), multiplicities=np.array([2, 1]))


def test_duplicate_index_within_one_group_is_rejected():
    prior = np.full((3, 2), 0.5)
    codes = np.array([0, 1, 0])
    with pytest.raises(InferenceError, match="more than once"):
        posterior_for_groups(prior, codes, [np.array([0, 0, 1])])
    with pytest.raises(InferenceError, match="more than once"):
        posterior_for_groups(prior, codes, [np.array([0, 1]), np.array([1, 2])])
