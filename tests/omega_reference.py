"""Per-row reference for the batched Omega kernel (test-only).

This is the flat per-member pass the library ran before posteriors were
computed once per distinct (group, QI combination) pair.  The equivalence
tests compare the weighted kernel against it.
"""

import numpy as np


def omega_posterior_rows(
    prior_rows: np.ndarray, code_rows: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Omega posteriors of every member, groups laid out back to back from ``offsets``."""
    prior_rows = np.asarray(prior_rows, dtype=np.float64)
    code_rows = np.asarray(code_rows, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    m = prior_rows.shape[1]
    n_groups = offsets.shape[0]
    sizes = np.diff(np.append(offsets, prior_rows.shape[0]))
    group_of = np.repeat(np.arange(n_groups), sizes)

    counts = np.bincount(group_of * m + code_rows, minlength=n_groups * m)
    counts = counts.reshape(n_groups, m).astype(np.float64)
    column_sums = np.add.reduceat(prior_rows, offsets, axis=0)
    present = counts > 0.0
    positive_columns = present & (column_sums > 0.0)
    zero_columns = present & (column_sums <= 0.0)

    safe_sums = np.where(column_sums > 0.0, column_sums, 1.0)
    shares = np.where(positive_columns[group_of], prior_rows / safe_sums[group_of], 0.0)
    if zero_columns.any():
        uniform = (1.0 / sizes.astype(np.float64))[group_of]
        shares = np.where(zero_columns[group_of], uniform[:, None], shares)

    unnormalised = shares * counts[group_of]
    row_sums = unnormalised.sum(axis=1)
    good = row_sums > 0.0
    posterior = np.where(
        good[:, None], unnormalised / np.where(good, row_sums, 1.0)[:, None], 0.0
    )
    if not good.all():
        empirical = counts / sizes.astype(np.float64)[:, None]
        bad = ~good
        posterior[bad] = empirical[group_of[bad]]
    return posterior


def group_risks_rows(priors, sensitive_codes, groups, measure) -> np.ndarray:
    """Per-row reference of ``BTPrivacy.group_risks``: max distance per group."""
    members = np.concatenate([np.asarray(group, dtype=np.int64) for group in groups])
    offsets = np.cumsum([0] + [len(group) for group in groups[:-1]], dtype=np.int64)
    prior_rows = priors.matrix[members]
    posterior = omega_posterior_rows(prior_rows, sensitive_codes[members], offsets)
    return np.maximum.reduceat(measure.rowwise(prior_rows, posterior), offsets)


def tuple_risks_rows(priors, sensitive_codes, groups, measure) -> np.ndarray:
    """Per-row reference of ``tuple_disclosure_risks`` (every row covered)."""
    risks = np.empty(priors.n_rows, dtype=np.float64)
    members = np.concatenate([np.asarray(group, dtype=np.int64) for group in groups])
    offsets = np.cumsum([0] + [len(group) for group in groups[:-1]], dtype=np.int64)
    prior_rows = priors.matrix[members]
    posterior = omega_posterior_rows(prior_rows, sensitive_codes[members], offsets)
    risks[members] = measure.rowwise(prior_rows, posterior)
    return risks
