"""The Omega-estimate: linear-time approximate posterior inference (Section III-D).

The Omega-estimate generalises Lakshmanan et al.'s O-estimate.  It treats the
group as a bipartite graph between tuples and sensitive values and estimates
the probability that tuple ``t_j`` takes value ``s_i`` as

.. math::

    \\Omega(s_i | t_j) \\propto n_i \\cdot
        \\frac{P(s_i | t_j)}{\\sum_{j'} P(s_i | t_{j'})}

normalised over the sensitive values for each tuple (Equation 5).  It is exact
under the random-world assumption and, as the paper's Table III example shows,
only approximate in general; the Figure 2 experiment measures its accuracy.

Unlike exact inference its cost is ``O(k * m)`` per group, which is what makes
the (B,t)-privacy check affordable inside Mondrian.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InferenceError
from repro.inference.exact import _validate_group


def omega_posterior(prior: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Omega-estimate posterior beliefs for one group.

    Parameters
    ----------
    prior:
        ``(k, m)`` matrix of prior beliefs ``P(s_i | t_j)``.
    counts:
        Length-``m`` multiset counts ``n_i`` of the sensitive values in the
        group (summing to ``k``).

    Returns
    -------
    numpy.ndarray
        ``(k, m)`` row-stochastic posterior matrix.  Values absent from the
        group receive probability 0.

    Notes
    -----
    Two degenerate situations are handled conservatively:

    * if every tuple's prior gives probability 0 to a value that *is* present
      in the group, the ``0/0`` share is replaced by a uniform ``1/k`` share
      (somebody must hold the value);
    * if a tuple's prior excludes every value present in the group, its
      posterior falls back to the group's empirical distribution ``n_i / k``.
    """
    prior, counts = _validate_group(prior, counts)
    k, m = prior.shape
    column_sums = prior.sum(axis=0)
    present = counts > 0

    shares = np.zeros((k, m), dtype=np.float64)
    positive_columns = present & (column_sums > 0.0)
    if positive_columns.any():
        shares[:, positive_columns] = prior[:, positive_columns] / column_sums[positive_columns]
    zero_columns = present & (column_sums <= 0.0)
    if zero_columns.any():
        shares[:, zero_columns] = 1.0 / k

    unnormalised = shares * counts[None, :].astype(np.float64)
    row_sums = unnormalised.sum(axis=1)
    posterior = np.zeros_like(unnormalised)
    good = row_sums > 0.0
    posterior[good] = unnormalised[good] / row_sums[good, None]
    if not good.all():
        empirical = counts.astype(np.float64) / counts.sum()
        posterior[~good] = empirical
    return posterior


def _group_of(offsets: np.ndarray, n_rows: int) -> np.ndarray:
    """Group of each of ``n_rows`` rows laid out from strictly increasing ``offsets``."""
    group_of = np.zeros(n_rows, dtype=np.int64)
    group_of[offsets[1:]] = 1
    return np.cumsum(group_of)


def _omega_posterior_weighted(
    prior_rows: np.ndarray,
    multiplicities: np.ndarray | None,
    offsets: np.ndarray,
    counts: np.ndarray,
    group_of: np.ndarray,
) -> np.ndarray:
    """Omega posteriors for many groups at once (one flat pass, no Python loop).

    ``prior_rows`` holds one row per distinct (group, combination) pair, each
    standing for ``multiplicities[i]`` members (``None``: one member per
    row), laid out group by group from ``offsets`` (``group_of`` holds each
    row's group); ``counts`` is the ``(groups, m)`` matrix of the groups'
    sensitive counts.  Every member of
    a pair shares its posterior, so this reproduces :func:`omega_posterior`
    applied to the expanded groups, including both degenerate fallbacks -
    only the column sums are multiplicity-weighted.
    """
    sizes = counts.sum(axis=1)

    weighted = prior_rows if multiplicities is None else prior_rows * multiplicities[:, None]
    column_sums = np.add.reduceat(weighted, offsets, axis=0)
    present = counts > 0.0
    positive_columns = present & (column_sums > 0.0)
    zero_columns = present & (column_sums <= 0.0)

    safe_sums = np.where(column_sums > 0.0, column_sums, 1.0)
    shares = np.where(positive_columns[group_of], prior_rows / safe_sums[group_of], 0.0)
    if zero_columns.any():
        uniform = (1.0 / sizes)[group_of]
        shares = np.where(zero_columns[group_of], uniform[:, None], shares)

    unnormalised = shares * counts[group_of]
    row_sums = unnormalised.sum(axis=1)
    good = row_sums > 0.0
    posterior = np.where(
        good[:, None], unnormalised / np.where(good, row_sums, 1.0)[:, None], 0.0
    )
    if not good.all():
        empirical = counts / sizes[:, None]
        bad = ~good
        posterior[bad] = empirical[group_of[bad]]
    return posterior


def grouped_posterior(
    prior_rows: np.ndarray,
    code_rows: np.ndarray,
    offsets: np.ndarray,
    *,
    method: str = "omega",
    multiplicities: np.ndarray | None = None,
) -> np.ndarray:
    """Posterior rows for a batch of groups laid out contiguously.

    Parameters
    ----------
    prior_rows:
        ``(r, m)`` prior beliefs, groups back to back: one row per group
        member, or - with ``multiplicities`` - one row per distinct
        (group, QI combination) pair.
    code_rows:
        Sensitive codes of every group member, groups back to back (length
        ``r``, or ``multiplicities.sum()``).  Only each group's counts matter,
        so members may come in any order within their group.
    offsets:
        Start index of each group within ``prior_rows`` (strictly increasing,
        starting at 0); the last group runs to the end.
    method:
        ``"omega"`` (vectorised, one flat pass) or ``"exact"`` (count-DP per
        group, over the expanded members).
    multiplicities:
        Members each row of ``prior_rows`` stands for (positive integers).
        Members sharing a QI combination inside a group share their
        posterior, so one row per pair is exact.

    This is the shared kernel behind :func:`posterior_for_groups`, the batched
    privacy-model checks and the skyline audit engine: callers that already
    hold member rows (and may evaluate overlapping candidate groups, e.g. a
    Mondrian split and its parent) use it directly.
    """
    from repro.inference.exact import exact_posterior

    prior_rows = np.asarray(prior_rows, dtype=np.float64)
    code_rows = np.asarray(code_rows, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    if prior_rows.ndim != 2:
        raise InferenceError("prior rows must form a 2-dimensional matrix")
    if multiplicities is None:
        n_members = prior_rows.shape[0]
    else:
        multiplicities = np.asarray(multiplicities, dtype=np.int64)
        if multiplicities.shape != (prior_rows.shape[0],) or (
            multiplicities.size and multiplicities.min() < 1
        ):
            raise InferenceError("multiplicities must give a positive count per prior row")
        n_members = int(multiplicities.sum())
    if code_rows.shape != (n_members,):
        raise InferenceError("prior rows and sensitive codes must cover the same tuples")
    if method not in {"omega", "exact"}:
        raise InferenceError(f"unknown inference method {method!r}; use 'omega' or 'exact'")
    m = prior_rows.shape[1]
    if code_rows.size and (code_rows.min() < 0 or code_rows.max() >= m):
        raise InferenceError("sensitive code out of range")
    if offsets.size == 0:
        return np.empty_like(prior_rows)
    if (
        offsets[0] != 0
        or np.any(offsets[1:] <= offsets[:-1])
        or offsets[-1] >= max(prior_rows.shape[0], 1)
    ):
        raise InferenceError("group offsets must be strictly increasing and start at 0")
    n_groups = offsets.shape[0]
    group_of = _group_of(offsets, prior_rows.shape[0])
    member_group = group_of if multiplicities is None else np.repeat(group_of, multiplicities)
    counts = np.bincount(member_group * m + code_rows, minlength=n_groups * m)
    counts = counts.reshape(n_groups, m)
    if method == "omega":
        return _omega_posterior_weighted(
            prior_rows, multiplicities, offsets, counts.astype(np.float64), group_of
        )
    if multiplicities is not None:
        prior_rows = np.repeat(prior_rows, multiplicities, axis=0)
    posterior = np.empty_like(prior_rows)
    member_sizes = np.bincount(member_group, minlength=n_groups)
    starts = np.cumsum(member_sizes) - member_sizes
    for start, stop, group_counts in zip(starts, starts + member_sizes, counts):
        posterior[start:stop] = exact_posterior(prior_rows[start:stop], group_counts)
    if multiplicities is None:
        return posterior
    return posterior[np.cumsum(multiplicities) - multiplicities]


def populated_groups(groups, n_rows: int) -> list[np.ndarray]:
    """The non-empty groups as int arrays, checked to cover each row at most once.

    One min/max and one ``bincount`` over all members catch out-of-range
    indices, tuples shared between groups and tuples repeated within one.
    """
    populated = [np.asarray(group, dtype=np.int64) for group in groups]
    populated = [group for group in populated if group.size]
    if not populated:
        return populated
    members = np.concatenate(populated)
    if members.min() < 0 or members.max() >= n_rows:
        raise InferenceError("group index out of range")
    if np.bincount(members, minlength=n_rows).max() > 1:
        raise InferenceError(
            "groups overlap: a tuple appears more than once across or within groups"
        )
    return populated


def group_runs(populated: list[np.ndarray], chunk_rows: int | None = None):
    """Yield ``(members, offsets)`` for runs of consecutive groups.

    Each run holds at most ``chunk_rows`` members (always at least one
    group); ``None`` puts every group in one run.
    """
    start = 0
    while start < len(populated):
        stop = start + 1
        rows = populated[start].size
        while stop < len(populated) and (
            chunk_rows is None or rows + populated[stop].size <= chunk_rows
        ):
            rows += populated[stop].size
            stop += 1
        chunk = populated[start:stop]
        offsets = np.zeros(len(chunk), dtype=np.int64)
        np.cumsum([group.size for group in chunk[:-1]], out=offsets[1:])
        yield np.concatenate(chunk), offsets
        start = stop


def posterior_for_groups(
    prior_matrix: np.ndarray,
    sensitive_codes: np.ndarray,
    groups: list[np.ndarray],
    *,
    method: str = "omega",
    chunk_rows: int | None = None,
) -> np.ndarray:
    """Posterior beliefs for every tuple of a partitioned table.

    Parameters
    ----------
    prior_matrix:
        ``(n, m)`` prior beliefs for the whole table (one row per tuple).
    sensitive_codes:
        Length-``n`` integer codes of the sensitive values.
    groups:
        List of integer index arrays, one per anonymized group; together they
        must cover each tuple at most once.
    method:
        ``"omega"`` (default) for the linear-time estimate or ``"exact"`` for
        the count-DP exact inference.
    chunk_rows:
        Optional cap on how many member rows are materialised per flat pass.
        Groups are processed in runs of at most this many tuples (always at
        least one group per run), bounding the working set on very large
        tables; the result does not depend on it.

    Returns
    -------
    numpy.ndarray
        ``(n, m)`` posterior matrix.  Tuples not covered by any group keep
        their prior belief (releasing nothing about them).

    Notes
    -----
    All groups are processed in one vectorised pass (bucketed by a group-id
    vector and segment sums) rather than a per-group Python loop; with
    ``method="exact"`` the count DP still runs per group.
    """
    prior_matrix = np.asarray(prior_matrix, dtype=np.float64)
    sensitive_codes = np.asarray(sensitive_codes, dtype=np.int64)
    if prior_matrix.ndim != 2 or prior_matrix.shape[0] != sensitive_codes.shape[0]:
        raise InferenceError("prior matrix and sensitive codes must cover the same tuples")
    if method not in {"omega", "exact"}:
        raise InferenceError(f"unknown inference method {method!r}; use 'omega' or 'exact'")
    if chunk_rows is not None and chunk_rows < 1:
        raise InferenceError("chunk_rows must be a positive integer")
    n = prior_matrix.shape[0]
    posterior = prior_matrix.copy()
    populated = populated_groups(groups, n)
    if not populated:
        return posterior

    for members, offsets in group_runs(populated, chunk_rows):
        posterior[members] = grouped_posterior(
            prior_matrix[members], sensitive_codes[members], offsets, method=method
        )
    return posterior
