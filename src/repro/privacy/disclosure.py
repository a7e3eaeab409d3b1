"""Disclosure-risk computation and the probabilistic background-knowledge attack.

These functions implement the quantities reported in the paper's evaluation:

* the per-tuple **knowledge gain** ``D[Ppri(B,q), Ppos(B,q,T*)]`` of an
  adversary ``Adv(B)`` observing the release,
* the **worst-case disclosure risk** (its maximum over all tuples,
  Definition 1 and Figure 3), and
* the number of **vulnerable tuples** whose knowledge gain exceeds a threshold
  ``t`` (Figure 1), i.e. the tuples breached by a probabilistic
  background-knowledge attack.

Everything here works on a *partition* of the table (a list of index arrays),
so it applies equally to generalization and bucketization releases - as the
paper notes, the two are equivalent once the adversary knows who is in the
table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.table import MicrodataTable
from repro.exceptions import InferenceError, PrivacyModelError
from repro.inference.omega import group_runs, grouped_posterior, populated_groups
from repro.knowledge.combinations import CombinationIndex, GroupPairs
from repro.knowledge.prior import PriorBeliefs, kernel_prior
from repro.privacy.measures import DistanceMeasure, sensitive_distance_measure


def partition_layout(
    index: CombinationIndex, groups: list[np.ndarray], *, chunk_rows: int | None = None
) -> list[GroupPairs]:
    """The (group, combination) layout of a release, in runs of groups.

    Groups are validated to cover each tuple at most once; runs hold at most
    ``chunk_rows`` members (see
    :func:`repro.inference.omega.posterior_for_groups`).  Adversaries whose
    priors share ``index`` share one layout.
    """
    if chunk_rows is not None and chunk_rows < 1:
        raise InferenceError("chunk_rows must be a positive integer")
    populated = populated_groups(groups, index.n_rows)
    return [index.pairs(members, offsets) for members, offsets in group_runs(populated, chunk_rows)]


def pair_distances(
    combinations: np.ndarray,
    sensitive_codes: np.ndarray,
    pairs: GroupPairs,
    measure: DistanceMeasure,
    *,
    method: str = "omega",
) -> np.ndarray:
    """Knowledge gain of every (group, combination) pair of a layout.

    ``combinations`` holds the prior row of each combination; every member
    of a pair shares the pair's posterior, hence its gain.
    """
    prior_rows = combinations[pairs.combination]
    # One pair per member needs no weighting (the per-row pass).
    deduplicated = pairs.n_pairs < pairs.members.size
    posterior_rows = grouped_posterior(
        prior_rows,
        sensitive_codes[pairs.members],
        pairs.pair_offsets,
        method=method,
        multiplicities=pairs.multiplicity if deduplicated else None,
    )
    return measure.rowwise(prior_rows, posterior_rows)


def tuple_disclosure_risks(
    priors: PriorBeliefs | np.ndarray,
    sensitive_codes: np.ndarray,
    groups: list[np.ndarray],
    measure: DistanceMeasure,
    *,
    method: str = "omega",
    chunk_rows: int | None = None,
    layout: list[GroupPairs] | None = None,
) -> np.ndarray:
    """Knowledge gain ``D[prior, posterior]`` for every tuple of a partitioned table.

    Posterior and distance are computed once per distinct (group, QI
    combination) pair and reach the tuples by one gather.

    Parameters
    ----------
    priors:
        The adversary's prior beliefs (a :class:`PriorBeliefs` or a raw
        ``(n, m)`` matrix, read as one combination per row).
    sensitive_codes:
        Length-``n`` sensitive value codes of the original table.
    groups:
        The release's groups as arrays of tuple indices.
    measure:
        Distance measure ``D[P, Q]``.
    method:
        Posterior inference method, ``"omega"`` (default) or ``"exact"``.
    chunk_rows:
        Optional row cap per posterior pass (see
        :func:`repro.inference.omega.posterior_for_groups`).
    layout:
        ``partition_layout(priors.index, groups, chunk_rows=...)``, when the
        caller shares one layout across adversaries.
    """
    if isinstance(priors, PriorBeliefs):
        combinations, index = priors.combinations, priors.index
    else:
        combinations = np.asarray(priors, dtype=np.float64)
        if combinations.ndim != 2:
            raise InferenceError("prior matrix and sensitive codes must cover the same tuples")
        index = CombinationIndex.trivial(combinations.shape[0])
    sensitive_codes = np.asarray(sensitive_codes, dtype=np.int64)
    if sensitive_codes.shape != (index.n_rows,):
        raise InferenceError("prior matrix and sensitive codes must cover the same tuples")
    if method not in {"omega", "exact"}:
        raise InferenceError(f"unknown inference method {method!r}; use 'omega' or 'exact'")
    if layout is None:
        layout = partition_layout(index, groups, chunk_rows=chunk_rows)
    risks = np.empty(index.n_rows, dtype=np.float64)
    covered = np.zeros(index.n_rows, dtype=bool)
    for pairs in layout:
        distances = pair_distances(combinations, sensitive_codes, pairs, measure, method=method)
        risks[pairs.members] = distances[pairs.pair_of_member]
        covered[pairs.members] = True
    if not covered.all():
        # Uncovered tuples keep their prior as posterior (nothing released).
        rest = np.flatnonzero(~covered)
        present, inverse = np.unique(index.combo_of_row[rest], return_inverse=True)
        prior_rows = combinations[present]
        risks[rest] = measure.rowwise(prior_rows, prior_rows)[inverse.reshape(-1)]
    return risks


def max_risk(risks: np.ndarray) -> float:
    """The worst-case risk of a risk vector (``0.0`` for an empty one)."""
    risks = np.asarray(risks)
    return float(risks.max()) if risks.size else 0.0


def attack_result(
    priors: PriorBeliefs | np.ndarray,
    sensitive_codes: np.ndarray,
    groups: list[np.ndarray],
    measure: DistanceMeasure,
    *,
    adversary_b: float,
    threshold: float,
    method: str = "omega",
    chunk_rows: int | None = None,
    layout: list[GroupPairs] | None = None,
) -> "AttackResult":
    """One risks computation shared by every audit entry point.

    :func:`worst_case_disclosure_risk`, :meth:`BackgroundKnowledgeAttack.attack`
    and the skyline audit engine all route through here, so their reported
    risks are byte-for-byte the same computation.  ``layout`` is passed
    through to :func:`tuple_disclosure_risks`.
    """
    risks = tuple_disclosure_risks(
        priors, sensitive_codes, groups, measure,
        method=method, chunk_rows=chunk_rows, layout=layout,
    )
    return AttackResult(
        adversary_b=float(adversary_b),
        threshold=float(threshold),
        risks=risks,
        vulnerable_tuples=count_vulnerable_tuples(risks, threshold),
        worst_case_risk=max_risk(risks),
    )


def worst_case_disclosure_risk(
    priors: PriorBeliefs | np.ndarray,
    sensitive_codes: np.ndarray,
    groups: list[np.ndarray],
    measure: DistanceMeasure,
    *,
    method: str = "omega",
) -> float:
    """``max_q D[Ppri(B,q), Ppos(B,q,T*)]`` - the quantity bounded by (B,t)-privacy."""
    result = attack_result(
        priors, sensitive_codes, groups, measure,
        adversary_b=float("nan"), threshold=0.0, method=method,
    )
    return result.worst_case_risk


def count_vulnerable_tuples(risks: np.ndarray, threshold: float) -> int:
    """Number of tuples whose knowledge gain exceeds ``threshold`` (Figure 1)."""
    if threshold < 0.0:
        raise PrivacyModelError("threshold must be non-negative")
    return int((np.asarray(risks) > threshold + 1e-12).sum())


@dataclass
class AttackResult:
    """Outcome of a probabilistic background-knowledge attack on one release."""

    adversary_b: float
    threshold: float
    risks: np.ndarray
    vulnerable_tuples: int
    worst_case_risk: float

    def vulnerability_rate(self) -> float:
        """Fraction of tuples breached by the attack (0.0 for an empty result)."""
        if self.risks.size == 0:
            return 0.0
        return self.vulnerable_tuples / self.risks.size


class BackgroundKnowledgeAttack:
    """A parameterised adversary ``Adv(B')`` attacking anonymized releases (Section V-A).

    The attack estimates the adversary's prior with the kernel method, computes
    posterior beliefs over the released groups, and reports every tuple whose
    knowledge gain exceeds the privacy threshold as *vulnerable*.

    Parameters
    ----------
    table:
        The original microdata table (the attack assumes, as the paper does,
        that the adversary knows who is in the table and their QI values).
    b_prime:
        The adversary's bandwidth ``b'`` (scalar, applied to all QI attributes).
    measure:
        Distance measure; defaults to the paper's smoothed-JS measure.
    kernel:
        Kernel for the prior estimation.
    method:
        Posterior inference method, ``"omega"`` or ``"exact"``.
    priors:
        Optional precomputed prior beliefs for ``Adv(b')`` on ``table``.  When
        given, the (expensive) kernel estimation is skipped - this is how
        :class:`repro.api.session.Session` shares one estimation between
        anonymization and auditing.
    """

    def __init__(
        self,
        table: MicrodataTable,
        b_prime: float,
        *,
        measure: DistanceMeasure | None = None,
        kernel: str = "epanechnikov",
        method: str = "omega",
        priors: PriorBeliefs | None = None,
    ):
        self.table = table
        self.b_prime = float(b_prime)
        self.kernel = kernel
        self.method = method
        self.measure = measure if measure is not None else sensitive_distance_measure(table)
        self.priors = priors if priors is not None else kernel_prior(table, self.b_prime, kernel=kernel)

    def attack(self, groups: list[np.ndarray], threshold: float) -> AttackResult:
        """Attack a release given as a list of group index arrays."""
        return attack_result(
            self.priors,
            self.table.sensitive_codes(),
            groups,
            self.measure,
            adversary_b=self.b_prime,
            threshold=threshold,
            method=self.method,
        )
