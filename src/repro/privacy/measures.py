"""Distance measures between probability distributions (Section IV-B).

The distance ``D[P, Q]`` between the adversary's prior ``P`` and posterior
``Q`` quantifies how much sensitive information the release discloses.  The
paper lists five desiderata - identity of indiscernibles, non-negativity,
probability scaling, zero-probability definability and semantic awareness -
and shows that the classical measures each miss at least one:

================  ========  =============  ========  ================
measure            scaling   zero-prob ok   semantic   provided here as
================  ========  =============  ========  ================
KL divergence      yes       no             no        :func:`kl_divergence`
JS divergence      yes       yes            no        :func:`js_divergence`
EMD                no        yes            yes       :func:`emd_distance`
paper's measure    yes       yes            yes       :func:`smoothed_js_divergence`
================  ========  =============  ========  ================

The paper's measure kernel-smooths both distributions over the sensitive
domain (using the Section II-C distance matrix and an Epanechnikov kernel)
and then applies JS divergence.  The callable classes at the bottom wrap these
functions so privacy models can treat the measure as a configuration value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import PrivacyModelError
from repro.knowledge.kernels import get_kernel

_LOG2 = np.log(2.0)


def _validate_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise PrivacyModelError(f"{name} must be a 1-D probability vector")
    if np.any(p < -1e-12):
        raise PrivacyModelError(f"{name} has negative entries")
    total = p.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        raise PrivacyModelError(f"{name} must sum to 1 (got {total:.6f})")
    return np.clip(p, 0.0, None)


def _validate_pair(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = _validate_distribution(p, "P")
    q = _validate_distribution(q, "Q")
    if p.shape != q.shape:
        raise PrivacyModelError(f"P and Q have different lengths ({p.size} vs {q.size})")
    return p, q


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence ``sum_i p_i log(p_i / q_i)`` in bits.

    Returns ``inf`` when some ``p_i > 0`` has ``q_i = 0`` - the measure is
    undefined there, which is exactly the zero-probability-definability
    failure the paper points out.
    """
    p, q = _validate_pair(p, q)
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return float("inf")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])) / _LOG2)


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence (in bits, bounded by 1), Equation 6.

    Always finite: the mixture ``(P + Q)/2`` is positive wherever ``P`` or ``Q``
    is (entries that underflow to zero contribute nothing).
    """
    p, q = _validate_pair(p, q)
    return float(_rowwise_js(p[None, :], q[None, :])[0])


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance (EMD under the discrete ground metric)."""
    p, q = _validate_pair(p, q)
    return float(0.5 * np.abs(p - q).sum())


def emd_distance(
    p: np.ndarray,
    q: np.ndarray,
    ground_distance: np.ndarray | None = None,
) -> float:
    """Earth Mover's Distance between two distributions on the same domain.

    Parameters
    ----------
    p, q:
        Probability vectors over the same ``m`` values.
    ground_distance:
        Optional ``m x m`` matrix of ground distances.  When omitted, values
        are treated as equally spaced on a line (``|i - j| / (m - 1)``), which
        is the "ordered domain" EMD used by t-closeness for numeric
        attributes and reduces to a cumulative-sum formula.

    Notes
    -----
    With an explicit ground-distance matrix the transport problem is solved
    with :func:`scipy.optimize.linprog`; the sensitive domains in this library
    are small (tens of values) so this is fast.
    """
    p, q = _validate_pair(p, q)
    m = p.size
    if ground_distance is None:
        if m == 1:
            return 0.0
        cumulative_gap = np.cumsum(p - q)[:-1]
        return float(np.abs(cumulative_gap).sum() / (m - 1))
    ground = np.asarray(ground_distance, dtype=np.float64)
    if ground.shape != (m, m):
        raise PrivacyModelError(
            f"ground distance matrix has shape {ground.shape}, expected {(m, m)}"
        )
    return _emd_linear_program(p, q, ground)


def _emd_linear_program(p: np.ndarray, q: np.ndarray, ground: np.ndarray) -> float:
    from scipy.optimize import linprog

    m = p.size
    # Variables f_ij >= 0, minimise sum f_ij * d_ij subject to row sums = p, column sums = q.
    cost = ground.reshape(-1)
    row_constraints = np.zeros((m, m * m))
    column_constraints = np.zeros((m, m * m))
    for i in range(m):
        row_constraints[i, i * m : (i + 1) * m] = 1.0
        column_constraints[i, i::m] = 1.0
    equality_matrix = np.vstack([row_constraints, column_constraints])
    equality_rhs = np.concatenate([p, q])
    result = linprog(cost, A_eq=equality_matrix, b_eq=equality_rhs, bounds=(0.0, None), method="highs")
    if not result.success:
        raise PrivacyModelError(f"EMD linear program failed: {result.message}")
    return float(result.fun)


def smooth_distribution(
    p: np.ndarray,
    distance_matrix: np.ndarray,
    *,
    bandwidth: float = 0.5,
    kernel: str = "epanechnikov",
) -> np.ndarray:
    """Kernel-smooth a distribution over its domain (Section IV-B.2).

    Each probability is replaced by the Nadaraya-Watson weighted average of
    the probabilities of semantically close values:
    ``p_hat_i = sum_j p_j K(d_ij) / sum_j K(d_ij)``.
    """
    p = _validate_distribution(p, "P")
    distance_matrix = np.asarray(distance_matrix, dtype=np.float64)
    m = p.size
    if distance_matrix.shape != (m, m):
        raise PrivacyModelError(
            f"distance matrix has shape {distance_matrix.shape}, expected {(m, m)}"
        )
    if bandwidth <= 0.0:
        raise PrivacyModelError("smoothing bandwidth must be positive")
    weights = get_kernel(kernel)(distance_matrix, bandwidth)
    denominators = weights.sum(axis=1)
    if np.any(denominators <= 0.0):
        raise PrivacyModelError(
            "smoothing kernel gives zero total weight for some value; increase the bandwidth"
        )
    smoothed = (weights @ p) / denominators
    return smoothed / smoothed.sum()


def smoothed_js_divergence(
    p: np.ndarray,
    q: np.ndarray,
    distance_matrix: np.ndarray,
    *,
    bandwidth: float = 0.5,
    kernel: str = "epanechnikov",
) -> float:
    """The paper's distance measure: kernel smoothing followed by JS divergence.

    Satisfies all five desiderata of Section IV-B.1: it inherits identity,
    non-negativity, probability scaling and zero-probability definability from
    JS divergence, and the smoothing step injects semantic awareness through
    the sensitive-attribute distance matrix.
    """
    p_smooth = smooth_distribution(p, distance_matrix, bandwidth=bandwidth, kernel=kernel)
    q_smooth = smooth_distribution(q, distance_matrix, bandwidth=bandwidth, kernel=kernel)
    return js_divergence(p_smooth, q_smooth)


# ---------------------------------------------------------------------------
# Callable measure objects, so privacy models can carry a measure as a value.
# ---------------------------------------------------------------------------


class DistanceMeasure:
    """Base class for prior/posterior distance measures ``D[P, Q]``."""

    name = "abstract"

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def rowwise(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Distances between corresponding rows of two ``(n, m)`` matrices.

        The default implementation loops over rows; measures with a cheap
        vectorised form (JS, smoothed JS) override it, which is what keeps the
        (B,t)-privacy check affordable inside Mondrian.
        """
        p = np.atleast_2d(np.asarray(p, dtype=np.float64))
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        if p.shape != q.shape:
            raise PrivacyModelError("rowwise distance requires matrices of identical shape")
        return np.asarray([self(p[row], q[row]) for row in range(p.shape[0])])

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _rowwise_js(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorised Jensen-Shannon divergence between corresponding rows (in bits)."""
    p = np.clip(np.atleast_2d(np.asarray(p, dtype=np.float64)), 0.0, None)
    q = np.clip(np.atleast_2d(np.asarray(q, dtype=np.float64)), 0.0, None)
    if p.shape != q.shape:
        raise PrivacyModelError("rowwise distance requires matrices of identical shape")
    average = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        # The (average > 0) guard only matters when subnormal probabilities
        # underflow; mathematically average >= p/2 > 0 whenever p > 0.
        term_p = np.where((p > 0.0) & (average > 0.0), p * np.log(p / average), 0.0)
        term_q = np.where((q > 0.0) & (average > 0.0), q * np.log(q / average), 0.0)
    return (0.5 * term_p.sum(axis=1) + 0.5 * term_q.sum(axis=1)) / _LOG2


class KLDivergence(DistanceMeasure):
    """Kullback-Leibler divergence (fails zero-probability definability)."""

    name = "kl"

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:
        return kl_divergence(p, q)


class JSDivergence(DistanceMeasure):
    """Jensen-Shannon divergence (no semantic awareness)."""

    name = "js"

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:
        return js_divergence(p, q)

    def rowwise(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return _rowwise_js(p, q)


@dataclass
class EMDDistance(DistanceMeasure):
    """Earth Mover's Distance with an optional ground-distance matrix."""

    ground_distance: np.ndarray | None = None
    name = "emd"

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:
        return emd_distance(p, q, self.ground_distance)


class HierarchicalEMD(DistanceMeasure):
    """Closed-form EMD for the taxonomy ground distance of Section II-C.

    The hierarchy distance ``d(x, y) = h(lca(x, y)) / H`` is a tree metric, so
    the optimal transport cost has the classical closed form

    ``EMD = sum over tree edges  w(e) * | net probability mass below e |``

    where the edge between a node and its parent carries weight
    ``(level(parent) - level(node)) / 2`` with ``level = node_height / H``.
    This is the hierarchical EMD used by the t-closeness paper and is O(number
    of tree nodes) per evaluation - the reason t-closeness checks stay cheap
    inside Mondrian.
    """

    name = "hierarchical-emd"

    def __init__(self, taxonomy, leaf_order: list[str]):
        self._taxonomy = taxonomy
        missing = [leaf for leaf in leaf_order if leaf not in taxonomy]
        if missing:
            raise PrivacyModelError(f"values {missing} are not part of the taxonomy")
        height = taxonomy.height
        masks: list[np.ndarray] = []
        weights: list[float] = []
        leaf_index = {leaf: position for position, leaf in enumerate(leaf_order)}
        stack = [taxonomy.root]
        while stack:
            label = stack.pop()
            for child in taxonomy.children(label):
                stack.append(child)
                parent_level = taxonomy.node_height(label) / height
                child_level = taxonomy.node_height(child) / height
                weight = (parent_level - child_level) / 2.0
                mask = np.zeros(len(leaf_order), dtype=np.float64)
                for leaf in taxonomy.leaves_under(child):
                    if leaf in leaf_index:
                        mask[leaf_index[leaf]] = 1.0
                masks.append(mask)
                weights.append(weight)
        self._masks = np.asarray(masks)
        self._weights = np.asarray(weights)

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:
        p, q = _validate_pair(p, q)
        if p.size != self._masks.shape[1]:
            raise PrivacyModelError(
                f"distribution has {p.size} values but the hierarchy covers {self._masks.shape[1]}"
            )
        flows = self._masks @ (p - q)
        return float((self._weights * np.abs(flows)).sum())

    def rowwise(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(p, dtype=np.float64))
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        if p.shape != q.shape:
            raise PrivacyModelError("rowwise distance requires matrices of identical shape")
        flows = (p - q) @ self._masks.T
        return np.abs(flows) @ self._weights


@dataclass
class SmoothedJSDivergence(DistanceMeasure):
    """The paper's measure: kernel smoothing over the sensitive domain, then JS."""

    distance_matrix: np.ndarray
    bandwidth: float = 0.5
    kernel: str = "epanechnikov"
    name = "smoothed-js"
    # The (distance matrix, bandwidth, kernel) the cached weights were built for.
    _weights: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _smoothing_weights(self) -> np.ndarray:
        cached = self._weights
        if (
            cached is None
            or cached[0] is not self.distance_matrix
            or cached[1:3] != (self.bandwidth, self.kernel)
        ):
            weights = get_kernel(self.kernel)(
                np.asarray(self.distance_matrix, dtype=np.float64), self.bandwidth
            )
            denominators = weights.sum(axis=1, keepdims=True)
            if np.any(denominators <= 0.0):
                raise PrivacyModelError(
                    "smoothing kernel gives zero total weight for some value; increase the bandwidth"
                )
            self._weights = (
                self.distance_matrix, self.bandwidth, self.kernel, weights / denominators
            )
        return self._weights[3]

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:
        return smoothed_js_divergence(
            p, q, self.distance_matrix, bandwidth=self.bandwidth, kernel=self.kernel
        )

    def rowwise(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        weights = self._smoothing_weights()
        p_smooth = np.atleast_2d(np.asarray(p, dtype=np.float64)) @ weights.T
        q_smooth = np.atleast_2d(np.asarray(q, dtype=np.float64)) @ weights.T
        p_smooth /= p_smooth.sum(axis=1, keepdims=True)
        q_smooth /= q_smooth.sum(axis=1, keepdims=True)
        return _rowwise_js(p_smooth, q_smooth)


def sensitive_distance_measure(table, *, bandwidth: float = 0.5, kernel: str = "epanechnikov"):
    """The paper's default measure for ``table``'s sensitive attribute.

    Builds the Section II-C distance matrix for the sensitive domain (taxonomy
    distance when a hierarchy is attached) and wraps it in
    :class:`SmoothedJSDivergence` with the bandwidth the paper recommends
    (at least 0.5 for the height-2 Occupation hierarchy, as the paper prescribes).

    Note: with a height-2 hierarchy the sibling distance is exactly 0.5 and the
    Epanechnikov kernel has *open* support, so at the default bandwidth the
    smoothing is inactive and the measure coincides with plain JS divergence -
    pass ``bandwidth > 0.5`` to let semantically close sensitive values share
    probability mass (see the distance-measure ablation benchmark).
    """
    from repro.data.distance import attribute_distance_matrix

    matrix = attribute_distance_matrix(table.sensitive_domain())
    return SmoothedJSDivergence(distance_matrix=matrix, bandwidth=bandwidth, kernel=kernel)
