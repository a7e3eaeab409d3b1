"""Estimating the adversary's prior belief function (Sections II-B and II-C).

The adversary's prior belief is a function ``Ppri : D[QI] -> Sigma`` mapping
every quasi-identifier combination to a probability distribution over the
sensitive domain.  The paper estimates it from the data itself with a
Nadaraya-Watson kernel regression:

.. math::

    \\hat P_{pri}(q) = \\frac{\\sum_{t_j \\in T} P(t_j) \\prod_i K_i(d_i(q_i, t_j[A_i]))}
                            {\\sum_{t_j \\in T} \\prod_i K_i(d_i(q_i, t_j[A_i]))}

where ``P(t_j)`` is the one-hot distribution of tuple ``t_j``'s sensitive
value and ``d_i`` is the normalised attribute distance of Section II-C.

All estimation is served by one shared engine - the factored count-tensor
contraction backend of :mod:`repro.knowledge.backend` - which deduplicates
quasi-identifier combinations, factors the kernel product into a solo
attribute times (hierarchically blocked) rest combinations, and supports
additive append-only updates.  The classes here are thin views over it:

* :class:`KernelPriorEstimator` - one bandwidth (the ``Adv(B)`` adversary of
  a single (B,t) requirement or attack);
* :class:`BatchedKernelPriorEstimator` - many bandwidths in one pass (the
  skyline's estimator), with optional incremental ``append_rows`` /
  ``remove_rows`` / ``update_rows`` deltas for full-lifecycle streaming
  publishers.

Both produce priors numerically identical (to floating-point round-off) to
the flat ``O(n^2 d)`` reference sweep, which survives only as a small-size
equivalence reference behind ``max_cells=0``.

Three baseline adversaries from Section II-D are also provided:

* :func:`uniform_prior` - the "ignorant" adversary assumed by l-diversity
  (NOT consistent with the data; included for comparison only),
* :func:`overall_prior` - the t-closeness adversary whose prior is the overall
  sensitive distribution for every tuple,
* :func:`mle_prior` - the maximum-likelihood estimator that conditions on the
  exact QI combination (the limit of small bandwidths).
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from repro.data.table import MicrodataTable
from repro.exceptions import KnowledgeError
from repro.knowledge.backend import (
    DEFAULT_BATCH_SIZE,
    EstimatorConfig,
    FactoredPriorBackend,
    resolve_config,
)
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.combinations import CombinationIndex, unique_rows

_DEFAULT_BATCH_SIZE = DEFAULT_BATCH_SIZE


class PriorBeliefs:
    """Prior beliefs of one adversary over one table, stored per QI combination.

    The kernel prior depends only on a tuple's QI combination, so beliefs are
    held as one row per combination plus the table's
    :class:`~repro.knowledge.combinations.CombinationIndex`.  Beliefs built
    from a per-row ``matrix`` (injected priors, the baseline adversaries)
    carry the trivial index of one combination per row.

    Parameters
    ----------
    matrix:
        ``(n_rows, m)`` row-stochastic matrix; row ``j`` is the adversary's
        prior distribution over the sensitive domain for tuple ``t_j``.
        Mutually exclusive with ``combinations``.
    sensitive_values:
        The sensitive domain ``D[S]`` in code order (length ``m``).
    description:
        Human-readable description of the adversary (e.g. ``"kernel b=0.3"``).
    combinations:
        ``(n_combinations, m)`` row-stochastic matrix, one row per entry of
        ``index``.
    index:
        The combination index ``combinations`` is laid out by (required with
        ``combinations``).
    """

    def __init__(
        self,
        matrix: np.ndarray | None = None,
        sensitive_values: tuple = (),
        description: str = "",
        *,
        combinations: np.ndarray | None = None,
        index: CombinationIndex | None = None,
    ):
        if (matrix is None) == (combinations is None):
            raise KnowledgeError("give prior beliefs either per row or per combination")
        table = np.asarray(matrix if combinations is None else combinations, dtype=np.float64)
        if table.ndim != 2:
            raise KnowledgeError("prior belief matrix must be 2-dimensional")
        if np.any(table < -1e-12):
            raise KnowledgeError("prior belief matrix must be non-negative")
        if not np.allclose(table.sum(axis=1), 1.0, atol=1e-8):
            raise KnowledgeError("every prior belief row must sum to 1")
        if combinations is None:
            index = CombinationIndex.trivial(table.shape[0])
        elif index is None or index.n_combinations != table.shape[0]:
            raise KnowledgeError("per-combination priors need an index with one entry per row")
        self.combinations = table
        self.index = index
        self.sensitive_values = tuple(sensitive_values)
        self.description = description

    @cached_property
    def matrix(self) -> np.ndarray:
        """``(n_rows, m)`` per-tuple beliefs (expanded from the combinations once)."""
        if self.index.identity:
            return self.combinations
        return self.combinations[self.index.combo_of_row]

    @property
    def n_rows(self) -> int:
        """Number of tuples covered by these beliefs."""
        return self.index.n_rows

    @property
    def n_sensitive_values(self) -> int:
        """Size ``m`` of the sensitive domain."""
        return int(self.combinations.shape[1])

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Prior distributions (rows) of the tuples at ``indices`` (positions or a mask)."""
        return self.combinations[self.index.combo_of_row[np.asarray(indices)]]

    def for_tuple(self, index: int) -> np.ndarray:
        """Prior distribution of tuple ``index``."""
        return self.combinations[self.index.combo_of_row[index]]

    def for_group(self, indices: np.ndarray) -> np.ndarray:
        """Prior distributions (rows) for a group of tuple indices."""
        return self.rows(indices)

    def __repr__(self) -> str:
        return (
            f"PriorBeliefs({self.description!r}, rows={self.n_rows}, "
            f"combinations={self.index.n_combinations})"
        )


class KernelPriorEstimator:
    """Nadaraya-Watson product-kernel estimator for one bandwidth.

    A thin single-bandwidth view over the shared
    :class:`~repro.knowledge.backend.FactoredPriorBackend`: fitting builds
    the factored count-tensor state once, estimation contracts it for this
    estimator's bandwidth.  Results are numerically interchangeable with the
    flat reference sweep (``max_cells=0``).

    Parameters
    ----------
    bandwidth:
        Per-attribute :class:`~repro.knowledge.bandwidth.Bandwidth`.  It must
        cover every quasi-identifier of the table passed to :meth:`fit`.
    config:
        The consolidated :class:`~repro.knowledge.backend.EstimatorConfig`
        (kernel, budgets, ``jobs``, ``chunk_rows``).  The per-knob keywords
        below are deprecation shims layered on top of it via
        :func:`~repro.knowledge.backend.resolve_config`.
    kernel:
        Name of the kernel function (default ``"epanechnikov"``, as in the
        paper).
    batch_size:
        Query rows per vectorised batch of the flat reference sweep.
    distance_matrices:
        Optional mapping from attribute name to its precomputed ``|D_i| x
        |D_i|`` normalised distance matrix, shared between estimators.
    max_cells:
        Cell budget of the backend's blocked contraction (``0`` selects the
        flat reference sweep).
    jobs:
        Worker threads for the backend's parallel contraction (``None``
        resolves to ``REPRO_JOBS`` / ``os.cpu_count()``; ``1`` is the serial
        reference path; results are bitwise identical either way).
    """

    def __init__(
        self,
        bandwidth: Bandwidth,
        *,
        config: EstimatorConfig | None = None,
        kernel: str | None = None,
        batch_size: int | None = None,
        distance_matrices: dict[str, np.ndarray] | None = None,
        max_cells: int | None = None,
        jobs: int | None = None,
    ):
        self.bandwidth = bandwidth
        self.config = resolve_config(
            config, kernel=kernel, batch_size=batch_size, max_cells=max_cells, jobs=jobs
        )
        self.kernel_name = self.config.kernel
        self.batch_size = self.config.batch_size
        self.max_cells = self.config.max_cells
        self._backend = FactoredPriorBackend(
            self.config, distance_matrices=distance_matrices
        )

    @property
    def backend(self) -> FactoredPriorBackend:
        """The shared contraction backend this view delegates to."""
        return self._backend

    # -- fitting --------------------------------------------------------------------
    def fit(self, table) -> "KernelPriorEstimator":
        """Build the backend's factored state for ``table`` (table or source).

        A :class:`~repro.data.source.TableSource` fits chunk by chunk,
        bitwise identical to the resident fit (see
        :meth:`~repro.knowledge.backend.FactoredPriorBackend.fit`).
        """
        names = table.schema.quasi_identifier_names
        missing = [name for name in names if name not in self.bandwidth]
        if missing:
            raise KnowledgeError(
                f"bandwidth does not cover quasi-identifier attributes {missing}"
            )
        self._backend.fit(table)
        return self

    # -- estimation -----------------------------------------------------------------
    def prior_for_codes(self, query_codes: np.ndarray) -> np.ndarray:
        """Prior distributions for query rows given as QI *code* combinations.

        Parameters
        ----------
        query_codes:
            ``(q, d)`` integer matrix of attribute codes (one row per query
            point), in the same code space as the fitted table.

        Returns
        -------
        numpy.ndarray
            ``(q, m)`` row-stochastic matrix of prior beliefs.  Queries whose
            kernel weights are all zero (possible with compact-support kernels
            far away from any data) fall back to the overall sensitive
            distribution, which is the least-informative consistent belief.
        """
        return self._backend.matrix_for_codes(query_codes, self.bandwidth)

    def prior_for_table(self, table: MicrodataTable | None = None) -> PriorBeliefs:
        """Prior beliefs for every tuple of ``table`` (default: the fitted table)."""
        fitted = self._backend.table
        if fitted is None:
            raise KnowledgeError("estimator is not fitted; call fit(table) first")
        description = f"kernel={self.kernel_name}, {self.bandwidth.describe()}"
        sensitive_values = tuple(fitted.sensitive_domain().values.tolist())
        if table is None or table is fitted:
            return PriorBeliefs(
                combinations=self._backend.combination_matrices([self.bandwidth])[0],
                index=self._backend.combination_index,
                sensitive_values=sensitive_values,
                description=description,
            )
        # Re-encode the target's QI values against the fitted table's domains.
        codes = np.column_stack(
            [
                fitted.domain(name).encode(table.column(name).tolist())
                for name in fitted.quasi_identifier_names
            ]
        )
        matrix = self._backend.matrix_for_codes(codes, self.bandwidth)
        return PriorBeliefs(
            matrix=matrix, sensitive_values=sensitive_values, description=description
        )


class BatchedKernelPriorEstimator:
    """Kernel priors for *many* bandwidths in one pass (the skyline's estimator).

    Auditing a release against a skyline ``{(B_1, t_1), ..., (B_p, t_p)}``
    needs one prior belief function per adversary.  This view shares one
    :class:`~repro.knowledge.backend.FactoredPriorBackend` fit across every
    bandwidth: distance matrices, QI deduplication and the count tensor are
    computed once, each bandwidth only pays its tiny kernel matrices and the
    chained contraction.  Results match the flat reference to floating-point
    round-off.

    Streams can mutate a fitted estimator with :meth:`append_rows`,
    :meth:`remove_rows` and :meth:`update_rows`: the count tensor is additive
    in rows, so the priors of the changed table are produced by folding the
    batch's (possibly negative, exactly-integer) count deltas into the
    factored state instead of re-sweeping all ``n`` rows.  With
    ``incremental=True`` the per-bandwidth contraction artefacts (block
    joints, the solo-contracted tensor and the per-query numerators) are
    cached between calls and only the queries whose compact-support kernel
    neighbourhood contains a changed row are recontracted.

    Parameters
    ----------
    config:
        The consolidated :class:`~repro.knowledge.backend.EstimatorConfig`;
        the per-knob keywords below are deprecation shims layered on top of
        it via :func:`~repro.knowledge.backend.resolve_config`.
    kernel:
        Kernel function name (default ``"epanechnikov"``, as in the paper).
    batch_size:
        Query rows per vectorised batch of the flat reference sweep.
    distance_matrices:
        Optional precomputed per-attribute distance matrices to share.
    max_cells:
        Cell budget for the backend's blocked contraction (``0`` selects the
        flat reference sweep); see
        :class:`~repro.knowledge.backend.FactoredPriorBackend`.
    incremental:
        Cache the per-bandwidth contraction state so :meth:`append_rows`
        updates it in place (costs memory proportional to the contracted
        tensor per distinct bandwidth; off by default).
    jobs:
        Worker threads for the backend's parallel contraction (``None``
        resolves to ``REPRO_JOBS`` / ``os.cpu_count()``; ``1`` is the serial
        reference path; results are bitwise identical either way).
    """

    def __init__(
        self,
        *,
        config: EstimatorConfig | None = None,
        kernel: str | None = None,
        batch_size: int | None = None,
        distance_matrices: dict[str, np.ndarray] | None = None,
        max_cells: int | None = None,
        incremental: bool = False,
        jobs: int | None = None,
    ):
        self.config = resolve_config(
            config, kernel=kernel, batch_size=batch_size, max_cells=max_cells, jobs=jobs
        )
        self.kernel_name = self.config.kernel
        self.batch_size = self.config.batch_size
        self.max_cells = self.config.max_cells
        self.incremental = bool(incremental)
        self._backend = FactoredPriorBackend(
            self.config,
            distance_matrices=distance_matrices,
            incremental=incremental,
        )

    @classmethod
    def from_backend(cls, backend: FactoredPriorBackend) -> "BatchedKernelPriorEstimator":
        """A view over an existing (usually already fitted) backend.

        This is how one fitted backend serves several consumers - a
        session's publish prior and its skyline audit share a single fit.
        """
        view = cls(config=backend.config, incremental=backend.incremental)
        view._backend = backend
        return view

    @property
    def backend(self) -> FactoredPriorBackend:
        """The shared contraction backend this view delegates to."""
        return self._backend

    @property
    def mode(self) -> str | None:
        """``"factored"`` or ``"flat"`` (``None`` before :meth:`fit`)."""
        return self._backend.mode

    @property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        """Attribute names of each rest block of the blocked contraction."""
        return self._backend.blocks

    # -- fitting --------------------------------------------------------------------
    def fit(self, table) -> "BatchedKernelPriorEstimator":
        """Precompute every bandwidth-independent artefact for ``table``.

        ``table`` is a resident :class:`~repro.data.table.MicrodataTable` or
        a chunked :class:`~repro.data.source.TableSource` (bitwise-identical
        streamed fit).
        """
        self._backend.fit(table)
        return self

    def append_rows(self, table: MicrodataTable) -> str:
        """Grow the fitted state to ``table`` (the previous table plus appended rows).

        Returns ``"incremental"`` when the factored state was updated in
        place, or ``"refit"`` when the backend fell back to a full
        :meth:`fit` (flat reference mode, or changed domains).
        """
        return self._backend.append_rows(table)

    def remove_rows(self, table: MicrodataTable, removed: np.ndarray) -> str:
        """Shrink the fitted state to ``table`` (the fitted table minus ``removed``).

        ``removed`` holds row positions of the fitted table.  Counts are
        subtracted from the factored state exactly; returns ``"incremental"``
        or ``"refit"`` (flat mode, changed domains, or an emptied rest slot -
        see :meth:`~repro.knowledge.backend.FactoredPriorBackend.remove_rows`).
        """
        return self._backend.remove_rows(table, removed)

    def update_rows(self, table: MicrodataTable, positions: np.ndarray) -> str:
        """Fold in-place row corrections at ``positions`` into the fitted state.

        ``table`` has the fitted table's rows with the ones at ``positions``
        replaced (within the fitted domains).  Paired negative/positive count
        deltas are exact; returns ``"incremental"`` or ``"refit"`` (see
        :meth:`~repro.knowledge.backend.FactoredPriorBackend.update_rows`).
        """
        return self._backend.update_rows(table, positions)

    # -- estimation -----------------------------------------------------------------
    def prior_for_table(
        self, bandwidths: Sequence[float | Bandwidth]
    ) -> list[PriorBeliefs]:
        """Prior beliefs of every ``Adv(B_i)`` on the fitted table, one pass.

        Returns one :class:`PriorBeliefs` per entry of ``bandwidths``, in
        order; numerically interchangeable with fitting a
        :class:`KernelPriorEstimator` per bandwidth.  Identical bandwidths
        (common in ``|skyline| > 1`` grids) are computed once and share one
        :class:`PriorBeliefs` object.
        """
        table = self._backend.table
        if table is None:
            raise KnowledgeError("estimator is not fitted; call fit(table) first")
        resolved = [self._backend.resolve_bandwidth(b) for b in bandwidths]
        matrices = self._backend.combination_matrices(resolved)
        index = self._backend.combination_index
        sensitive_values = tuple(table.sensitive_domain().values.tolist())
        beliefs: dict[int, PriorBeliefs] = {}
        for bandwidth, matrix in zip(resolved, matrices):
            if id(matrix) not in beliefs:
                beliefs[id(matrix)] = PriorBeliefs(
                    combinations=matrix,
                    index=index,
                    sensitive_values=sensitive_values,
                    description=f"kernel={self.kernel_name}, {bandwidth.describe()}",
                )
        return [beliefs[id(matrix)] for matrix in matrices]


def batched_kernel_priors(
    table,
    bandwidths: Sequence[float | Bandwidth],
    *,
    config: EstimatorConfig | None = None,
    kernel: str | None = None,
    distance_matrices: dict[str, np.ndarray] | None = None,
    max_cells: int | None = None,
    jobs: int | None = None,
) -> list[PriorBeliefs]:
    """One-call helper: priors for several adversaries sharing the kernel work."""
    estimator = BatchedKernelPriorEstimator(
        config=config,
        kernel=kernel,
        distance_matrices=distance_matrices,
        max_cells=max_cells,
        jobs=jobs,
    )
    return estimator.fit(table).prior_for_table(bandwidths)


def kernel_prior(
    table,
    b: float | Bandwidth,
    *,
    config: EstimatorConfig | None = None,
    kernel: str | None = None,
    batch_size: int | None = None,
    distance_matrices: dict[str, np.ndarray] | None = None,
    max_cells: int | None = None,
    jobs: int | None = None,
) -> PriorBeliefs:
    """One-call helper: fit a kernel estimator on ``table`` and return its priors.

    ``table`` is a :class:`~repro.data.table.MicrodataTable` or a chunked
    :class:`~repro.data.source.TableSource`.  ``b`` may be a scalar (applied
    uniformly to every QI attribute, the ``B' = (b', ..., b')`` adversary of
    Section V) or a full :class:`~repro.knowledge.bandwidth.Bandwidth`.
    Estimation runs through the factored contraction backend;
    ``max_cells=0`` selects the flat reference sweep.
    """
    if isinstance(b, Bandwidth):
        bandwidth = b
    else:
        bandwidth = Bandwidth.uniform(table.schema.quasi_identifier_names, float(b))
    estimator = KernelPriorEstimator(
        bandwidth,
        config=config,
        kernel=kernel,
        batch_size=batch_size,
        distance_matrices=distance_matrices,
        max_cells=max_cells,
        jobs=jobs,
    )
    return estimator.fit(table).prior_for_table()


def uniform_prior(table: MicrodataTable) -> PriorBeliefs:
    """The ignorant adversary: every sensitive value equally likely for every tuple.

    This belief is generally *inconsistent* with the data (Section II-D); it is
    provided so that experiments can contrast it with consistent adversaries.
    """
    m = table.sensitive_domain().size
    matrix = np.full((table.n_rows, m), 1.0 / m)
    return PriorBeliefs(
        matrix=matrix,
        sensitive_values=tuple(table.sensitive_domain().values.tolist()),
        description="uniform (ignorant adversary)",
    )


def overall_prior(table: MicrodataTable) -> PriorBeliefs:
    """The t-closeness adversary: the overall sensitive distribution for every tuple."""
    overall = table.sensitive_distribution()
    matrix = np.tile(overall, (table.n_rows, 1))
    return PriorBeliefs(
        matrix=matrix,
        sensitive_values=tuple(table.sensitive_domain().values.tolist()),
        description="overall distribution (t-closeness adversary)",
    )


def mle_prior(table: MicrodataTable) -> PriorBeliefs:
    """Maximum-likelihood prior: the sensitive distribution among identical QI tuples.

    This is the estimator the paper rejects in Section II-B (high variance, no
    knowledge parameter, no semantics); it is the limiting behaviour of the
    kernel estimator as every bandwidth shrinks to zero.
    """
    codes = table.qi_code_matrix()
    sensitive_codes = table.sensitive_codes()
    m = table.sensitive_domain().size
    unique_codes, inverse = unique_rows(codes)
    matrix = np.zeros((unique_codes.shape[0], m), dtype=np.float64)
    np.add.at(matrix, (inverse, sensitive_codes), 1.0)
    matrix /= matrix.sum(axis=1, keepdims=True)
    return PriorBeliefs(
        matrix=matrix[inverse],
        sensitive_values=tuple(table.sensitive_domain().values.tolist()),
        description="maximum-likelihood (exact QI conditioning)",
    )
