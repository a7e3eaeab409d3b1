"""The factored count-tensor contraction backend behind every kernel-prior path.

Estimating the adversary's prior belief function (Section II-B) is the hot
path of every stage of the pipeline - publishing, skyline auditing and
streaming republication all reduce to Nadaraya-Watson sums

.. math::

    \\hat P_{pri}(q) \\propto \\sum_{t_j \\in T} \\prod_i K_i(d_i(q_i, t_j[A_i]))
                             \\, P(t_j)

over the whole table.  Evaluated naively this is an ``O(n^2 d)`` sweep *per
bandwidth*.  This module holds the one shared backend that every estimator
view (:class:`~repro.knowledge.prior.KernelPriorEstimator`,
:class:`~repro.knowledge.prior.BatchedKernelPriorEstimator`) delegates to:

**Factored storage.**  The *solo* attribute (the largest single domain) is
split off from the *rest* of the quasi-identifiers.  The observed rest
combinations are deduplicated into *slots* and the table collapses into a
count tensor ``M[a, r, s]`` = number of tuples with solo code ``a``, rest
slot ``r`` and sensitive value ``s``.  All of this is bandwidth-independent
and shared across every estimation.

**Per-bandwidth contraction.**  A bandwidth only contributes tiny
per-attribute kernel matrices.  The numerator of every deduplicated query
``(a_q, r_q)`` is the two-step contraction ``N = J[r_q, :] @ (W_solo @ M)``
where ``J`` is the joint kernel weight between rest combinations - exactly
the flat Nadaraya-Watson sum, reassociated.

**Hierarchical multi-block contraction.**  The joint matrix has
``n_combos^2`` cells, which wide or high-cardinality schemas blow past any
budget.  Instead of abandoning the factorisation, the rest attributes are
split - greedily, in schema order - into *blocks* whose observed
per-block combination counts ``c_b`` satisfy ``c_b^2 <= max_cells``.  Each
block gets its own small joint matrix ``J_b`` (the kernel product over just
its attributes) and the full joint row of a query is recovered on the fly as
the Hadamard chain ``prod_b J_b[beta_b(r_q), beta_b(r)]``, materialised only
in row tiles bounded by ``max_cells`` cells.  The chained contraction is
algebraically identical to the single-joint contraction (products are merely
re-grouped per block), so blocked priors match the flat reference to
floating-point round-off while wide schemas keep the factored speedup: per
bandwidth the work is ``O(n_q n_combos (k + m))`` for ``k`` blocks instead
of the flat ``O(n_q n (d + m))``.  A single attribute whose own observed
combinations exceed the budget forms a singleton block (its kernel matrix
exists anyway at ``|D_i|^2``).  The flat sweep survives only as the
``max_cells == 0`` equivalence reference - plus an absolute memory guard
(``max_count_cells``) for pathological schemas whose count tensor itself
would not fit, where slow-but-bounded beats an out-of-memory abort.

**Parallel contraction.**  The per-block joint builds and the per-query
tile chain are embarrassingly parallel, and NumPy releases the GIL inside
its BLAS/gather kernels, so both hot loops dispatch over the shared thread
pool of :mod:`repro.knowledge.parallel`, sized by ``EstimatorConfig.jobs``
(default ``os.cpu_count()``, overridable via ``REPRO_JOBS``).  Every tile
task writes a disjoint numerator slice and performs exactly the serial
tile's arithmetic, so threaded results are *bitwise identical* to
``jobs=1`` regardless of scheduling - the serial path survives untouched as
the equivalence reference.  Compact-support kernels additionally share each
block's gathered per-attribute distance sub-matrices across bandwidths
(``share_bandwidths``): the joint at bandwidth ``B`` is the kernel applied
elementwise to the cached distances, restricted to the closed support mask
``d <= B`` when sparse - elementwise ufuncs are value-deterministic and the
masked-out entries are exact zeros, so this too is bitwise identical to the
dense rebuild.

**Sparse-support contraction.**  With a compact-support kernel at a narrow
bandwidth almost every cell of ``J`` is an exact zero (on Adult at
``B <= 0.3`` every rest attribute's kernel matrix is diagonal, so ``J`` has
``c`` non-zeros among ``c^2`` cells), and the dense chain spends nearly all
its work multiplying those zeros out.  The sparse path never builds a
``c x c`` array, a block joint or a distance gather: a bandwidth-independent
prefix trie over the observed rest combinations (:mod:`repro.knowledge.support`,
rebuilt when slots grow) lets it enumerate the positive pairs ``(r, r')``
attribute by attribute from each attribute's tiny ``|D_i|^2`` kernel matrix,
keeping only prefixes that exist, and each numerator becomes a segmented sum
``sum_r' J[r_q, r'] * (W_solo @ M)[a_q, r', :]`` over its query's pair list
after the unchanged solo GEMM.  Pair weights fold in the dense chain's order,
so a diagonal joint gives bitwise the dense priors; otherwise they agree to
round-off.  An ``O(c d)`` upper bound on the pair count,
``sum_r prod_i |N_i(v_i(r))|``, picks the path per bandwidth: sparse when
the bound fits ``max_cells`` and is at most a quarter of the dense
``queries x slots`` work, the dense tile chain otherwise (and always for
kernels without compact support).  Query tiles keep each tile's gathered
``pairs x m`` terms within ``max_cells`` and run on the shared pool; a
query's sum never depends on the tiling, so results are bitwise identical at
any ``jobs``.  Incremental caches of sparse bandwidths hold the pair lists
instead of block joints: slot growth enumerates only the pairs touching the
new slots, and the affected queries of a delta are read off the pairs.
Every ``backend.contract`` span records ``path`` (``"sparse"`` or
``"dense"``), ``pairs`` (the joint cells multiplied out) and ``pair_bound``.

**Incremental deltas.**  Appending rows is additive in ``M``; with
``incremental=True`` the per-bandwidth artefacts (block joints, the
solo-contracted tensor and the per-query numerators) are cached and
:meth:`FactoredPriorBackend.append_rows` folds a batch in by recontracting
only the queries whose compact-support kernel neighbourhood contains an
appended row - every other query keeps a bitwise-identical numerator.

**Full-lifecycle deltas.**  Retracting and correcting rows are just as
additive: :meth:`FactoredPriorBackend.remove_rows` subtracts the removed
rows' counts from ``M`` and :meth:`FactoredPriorBackend.update_rows` applies
the paired (negative old cell, positive new cell) deltas of an in-place
correction.  The count tensor holds small integers in float64, so these
subtractions are *exact* - and instead of delta-accumulating the cached
numerators (where a numerator that should become exactly zero could survive
as a cancellation residue and poison the normalisation), every query with a
positive kernel weight towards a touched cell is **fully recontracted** from
the updated count tensor.  Untouched queries keep their cached numerators
(every changed cell contributes an exact ``0.0`` to them), so maintained
priors match a from-scratch fit of the post-batch table to floating-point
round-off.  A removal that empties a rest slot *retires* it in place: the
slot's exactly-zero counts contribute exact zeros to every contraction, so
the layout does not shift and untouched queries stay bitwise stable.  The
backend refits once retired slots accumulate past ``_MAX_RETIRED_FRACTION``
of the layout (the empty-slot refit valve, amortised so realistic delete
streams stay incremental), or when slot growth breaches the count-tensor /
block-budget guards.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.data.distance import attribute_distance_matrix
from repro.data.table import MicrodataTable
from repro.exceptions import KnowledgeError
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.combinations import CombinationIndex, unique_rows
from repro.knowledge.kernels import get_kernel, has_compact_support
from repro.knowledge.parallel import parse_jobs, resolve_jobs, run_tasks
from repro.knowledge.support import (
    AttributeNeighbours,
    NeighbourPairs,
    SupportIndex,
    expand_ranges,
    neighbour_pairs,
    pair_bound,
)
from repro.obs.tracing import current_tracer

DEFAULT_MAX_CELLS = 64_000_000
DEFAULT_BATCH_SIZE = 256
DEFAULT_MAX_COUNT_CELLS = 128_000_000
# Retired (exactly-zero) rest slots tolerated before a removal-heavy stream
# refits into a compact layout; see the module docstring.
_MAX_RETIRED_FRACTION = 0.25
_MIN_RETIRED_SLOTS = 16


def backend_name(max_cells: int) -> str:
    """The backend a ``max_cells`` budget selects: ``"flat"`` only for ``0``.

    The single definition of backend identity - prior caches key on it.
    """
    return "flat" if max_cells == 0 else "factored"


@dataclass(frozen=True)
class EstimatorConfig:
    """The one estimator configuration shared by every kernel-prior consumer.

    Sessions, the skyline audit engine, the incremental publisher and the CLI
    all parameterise prior estimation through this object (or its fields), so
    there is a single definition of what a "kernel estimator" is.

    Parameters
    ----------
    kernel:
        Kernel function name (default ``"epanechnikov"``, as in the paper).
    max_cells:
        Cell budget for the *per-bandwidth contraction working set*: block
        joint matrices and materialised joint-row tiles stay below this many
        float64 cells, and so do the sparse path's pair lists (one cell per
        pair) and each of its gathered ``pairs x m`` term tiles.  It
        deliberately does **not** bound the factored count tensor, which
        scales linearly with the data (``solo domain x
        observed rest combinations x m``) - shrinking the budget makes the
        blocks and tiles smaller, never the storage.  ``0`` selects the flat
        ``O(n^2 d)`` reference sweep instead (kept only for small-size
        equivalence checks).
    batch_size:
        Query rows per vectorised batch of the flat reference sweep.
    max_count_cells:
        Hard memory guard on the count tensor (and the per-bandwidth
        contracted tensor of the same shape): fits whose ``solo x combos x
        m`` storage would exceed this many float64 cells fall back to the
        flat sweep, which is slow but memory-bounded.  An absolute ceiling
        (~1 GB by default), independent of ``max_cells`` so tiny contraction
        budgets still take the blocked factored path.
    jobs:
        Worker threads for the parallel contraction.  ``None`` (the default)
        resolves to the ``REPRO_JOBS`` environment variable when set, else
        ``os.cpu_count()``; ``1`` selects the serial reference path.  Must be
        a positive integer when given.  Threading never changes results -
        the ``jobs=1`` and ``jobs=N`` priors are bitwise identical.
    share_bandwidths:
        Share each block's gathered distance sub-matrices across bandwidths
        so K bandwidths stop paying K full joint rebuilds (compact-support
        kernels additionally evaluate only inside the ``d <= B`` support
        mask).  Bitwise identical to the dense rebuild; the switch exists
        for the equivalence suite and the sharing on/off benchmark.
    chunk_rows:
        Rows per chunk when fitting from a
        :class:`~repro.data.source.TableSource` (the out-of-core path).
        ``None`` defers to the source's own default.  Chunked fits are
        *bitwise identical* to the all-in-RAM fit - see
        :meth:`FactoredPriorBackend.fit`.
    """

    kernel: str = "epanechnikov"
    max_cells: int = DEFAULT_MAX_CELLS
    batch_size: int = DEFAULT_BATCH_SIZE
    max_count_cells: int = DEFAULT_MAX_COUNT_CELLS
    jobs: int | None = None
    share_bandwidths: bool = True
    chunk_rows: int | None = None

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise KnowledgeError("batch_size must be positive")
        if self.max_cells < 0:
            raise KnowledgeError("max_cells must be non-negative")
        if self.max_count_cells <= 0:
            raise KnowledgeError("max_count_cells must be positive")
        if self.jobs is not None:
            parse_jobs(self.jobs)
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise KnowledgeError("chunk_rows must be a positive number of rows")

    @property
    def backend_name(self) -> str:
        """``"factored"`` or ``"flat"`` - what this configuration selects."""
        return backend_name(self.max_cells)


def resolve_config(config: EstimatorConfig | None = None, **overrides) -> EstimatorConfig:
    """Merge legacy per-knob keyword overrides into one :class:`EstimatorConfig`.

    The deprecation shim behind every consumer that grew a ``config=``
    parameter (sessions, estimators, the audit engine, the publisher): the
    scattered keyword knobs (``kernel=``, ``max_cells=``, ``jobs=``, ...)
    stay accepted, and any that were actually supplied (non-``None``)
    override the matching field of ``config`` (or of a default config).
    Callers migrating to ``config=`` simply stop passing the keywords.
    """
    base = config if config is not None else EstimatorConfig()
    supplied = {name: value for name, value in overrides.items() if value is not None}
    return replace(base, **supplied) if supplied else base


@dataclass
class _RestBlock:
    """One block of rest attributes in the hierarchical contraction.

    ``positions`` are column indices into the rest-combination matrix (and
    ``names`` the matching attribute names); ``combos`` holds the observed
    per-block combinations in stable id order (appended combinations take
    the next ids, never reshuffling); ``code_of_slot`` maps every rest slot
    to its block combination id (allocated at the shared slot capacity).
    """

    positions: tuple[int, ...]
    names: tuple[str, ...]
    n_combos: int
    combos: np.ndarray
    code_of_slot: np.ndarray = field(repr=False)


class FactoredPriorBackend:
    """Shared contraction backend for kernel prior estimation.

    One backend is fitted per table and serves every bandwidth: the estimator
    classes in :mod:`repro.knowledge.prior` are thin views over it.  See the
    module docstring for the factorisation, the blocking scheme and the
    incremental delta path.

    Parameters
    ----------
    config:
        The :class:`EstimatorConfig` (kernel, ``max_cells`` budget, flat
        batch size).
    distance_matrices:
        Optional precomputed per-attribute distance matrices to share
        (matrices cached against an outgrown domain are replaced at fit).
    incremental:
        Cache per-bandwidth contraction state so :meth:`append_rows` updates
        it in place (costs memory per distinct bandwidth; off by default).
    """

    #: The sparse-support contraction's on switch.  Off, every bandwidth
    #: takes the dense tile chain - the equivalence reference the tests and
    #: the sparse-vs-dense benchmark compare against.
    _sparse_enabled = True

    def __init__(
        self,
        config: EstimatorConfig | None = None,
        *,
        distance_matrices: dict[str, np.ndarray] | None = None,
        incremental: bool = False,
    ):
        self.config = config if config is not None else EstimatorConfig()
        self._kernel = get_kernel(self.config.kernel)
        self._jobs = resolve_jobs(self.config.jobs)
        self._compact_support = has_compact_support(self.config.kernel)
        # Per-block gathered distance sub-matrices shared across bandwidths
        # (share_bandwidths); keyed by block index, tagged with the block's
        # combo count so growth invalidates the entry.
        self._block_distance_cache: dict[int, tuple[int, dict[str, np.ndarray]]] = {}
        self.incremental = bool(incremental)
        self._distance_matrices = dict(distance_matrices) if distance_matrices else {}
        self._table: MicrodataTable | None = None
        self.mode: str | None = None
        self._overall: np.ndarray | None = None
        # Factored state.  Rest combinations live in *slot* order: slots
        # 0..n_combos-1 are assigned in lexicographic order at fit time and
        # appended combinations take the next free slots, so growing the
        # state never reshuffles the (large) per-combination arrays.
        self._solo_index: int = 0
        self._rest_indices: list[int] = []
        self._n_combos: int = 0
        self._rest_combos: np.ndarray | None = None  # (capacity, d-1), slot order
        self._slot_totals: np.ndarray | None = None  # (capacity,) rows per slot
        self._blocks: list[_RestBlock] = []
        self._count_storage: np.ndarray | None = None  # (solo, capacity, m)
        self._solo_of_row: np.ndarray | None = None
        self._slot_of_row: np.ndarray | None = None
        self._pair_keys: np.ndarray | None = None
        self._query_solo: np.ndarray | None = None
        self._query_rest: np.ndarray | None = None  # slot ids
        self._query_inverse: np.ndarray | None = None
        # The table's combination index, derived lazily from the query index
        # (factored) or the flat unique codes (flat); dropped with them.
        self._combination_index: CombinationIndex | None = None
        # Prefix tries over runs of rest slots for the sparse-support
        # contraction, keyed by (start, stop) (bandwidth-independent; dropped
        # whenever the slot layout changes).
        self._support: dict[tuple[int, int], SupportIndex] = {}
        # Flat-reference state.
        self._qi_codes: np.ndarray | None = None
        self._one_hot: np.ndarray | None = None
        self._flat_unique: np.ndarray | None = None
        self._flat_inverse: np.ndarray | None = None
        # Per-bandwidth contraction caches (incremental mode only), keyed by
        # Bandwidth.items(): {"bandwidth", "pairs", "block_joints",
        # "contracted_storage", "numerators"} with contracted storage at the
        # shared slot capacity.  A sparse cache holds the joint's neighbour
        # pairs (block_joints None), a dense one its block joints (pairs None).
        self._contractions: dict[tuple, dict] = {}

    # -- small helpers ----------------------------------------------------------------
    @property
    def _count_tensor(self) -> np.ndarray:
        """Active ``(solo, n_combos, m)`` view of the count storage."""
        return self._count_storage[:, : self._n_combos, :]

    @property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        """Attribute names of each rest block of the hierarchical contraction."""
        return tuple(block.names for block in self._blocks)

    @property
    def n_blocks(self) -> int:
        """Number of rest blocks (0 for single-QI tables and flat mode)."""
        return len(self._blocks)

    @property
    def jobs(self) -> int:
        """The resolved worker-thread count (``config.jobs`` or the auto default)."""
        return self._jobs

    @property
    def table(self) -> MicrodataTable | None:
        """The fitted table (``None`` before :meth:`fit`)."""
        return self._table

    def _require_fitted(self) -> MicrodataTable:
        if self._table is None:
            raise KnowledgeError("estimator is not fitted; call fit(table) first")
        return self._table

    def _capacity(self, n_combos: int) -> int:
        """Slot capacity: headroom so appends rarely reallocate (incremental only)."""
        if not self.incremental:
            return n_combos
        return n_combos + max(128, n_combos // 4)

    def _tile_rows(self, n_columns: int) -> int:
        """Contraction tile height bounding the materialised joint rows."""
        return max(1, max(1, self.config.max_cells) // max(1, n_columns))

    def resolve_bandwidth(self, b: float | Bandwidth) -> Bandwidth:
        """Normalise ``b`` to a full bandwidth covering every fitted QI attribute."""
        table = self._require_fitted()
        if isinstance(b, Bandwidth):
            missing = [name for name in table.quasi_identifier_names if name not in b]
            if missing:
                raise KnowledgeError(
                    f"bandwidth does not cover quasi-identifier attributes {missing}"
                )
            return b
        return Bandwidth.uniform(table.quasi_identifier_names, float(b))

    def _bandwidth_weights(self, bandwidth: Bandwidth, name: str) -> np.ndarray:
        return self._kernel(self._distance_matrices[name], bandwidth[name])

    def _same_domains(self, table: MicrodataTable) -> bool:
        fitted = self._table
        if tuple(table.quasi_identifier_names) != tuple(fitted.quasi_identifier_names):
            return False
        names = list(table.quasi_identifier_names) + [table.sensitive_name]
        return all(
            np.array_equal(table.domain(name).values, fitted.domain(name).values)
            for name in names
        )

    # -- fitting ----------------------------------------------------------------------
    def fit(self, table) -> "FactoredPriorBackend":
        """Precompute every bandwidth-independent artefact for ``table``.

        ``table`` is a :class:`~repro.data.table.MicrodataTable` or any
        :class:`~repro.data.source.TableSource`.  A source is fitted
        *chunk by chunk* (``config.chunk_rows`` rows at a time): the first
        chunk takes the ordinary fit and every further chunk folds in
        through the exact append deltas, deferring nothing to approximation
        - integer counts in float64 add exactly - and a final slot
        canonicalisation permutes the arrival-ordered rest slots into the
        lexicographic layout the one-pass fit builds, so the streamed fit
        is **bitwise identical** to fitting the fully resident table while
        only ever holding one chunk's values in RAM.
        """
        with current_tracer().span("backend.fit", rows=table.n_rows) as fit_span:
            if isinstance(table, MicrodataTable):
                self._fit(table)
            else:
                self._fit_streaming(table)
        fit_span.annotate(mode=self.mode, blocks=len(self._blocks))
        return self

    def _fit(self, table: MicrodataTable) -> None:
        qi_names = list(table.quasi_identifier_names)
        for name in qi_names:
            cached = self._distance_matrices.get(name)
            if cached is None or cached.shape[0] != table.domain(name).size:
                # Also replaces matrices cached against an outgrown domain
                # (refitting after a stream append introduced new values).
                self._distance_matrices[name] = attribute_distance_matrix(table.domain(name))
        self._table = table
        self._overall = table.sensitive_distribution()
        self._contractions = {}
        self._block_distance_cache = {}
        self._support = {}
        codes = table.qi_code_matrix().astype(np.int64)
        sensitive = table.sensitive_codes().astype(np.int64)
        m = table.sensitive_domain().size

        sizes = [self._distance_matrices[name].shape[0] for name in qi_names]
        solo = int(np.argmax(sizes))
        rest = [i for i in range(len(qi_names)) if i != solo]
        rest_combos, slot_of_row = unique_rows(codes[:, rest])
        n_combos = rest_combos.shape[0]

        # Refitting may switch modes (e.g. append growth tripping the count
        # guard); drop the other mode's large artefacts so they cannot keep
        # roughly a second copy of the state alive.
        self._count_storage = None
        self._rest_combos = None
        self._slot_totals = None
        self._blocks = []
        self._solo_of_row = self._slot_of_row = None
        self._pair_keys = self._query_solo = self._query_rest = self._query_inverse = None
        self._combination_index = None
        self._qi_codes = self._one_hot = None
        self._flat_unique = self._flat_inverse = None

        # The count tensor scales with the data, not with max_cells; fits
        # whose storage would exceed the absolute guard fall back to the
        # flat sweep (slow but memory-bounded), as does max_cells == 0 (the
        # explicit equivalence-reference switch).
        if (
            self.config.max_cells == 0
            or sizes[solo] * n_combos * m > self.config.max_count_cells
        ):
            self.mode = "flat"
            self._qi_codes = codes
            one_hot = np.zeros((table.n_rows, m), dtype=np.float64)
            one_hot[np.arange(table.n_rows), sensitive] = 1.0
            self._one_hot = one_hot
            self._flat_unique, self._flat_inverse = unique_rows(codes)
            return

        self.mode = "factored"
        self._solo_index = solo
        self._rest_indices = rest
        self._n_combos = n_combos
        capacity = self._capacity(n_combos)
        self._rest_combos = np.zeros((capacity, len(rest)), dtype=rest_combos.dtype)
        self._rest_combos[:n_combos] = rest_combos
        self._blocks = self._build_blocks(rest_combos, [qi_names[i] for i in rest], capacity)
        self._solo_of_row = codes[:, solo]
        self._slot_of_row = slot_of_row.astype(np.int64)

        # M[a, r, s]: tuple counts per (solo code, rest slot, sensitive value).
        solo_size = sizes[solo]
        flat = (self._solo_of_row * n_combos + self._slot_of_row) * m + sensitive
        self._count_storage = np.zeros((solo_size, capacity, m), dtype=np.float64)
        self._count_storage[:, :n_combos, :] = (
            np.bincount(flat, minlength=solo_size * n_combos * m)
            .reshape(solo_size, n_combos, m)
            .astype(np.float64)
        )
        self._slot_totals = np.zeros(capacity, dtype=np.float64)
        self._slot_totals[:n_combos] = self._count_storage[:, :n_combos, :].sum(axis=(0, 2))
        self._rebuild_query_index()

    def _fit_streaming(self, source) -> None:
        """Fit from a chunked :class:`~repro.data.source.TableSource`.

        Chunks fold through :meth:`_append_rows` against a growing
        codes-backed table (code buffers are preallocated at the source's
        declared row count, so each fold sees a copy-free view); the final
        :meth:`_canonicalise_slots` restores the lexicographic slot layout.
        Only the active chunk's values are ever resident.  The flat
        reference (``max_cells == 0``, or the count-tensor guard tripping
        mid-stream) needs the whole code matrix anyway, so it fits the
        accumulated table in one pass at the end.
        """
        from repro.data.source import as_table

        if self.config.max_cells == 0:
            self._fit(as_table(source))
            return
        schema = source.schema
        domains = source.domains()
        buffers = {
            name: np.empty(source.n_rows, dtype=np.int32) for name in schema.names
        }
        grown: MicrodataTable | None = None
        first = True
        cursor = 0
        for chunk in source.iter_chunks(self.config.chunk_rows):
            stop = cursor + chunk.n_rows
            if stop > source.n_rows:
                raise KnowledgeError(
                    f"table source yielded more rows than its declared {source.n_rows}"
                )
            for name in schema.names:
                buffers[name][cursor:stop] = chunk.codes(name)
            cursor = stop
            grown = MicrodataTable.from_codes(
                schema, {name: buffers[name][:stop] for name in schema.names}, domains
            )
            if first:
                first = False
                self._fit(grown)
            elif self.mode == "factored":
                # A fold that trips a growth guard refits the partial table
                # (possibly flipping to flat); remaining chunks then just
                # accumulate codes for the final one-pass fit below.
                self._append_rows(grown)
        if cursor != source.n_rows:
            raise KnowledgeError(
                f"table source yielded {cursor} rows but declared {source.n_rows}"
            )
        if self.mode == "factored":
            self._canonicalise_slots()
        elif self._table is not grown:
            self._fit(grown)

    def _canonicalise_slots(self) -> None:
        """Permute arrival-ordered rest slots into the one-pass lexicographic layout.

        A streamed fit assigns slots in arrival order (first chunk
        lexicographic, later combinations appended); ``np.unique(...,
        axis=0)`` over the whole table would have sorted them.  Slot order
        feeds the contraction's summation order, so bitwise parity with the
        resident fit requires the same layout: sort the combinations
        (``np.lexsort`` over the columns, the order ``np.unique`` uses),
        permute the count storage and per-row slot ids, and re-derive the
        blocks and query index exactly as :meth:`_fit` would.  All pure
        permutation and recomputation from identical integer counts - no
        arithmetic on the counts themselves - hence bitwise.
        """
        n_combos = self._n_combos
        combos = self._rest_combos[:n_combos]
        order = np.lexsort(combos.T[::-1])
        rank = np.empty(n_combos, dtype=np.int64)
        rank[order] = np.arange(n_combos, dtype=np.int64)
        canonical = combos[order]
        capacity = self._capacity(n_combos)
        rest_combos = np.zeros((capacity, combos.shape[1]), dtype=combos.dtype)
        rest_combos[:n_combos] = canonical
        self._rest_combos = rest_combos
        self._relayout_counts(capacity, rank)
        storage = self._count_storage
        totals = np.zeros(capacity, dtype=np.float64)
        totals[:n_combos] = storage[:, :n_combos, :].sum(axis=(0, 2))
        self._slot_totals = totals
        self._slot_of_row = rank[self._slot_of_row]
        qi_names = list(self._table.quasi_identifier_names)
        self._blocks = self._build_blocks(
            canonical, [qi_names[i] for i in self._rest_indices], capacity
        )
        self._block_distance_cache = {}
        self._contractions = {}
        self._support = {}
        self._overall = self._table.sensitive_distribution()
        self._rebuild_query_index()

    def _build_blocks(
        self, rest_combos: np.ndarray, rest_names: list[str], capacity: int
    ) -> list[_RestBlock]:
        """Block the rest attributes by observed-combination growth.

        Instead of taking attributes in schema order, each block seeds on the
        highest-cardinality unplaced attribute and greedily adds the partner
        whose *realized* joint combination count grows least (measured on the
        fitted combos via composed integer keys, so correlated attributes end
        up together and the per-block ``c_b^2`` stays small), while the
        candidate keeps ``c^2 <= max_cells``.  Positions within a block stay
        sorted in schema order, so a schema whose whole rest set fits one
        block yields exactly the single block the schema-order layout built -
        unique-count monotonicity guarantees every prefix fits too.  A lone
        attribute over budget still forms a singleton block (its kernel
        matrix exists anyway at ``|D_i|^2``), so the factored path never
        degrades to the flat sweep.  Blocks later grow in place via
        :meth:`_grow_block`; a grown multi-attribute block breaching the
        budget triggers a refit, which re-derives the layout from the grown
        combos (the existing grow/retire guards).
        """
        budget = max(1, self.config.max_cells)
        n_columns = rest_combos.shape[1]
        blocks: list[_RestBlock] = []
        column_codes: list[np.ndarray] = []
        cardinality: list[int] = []
        for column in range(n_columns):
            uniq, codes = np.unique(rest_combos[:, column], return_inverse=True)
            column_codes.append(codes.astype(np.int64))
            cardinality.append(int(uniq.shape[0]))

        def close(positions: list[int]) -> None:
            ordered = sorted(positions)
            combos, codes = unique_rows(rest_combos[:, ordered])
            code_of_slot = np.zeros(capacity, dtype=np.int64)
            code_of_slot[: rest_combos.shape[0]] = codes
            blocks.append(
                _RestBlock(
                    positions=tuple(ordered),
                    names=tuple(rest_names[p] for p in ordered),
                    n_combos=combos.shape[0],
                    combos=combos,
                    code_of_slot=code_of_slot,
                )
            )

        remaining = list(range(n_columns))
        while remaining:
            seed = max(remaining, key=lambda c: (cardinality[c], -c))
            remaining.remove(seed)
            positions = [seed]
            keys = column_codes[seed]
            n_current = cardinality[seed]
            while remaining and n_current * n_current <= budget:
                best = best_count = best_keys = None
                for candidate in remaining:
                    composed = keys * cardinality[candidate] + column_codes[candidate]
                    count = int(np.unique(composed).shape[0])
                    if best_count is None or count < best_count:
                        best, best_count, best_keys = candidate, count, composed
                if best_count * best_count > budget:
                    break
                positions.append(best)
                remaining.remove(best)
                # Re-key to compact ids so composed keys cannot overflow.
                _, keys = np.unique(best_keys, return_inverse=True)
                keys = keys.astype(np.int64)
                n_current = best_count
            close(positions)
        return blocks

    def _rebuild_query_index(self) -> None:
        """Derive the unique (solo, rest slot) query structures from the rows.

        Pair keys ascend with (solo code, slot), so the unique array is
        already grouped by solo code - exactly the layout the per-bandwidth
        contraction wants for its per-solo matmuls.  The slot multiplier is
        the current combination count; slots are stable across appends, so
        re-keying old query arrays with a newer multiplier keeps their order.
        """
        multiplier = max(1, self._n_combos)
        pair_key = self._solo_of_row * multiplier + self._slot_of_row
        self._pair_keys, self._query_inverse = np.unique(pair_key, return_inverse=True)
        self._combination_index = None
        self._query_solo = self._pair_keys // multiplier
        self._query_rest = self._pair_keys % multiplier

    # -- appending --------------------------------------------------------------------
    def append_rows(self, table: MicrodataTable) -> str:
        """Grow the fitted state to ``table`` (the previous table plus appended rows).

        ``table`` must extend the fitted table: its first ``n`` rows are the
        fitted rows and every attribute keeps its domain (append-only streams
        with stable domains).  The appended rows' counts are folded into the
        count tensor - and, in ``incremental`` mode, into every cached
        per-bandwidth contraction - so the next estimation only recontracts
        queries whose kernel neighbourhood actually changed.

        Returns ``"incremental"`` when the factored state was updated in
        place, or ``"refit"`` when a full :meth:`fit` was required (flat
        reference mode, or changed domains).
        """
        with current_tracer().span("backend.append_rows", rows=table.n_rows) as span:
            result = self._append_rows(table)
        span.annotate(result=result)
        return result

    def _append_rows(self, table: MicrodataTable) -> str:
        fitted = self._require_fitted()
        n_previous = fitted.n_rows
        if table.n_rows < n_previous:
            raise KnowledgeError(
                f"append_rows expects a grown table; got {table.n_rows} rows after {n_previous}"
            )
        if self.mode != "factored" or not self._same_domains(table):
            self.fit(table)
            return "refit"
        if table.n_rows == n_previous:
            self._table = table
            return "incremental"

        m = table.sensitive_domain().size
        codes_new = table.qi_code_matrix()[n_previous:].astype(np.int64)
        sensitive_new = table.sensitive_codes()[n_previous:].astype(np.int64)
        delta_solo = codes_new[:, self._solo_index]
        rest_new = codes_new[:, self._rest_indices]

        delta_rest = self._assign_fresh_slots(rest_new, m)
        if delta_rest is None:
            # Growth breached a guard; refit (which takes the flat path
            # under the same count-tensor guard).
            self.fit(table)
            return "refit"
        n_combos = self._n_combos
        solo_size = self._count_storage.shape[0]

        # Count the batch only over the touched rest slots - O(batch), not
        # O(count tensor) - and scatter the block into the storage.
        rest_touched = np.unique(delta_rest)
        touched_position = np.searchsorted(rest_touched, delta_rest)
        flat = (delta_solo * rest_touched.size + touched_position) * m + sensitive_new
        delta_counts = (
            np.bincount(flat, minlength=solo_size * rest_touched.size * m)
            .reshape(solo_size, rest_touched.size, m)
            .astype(np.float64)
        )
        self._count_storage[:, rest_touched, :] += delta_counts
        self._slot_totals[rest_touched] += delta_counts.sum(axis=(0, 2))
        cells = np.unique(delta_solo * n_combos + delta_rest)
        cell_solo = cells // n_combos
        cell_rest = cells % n_combos

        self._table = table
        self._overall = table.sensitive_distribution()
        self._solo_of_row = np.concatenate([self._solo_of_row, delta_solo])
        self._slot_of_row = np.concatenate([self._slot_of_row, delta_rest])
        previous_solo, previous_rest = self._query_solo, self._query_rest
        self._rebuild_query_index()
        previous_pairs = previous_solo * max(1, self._n_combos) + previous_rest
        for cache in self._contractions.values():
            self._update_cache(
                cache, delta_counts, rest_touched, cell_solo, cell_rest, previous_pairs
            )
        return "incremental"

    # -- removing and updating --------------------------------------------------------
    def remove_rows(self, table: MicrodataTable, removed: np.ndarray) -> str:
        """Shrink the fitted state to ``table`` (the fitted table minus ``removed``).

        ``removed`` holds row positions of the *fitted* table; ``table`` must
        be the fitted table with exactly those rows dropped and every domain
        unchanged (e.g. ``fitted.select(kept)``).  The removed rows' counts
        are subtracted from the count tensor - exactly, since counts are
        small integers in float64 - and, in ``incremental`` mode, every query
        whose kernel neighbourhood contained a removed row is fully
        recontracted from the updated tensor (see the module docstring for
        why removals never delta-accumulate numerators).

        Returns ``"incremental"`` when the factored state was updated in
        place, or ``"refit"`` when a full :meth:`fit` was required (flat
        reference mode, changed domains, or retired slots accumulating past
        the layout guard).
        """
        fitted = self._require_fitted()
        removed = np.unique(np.asarray(removed, dtype=np.int64))
        if removed.size == 0:
            raise KnowledgeError("remove_rows requires at least one removed row")
        if removed[0] < 0 or removed[-1] >= fitted.n_rows:
            raise KnowledgeError("removed row positions fall outside the fitted table")
        if removed.size >= fitted.n_rows:
            raise KnowledgeError("cannot remove every row of the fitted table")
        if table.n_rows != fitted.n_rows - removed.size:
            raise KnowledgeError(
                f"table has {table.n_rows} rows; expected "
                f"{fitted.n_rows - removed.size} (the fitted table minus the removed rows)"
            )
        if self.mode != "factored" or not self._same_domains(table):
            self.fit(table)
            return "refit"
        sensitive = fitted.sensitive_codes().astype(np.int64)
        delta = self._exact_cell_deltas(
            removed_solo=self._solo_of_row[removed],
            removed_slot=self._slot_of_row[removed],
            removed_sensitive=sensitive[removed],
        )
        if self._retired_guard_breached():
            # Too many slots emptied to exactly zero: refit into a compact
            # layout (the emptied-slot refit valve, amortised).
            self.fit(table)
            return "refit"
        keep = np.ones(fitted.n_rows, dtype=bool)
        keep[removed] = False
        self._table = table
        self._overall = table.sensitive_distribution()
        self._solo_of_row = self._solo_of_row[keep]
        self._slot_of_row = self._slot_of_row[keep]
        self._finish_exact_update(*delta)
        return "incremental"

    def update_rows(self, table: MicrodataTable, positions: np.ndarray) -> str:
        """Re-point the fitted state at ``table`` after in-place row corrections.

        ``table`` holds the same rows as the fitted table except at
        ``positions``, whose QI/sensitive values changed *within the fitted
        domains* (callers rebuild from scratch when a correction introduces
        new values - codes would shift).  The old cells' counts are
        subtracted and the new cells' counts added in one exact pass; rest
        combinations first seen in the correction take fresh slots exactly
        as appends do, under the same count-tensor and block-budget guards.

        Returns ``"incremental"`` or ``"refit"`` (flat mode, changed
        domains, retired slots past the layout guard, or a breached growth
        guard).
        """
        fitted = self._require_fitted()
        positions = np.unique(np.asarray(positions, dtype=np.int64))
        if positions.size == 0:
            raise KnowledgeError("update_rows requires at least one updated row")
        if positions[0] < 0 or positions[-1] >= fitted.n_rows:
            raise KnowledgeError("updated row positions fall outside the fitted table")
        if table.n_rows != fitted.n_rows:
            raise KnowledgeError(
                f"update_rows expects the same number of rows; got {table.n_rows} "
                f"after {fitted.n_rows}"
            )
        if self.mode != "factored" or not self._same_domains(table):
            self.fit(table)
            return "refit"
        m = table.sensitive_domain().size
        old_solo = self._solo_of_row[positions]
        old_slot = self._slot_of_row[positions]
        old_sensitive = fitted.sensitive_codes().astype(np.int64)[positions]
        codes_new = table.qi_code_matrix()[positions].astype(np.int64)
        new_sensitive = table.sensitive_codes()[positions].astype(np.int64)
        new_solo = codes_new[:, self._solo_index]
        rest_new = codes_new[:, self._rest_indices]

        new_slot = self._assign_fresh_slots(rest_new, m)
        if new_slot is None:
            self.fit(table)
            return "refit"
        delta = self._exact_cell_deltas(
            removed_solo=old_solo,
            removed_slot=old_slot,
            removed_sensitive=old_sensitive,
            added_solo=new_solo,
            added_slot=new_slot,
            added_sensitive=new_sensitive,
        )
        if self._retired_guard_breached():
            self.fit(table)
            return "refit"
        self._table = table
        self._overall = table.sensitive_distribution()
        self._solo_of_row = self._solo_of_row.copy()
        self._solo_of_row[positions] = new_solo
        self._slot_of_row = self._slot_of_row.copy()
        self._slot_of_row[positions] = new_slot
        self._finish_exact_update(*delta)
        return "incremental"

    def _exact_cell_deltas(
        self,
        *,
        removed_solo: np.ndarray | None = None,
        removed_slot: np.ndarray | None = None,
        removed_sensitive: np.ndarray | None = None,
        added_solo: np.ndarray | None = None,
        added_slot: np.ndarray | None = None,
        added_sensitive: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply paired integer count deltas to the count storage.

        Returns ``(rest_touched, cell_solo, cell_rest)`` - the touched rest
        slots and the distinct touched (solo, slot) cells - after folding the
        removed rows' counts out of (and the added rows' counts into) the
        count storage.  Counts are integers in float64, so the subtraction is
        exact and an emptied slot lands on exactly ``0.0`` (a *retired* slot
        whose contributions are exact zeros everywhere).
        """
        m = self._count_storage.shape[2]
        solo_size = self._count_storage.shape[0]
        slot_parts = [s for s in (removed_slot, added_slot) if s is not None]
        rest_touched = np.unique(np.concatenate(slot_parts))

        def scatter(solo: np.ndarray, slot: np.ndarray, sensitive: np.ndarray, sign: float) -> None:
            position = np.searchsorted(rest_touched, slot)
            flat = (solo * rest_touched.size + position) * m + sensitive
            counts = (
                np.bincount(flat, minlength=solo_size * rest_touched.size * m)
                .reshape(solo_size, rest_touched.size, m)
                .astype(np.float64)
            )
            self._count_storage[:, rest_touched, :] += sign * counts
            self._slot_totals[rest_touched] += sign * counts.sum(axis=(0, 2))

        cells = []
        if removed_slot is not None:
            scatter(removed_solo, removed_slot, removed_sensitive, -1.0)
            cells.append(removed_solo * self._n_combos + removed_slot)
        if added_slot is not None:
            scatter(added_solo, added_slot, added_sensitive, 1.0)
            cells.append(added_solo * self._n_combos + added_slot)
        distinct = np.unique(np.concatenate(cells))
        return rest_touched, distinct // self._n_combos, distinct % self._n_combos

    def _retired_guard_breached(self) -> bool:
        """Whether retired (exactly-zero) slots warrant a compact refit."""
        retired = int((self._slot_totals[: self._n_combos] == 0.0).sum())
        return retired > max(_MIN_RETIRED_SLOTS, _MAX_RETIRED_FRACTION * self._n_combos)

    def _finish_exact_update(
        self, rest_touched: np.ndarray, cell_solo: np.ndarray, cell_rest: np.ndarray
    ) -> None:
        """Rebuild the query index and exactly refresh every cached contraction."""
        previous_solo, previous_rest = self._query_solo, self._query_rest
        self._rebuild_query_index()
        previous_pairs = previous_solo * max(1, self._n_combos) + previous_rest
        for cache in self._contractions.values():
            self._refresh_cache_exact(
                cache, rest_touched, cell_solo, cell_rest, previous_pairs
            )

    def _refresh_cache_exact(
        self,
        cache: dict,
        rest_touched: np.ndarray,
        cell_solo: np.ndarray,
        cell_rest: np.ndarray,
        previous_pairs: np.ndarray,
    ) -> None:
        """Fold removals/updates into one bandwidth's cached contraction.

        Unlike the append path (:meth:`_update_cache`), nothing is
        delta-accumulated: the touched contracted columns are recomputed from
        the exactly-updated count tensor and every affected or fresh query is
        fully recontracted, so a numerator whose neighbourhood emptied lands
        on exactly zero (and takes the overall-distribution fallback) instead
        of surviving as a cancellation residue.
        """
        qi_names = list(self._table.quasi_identifier_names)
        n_combos = self._n_combos
        m = self._count_storage.shape[2]
        solo_weights = self._bandwidth_weights(cache["bandwidth"], qi_names[self._solo_index])
        solo_size = solo_weights.shape[0]
        contracted = cache["contracted_storage"][:, :n_combos, :]
        counts_touched = self._count_storage[:, rest_touched, :]
        contracted[:, rest_touched, :] = (
            solo_weights @ counts_touched.reshape(solo_size, -1)
        ).reshape(solo_size, rest_touched.size, m)

        # Realign numerators with the (shrunk or grown) query set: vanished
        # pairs are dropped, fresh pairs recontract fully below.
        numerators = np.zeros((self._pair_keys.size, m), dtype=np.float64)
        positions = np.searchsorted(self._pair_keys, previous_pairs)
        positions = np.minimum(positions, max(0, self._pair_keys.size - 1))
        survives = self._pair_keys[positions] == previous_pairs
        numerators[positions[survives]] = cache["numerators"][survives]
        fresh = np.ones(self._pair_keys.size, dtype=bool)
        fresh[positions[survives]] = False
        affected = self._affected_query_mask(cache, cell_solo, cell_rest)
        self._recontract(cache, numerators, np.flatnonzero(affected | fresh))
        cache["numerators"] = numerators

    def _assign_fresh_slots(self, rest_new: np.ndarray, m: int) -> np.ndarray | None:
        """Slots for a batch of rest combinations, growing the layout as needed.

        Combinations first seen in the batch take the next free slots (the
        shared scheme of :meth:`append_rows` and :meth:`update_rows`).
        Returns the per-row slot ids, or ``None`` when growth breaches a
        guard and the caller must refit: the count-tensor memory guard, or a
        multi-attribute block outgrowing the contraction budget (the layout
        must be re-derived; singleton blocks are admissible over budget by
        design).
        """
        n_combos = self._n_combos
        stacked = np.concatenate([self._rest_combos[:n_combos], rest_new], axis=0)
        uniq, inverse = unique_rows(stacked)
        slot_of_uid = np.full(uniq.shape[0], -1, dtype=np.int64)
        slot_of_uid[inverse[:n_combos]] = np.arange(n_combos, dtype=np.int64)
        fresh_uids = np.flatnonzero(slot_of_uid < 0)
        if fresh_uids.size:
            solo_size = self._count_storage.shape[0]
            if solo_size * (n_combos + fresh_uids.size) * m > self.config.max_count_cells:
                return None
            slot_of_uid[fresh_uids] = n_combos + np.arange(fresh_uids.size, dtype=np.int64)
            self._grow_combos(uniq[fresh_uids])
            if any(
                len(block.positions) > 1
                and block.n_combos**2 > max(1, self.config.max_cells)
                for block in self._blocks
            ):
                return None
        return slot_of_uid[inverse[n_combos:]]

    def _relayout_counts(self, capacity: int, new_slot: np.ndarray | None = None) -> None:
        """Move the count storage to ``capacity`` slots, slot ``s`` to ``new_slot[s]``.

        Every row fills one cell, so the tensor is sparse: only its non-zero
        cells move, and the old storage is released before the new one is
        allocated, so a relayout holds one tensor instead of two.  The
        counts are moved, not recomputed, hence bitwise.
        """
        solo_size, _, m = self._count_storage.shape
        cells = np.flatnonzero(self._count_storage)
        counts = self._count_storage.reshape(-1)[cells]
        solo, slot, value = np.unravel_index(cells, self._count_storage.shape)
        self._count_storage = None
        if new_slot is not None:
            slot = new_slot[slot]
        storage = np.zeros((solo_size, capacity, m), dtype=np.float64)
        storage[solo, slot, value] = counts
        self._count_storage = storage

    def _grow_combos(self, new_combos: np.ndarray) -> None:
        """Assign slots to new rest combinations, reallocating storage if full."""
        n_old = self._n_combos
        n_after = n_old + new_combos.shape[0]
        capacity = self._rest_combos.shape[0]
        if n_after > capacity:
            capacity = self._capacity(n_after)
            combos = np.zeros((capacity, self._rest_combos.shape[1]), self._rest_combos.dtype)
            combos[:n_old] = self._rest_combos[:n_old]
            self._rest_combos = combos
            self._relayout_counts(capacity)
            storage = self._count_storage
            totals = np.zeros(capacity, dtype=np.float64)
            totals[:n_old] = self._slot_totals[:n_old]
            self._slot_totals = totals
            for block in self._blocks:
                code_of_slot = np.zeros(capacity, dtype=np.int64)
                code_of_slot[:n_old] = block.code_of_slot[:n_old]
                block.code_of_slot = code_of_slot
            for cache in self._contractions.values():
                contracted = np.zeros_like(storage)
                contracted[:, :n_old, :] = cache["contracted_storage"][:, :n_old, :]
                cache["contracted_storage"] = contracted
        slots = np.arange(n_old, n_after, dtype=np.int64)
        self._rest_combos[slots] = new_combos
        self._n_combos = n_after
        self._support = {}
        grown = [
            self._grow_block(block, new_combos[:, list(block.positions)], slots)
            for block in self._blocks
        ]
        for key, cache in list(self._contractions.items()):
            if cache["pairs"] is not None:
                cache["pairs"] = self._grow_pairs(cache["bandwidth"], cache["pairs"], slots)
                if cache["pairs"] is None:
                    # Outgrew the pair budget: the next estimation of this
                    # bandwidth recontracts from scratch and picks its path.
                    del self._contractions[key]
                    continue
            else:
                cache["block_joints"] = [
                    self._grow_block_joint(block, joint, n_new, cache["bandwidth"])
                    for block, joint, n_new in zip(self._blocks, cache["block_joints"], grown)
                ]
            cache["contracted_storage"][:, slots, :] = 0.0

    def _grow_block(self, block: _RestBlock, sub_combos: np.ndarray, slots: np.ndarray) -> int:
        """Grow one block with a batch of new rest combinations; return new combo count."""
        c_old = block.n_combos
        stacked = np.concatenate([block.combos, sub_combos], axis=0)
        uniq, inverse = unique_rows(stacked)
        id_of_uid = np.full(uniq.shape[0], -1, dtype=np.int64)
        id_of_uid[inverse[:c_old]] = np.arange(c_old, dtype=np.int64)
        fresh = np.flatnonzero(id_of_uid < 0)
        id_of_uid[fresh] = c_old + np.arange(fresh.size, dtype=np.int64)
        block.code_of_slot[slots] = id_of_uid[inverse[c_old:]]
        if fresh.size:
            block.combos = np.concatenate([block.combos, uniq[fresh]], axis=0)
            block.n_combos = c_old + fresh.size
        return int(fresh.size)

    def _grow_block_joint(
        self, block: _RestBlock, joint: np.ndarray, n_new: int, bandwidth: Bandwidth
    ) -> np.ndarray:
        """Extend a cached block joint with rows/columns for new block combos.

        The matrix stays symmetric because every attribute distance matrix is.
        """
        if n_new == 0:
            return joint
        c_after = block.n_combos
        c_old = c_after - n_new
        grown = np.empty((c_after, c_after), dtype=np.float64)
        grown[:c_old, :c_old] = joint
        rows = np.ones((n_new, c_after), dtype=np.float64)
        for offset, name in enumerate(block.names):
            weights = self._bandwidth_weights(bandwidth, name)
            column = block.combos[:c_after, offset]
            rows *= weights[column[c_old:]][:, column]
        grown[c_old:, :] = rows
        grown[:c_old, c_old:] = rows[:, :c_old].T
        return grown

    # -- per-bandwidth contraction ----------------------------------------------------
    def _block_distances(self, index: int, block: _RestBlock) -> dict[str, np.ndarray] | None:
        """Gathered per-attribute distance sub-matrices of one block (lazy).

        Bandwidth-independent, so one gather pass serves every bandwidth of a
        skyline grid (:attr:`EstimatorConfig.share_bandwidths`).  Entries are
        tagged with the block's combo count: growth invalidates them, a refit
        clears the whole cache.  Returns ``None`` - compute dense - for a
        singleton block whose over-budget ``c^2`` would blow the cell budget
        (every multi-attribute block satisfies ``c^2 <= max_cells`` by
        construction).
        """
        cached = self._block_distance_cache.get(index)
        if cached is not None and cached[0] == block.n_combos:
            return cached[1]
        c = block.n_combos
        if c * c > max(1, self.config.max_cells):
            return None
        gathered: dict[str, np.ndarray] = {}
        for offset, name in enumerate(block.names):
            column = block.combos[:c, offset]
            distances = self._distance_matrices[name]
            gathered[name] = np.take(np.take(distances, column, axis=0), column, axis=1)
        self._block_distance_cache[index] = (c, gathered)
        return gathered

    def _block_joint(
        self,
        block: _RestBlock,
        bandwidth: Bandwidth,
        distances: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """The kernel-product joint weight matrix of one block's combinations.

        With ``distances`` (the shared gathered sub-matrices) the kernel is
        applied elementwise to the gathered values instead of gathering from
        the full-domain weight matrix - value-identical per element, hence
        bitwise identical.  Compact-support kernels whose closed support mask
        ``d <= B`` is sparse evaluate only inside the mask; everything
        outside is an exact ``0.0`` for them by definition.
        """
        c = block.n_combos
        if distances is not None:
            if self._compact_support:
                mask: np.ndarray | None = None
                for name in block.names:
                    within = distances[name] <= bandwidth[name]
                    mask = within if mask is None else mask & within
                if mask.sum() * 4 <= mask.size:
                    rows, cols = np.nonzero(mask)
                    values: np.ndarray | None = None
                    for name in block.names:
                        weights = self._kernel(
                            distances[name][rows, cols], bandwidth[name]
                        )
                        values = weights if values is None else values * weights
                    joint = np.zeros((c, c), dtype=np.float64)
                    joint[rows, cols] = values
                    return joint
            joint: np.ndarray | None = None
            for name in block.names:
                weights = self._kernel(distances[name], bandwidth[name])
                joint = weights if joint is None else joint * weights
            return joint
        joint = None
        for offset, name in enumerate(block.names):
            weights = self._bandwidth_weights(bandwidth, name)
            column = block.combos[:c, offset]
            gathered = np.take(np.take(weights, column, axis=0), column, axis=1)
            joint = gathered if joint is None else joint * gathered
        if joint is None:  # pragma: no cover - blocks always hold >= 1 attribute
            joint = np.ones((c, c), dtype=np.float64)
        return joint

    def _joint_rows(
        self,
        query_slots: np.ndarray,
        block_joints: list[np.ndarray],
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """Joint weight rows ``J[query_slots, columns]``, chained over the blocks.

        ``columns`` defaults to every active slot.  This is the only place the
        full joint is ever materialised - callers tile ``query_slots`` so the
        result stays within the cell budget.
        """
        rows: np.ndarray | None = None
        for block, joint in zip(self._blocks, block_joints):
            q = block.code_of_slot[query_slots]
            d = (
                block.code_of_slot[: self._n_combos]
                if columns is None
                else block.code_of_slot[columns]
            )
            # Gather the smaller axis first so the intermediate stays at
            # min(|q|, |d|) x c_b cells - delta updates pass few columns but
            # many query slots, the full contraction the other way around.
            if len(q) <= len(d):
                gathered = np.take(np.take(joint, q, axis=0), d, axis=1)
            else:
                gathered = np.take(np.take(joint, d, axis=1), q, axis=0)
            rows = gathered if rows is None else rows * gathered
        if rows is None:
            n_columns = self._n_combos if columns is None else len(columns)
            rows = np.ones((len(query_slots), n_columns), dtype=np.float64)
        return rows

    def _contract_queries(
        self,
        numerators: np.ndarray,
        selection: np.ndarray,
        block_joints: list[np.ndarray],
        contracted: np.ndarray,
        columns: np.ndarray | None = None,
        accumulate: bool = False,
    ) -> int:
        """Numerators for the selected query positions (grouped by solo code, tiled).

        ``columns`` restricts the contraction to a subset of rest slots (with
        ``contracted`` holding just those columns) and ``accumulate`` adds to
        the existing numerators instead of overwriting - together they serve
        the incremental delta updates of :meth:`_update_cache`.

        Tiles are dispatched over the shared worker pool when ``jobs > 1``:
        every tile writes a disjoint ``numerators`` slice with exactly the
        serial tile's arithmetic, so the threaded result is bitwise identical
        to the serial loop regardless of scheduling.  Returns the number of
        distinct worker threads that touched the contraction (1 serial).
        """
        if selection.size == 0:
            return 1
        tile = self._tile_rows(self._n_combos if columns is None else len(columns))
        selected_solo = self._query_solo[selection]
        boundaries = np.flatnonzero(np.diff(selected_solo)) + 1
        tiles: list[tuple[int, np.ndarray]] = []
        for run in np.split(selection, boundaries):
            a = int(self._query_solo[run[0]])
            for start in range(0, run.size, tile):
                tiles.append((a, run[start : start + tile]))

        def contract(a: int, chunk: np.ndarray) -> None:
            rows = self._joint_rows(self._query_rest[chunk], block_joints, columns)
            if accumulate:
                numerators[chunk] += rows @ contracted[a]
            else:
                numerators[chunk] = rows @ contracted[a]

        if self._jobs <= 1 or len(tiles) <= 1:
            for a, chunk in tiles:
                contract(a, chunk)
            return 1
        return self._dispatch_tiles(contract, tiles)

    def _dispatch_tiles(
        self,
        contract: Callable[[int | None, np.ndarray], None],
        tiles: list[tuple[int | None, np.ndarray]],
    ) -> int:
        """Run independent contraction tiles on the shared pool.

        Each tile is ``(solo code, query positions)``; sparse tiles mix solo
        codes and carry ``None``.  The tracer and its innermost open span
        are captured on *this* (dispatching) thread; every worker attaches
        them so its ``backend.tile`` spans nest under the owning
        contraction span instead of interleaving across concurrent audits.
        Returns the number of distinct pool threads used.
        """
        tracer = current_tracer()
        parent = tracer.current()
        used: set[int] = set()

        def task(a: int | None, chunk: np.ndarray) -> None:
            used.add(threading.get_ident())
            attributes = {"queries": int(chunk.size)}
            if a is not None:
                attributes["solo"] = a
            with tracer.attach(parent):
                with tracer.span("backend.tile", **attributes):
                    contract(a, chunk)

        run_tasks(
            [lambda a=a, chunk=chunk: task(a, chunk) for a, chunk in tiles],
            self._jobs,
        )
        return len(used)

    def _update_cache(
        self,
        cache: dict,
        delta_counts: np.ndarray,
        rest_touched: np.ndarray,
        cell_solo: np.ndarray,
        cell_rest: np.ndarray,
        previous_pairs: np.ndarray,
    ) -> None:
        """Fold an append batch into one bandwidth's cached contraction.

        ``delta_counts`` holds the batch's counts over the touched rest slots
        (``(solo, len(rest_touched), m)``).  Only queries with a positive
        kernel weight towards some appended row can change: the kernels are
        non-negative with compact support, so a query whose solo weight or
        chained rest weight is zero for every touched cell keeps a
        bitwise-identical numerator.
        """
        qi_names = list(self._table.quasi_identifier_names)
        solo_weights = self._bandwidth_weights(cache["bandwidth"], qi_names[self._solo_index])
        contracted = cache["contracted_storage"][:, : self._n_combos, :]
        block_joints = cache["block_joints"]
        m = contracted.shape[2]
        contracted_delta = (
            solo_weights @ delta_counts.reshape(delta_counts.shape[0], -1)
        ).reshape(solo_weights.shape[0], rest_touched.size, m)
        contracted[:, rest_touched, :] += contracted_delta

        # Realign the cached numerators with the (possibly grown) query set.
        numerators = np.zeros((self._pair_keys.size, m), dtype=np.float64)
        kept = np.searchsorted(self._pair_keys, previous_pairs)
        numerators[kept] = cache["numerators"]
        fresh = np.ones(self._pair_keys.size, dtype=bool)
        fresh[kept] = False

        affected = self._affected_query_mask(cache, cell_solo, cell_rest)
        if cache["pairs"] is not None:
            # A sparse query's full recontraction costs no more than its
            # delta: a few neighbour pairs each.
            self._recontract(cache, numerators, np.flatnonzero(affected | fresh))
            cache["numerators"] = numerators
            return
        # Existing affected queries take the *delta* contraction (touched
        # columns only); brand-new queries need the full contraction.  Both
        # sides are sums of non-negative kernel terms, so an exactly-zero
        # numerator can neither appear nor vanish spuriously.
        self._contract_queries(
            numerators,
            np.flatnonzero(affected & ~fresh),
            block_joints,
            contracted_delta,
            columns=rest_touched,
            accumulate=True,
        )
        self._contract_queries(numerators, np.flatnonzero(fresh), block_joints, contracted)
        cache["numerators"] = numerators

    def _affected_query_mask(
        self, cache: dict, cell_solo: np.ndarray, cell_rest: np.ndarray
    ) -> np.ndarray:
        """Boolean mask over the query positions whose numerator may change.

        A query (a, r) is affected iff some touched cell (a0, r0) has
        positive solo weight a->a0 *and* positive chained rest weight
        r->r0.  A sparse cache reads the rest side off its neighbour pairs;
        a dense one counts the witnessing cells with small matmuls (tiled
        over rest slots so the transient weight rows respect the cell
        budget) instead of materialising the (queries x cells) mask.
        """
        qi_names = list(self._table.quasi_identifier_names)
        n_combos = self._n_combos
        solo_weights = self._bandwidth_weights(
            cache["bandwidth"], qi_names[self._solo_index]
        )
        if cache["pairs"] is not None:
            return self._sparse_affected_mask(
                cache["pairs"], solo_weights[:, cell_solo] > 0.0, cell_rest
            )
        block_joints = cache["block_joints"]
        solo_positive = (solo_weights[:, cell_solo] > 0.0).astype(np.float32)
        witnesses = np.empty((solo_weights.shape[0], n_combos), dtype=np.float32)
        tile = self._tile_rows(max(1, cell_rest.size))

        def witness(start: int) -> None:
            stop = min(start + tile, n_combos)
            slots = np.arange(start, stop, dtype=np.int64)
            cell_weights = self._joint_rows(slots, block_joints, columns=cell_rest)
            witnesses[:, start:stop] = solo_positive @ (
                cell_weights > 0.0
            ).astype(np.float32).T

        starts = range(0, n_combos, tile)
        # Disjoint column slices per task; same arithmetic either way.
        run_tasks([lambda start=start: witness(start) for start in starts], self._jobs)
        return witnesses[self._query_solo, self._query_rest] > 0.0

    def _build_block_joints(self, bandwidth: Bandwidth, tracer) -> list[np.ndarray]:
        """All block joints for one bandwidth, threaded when ``jobs > 1``.

        Each block's joint is an independent build, so with multiple blocks
        they dispatch over the shared pool; the per-block spans attach to the
        dispatching thread's open ``backend.contract`` span.  The serial path
        is the pre-pool loop, span for span.
        """
        share = self.config.share_bandwidths
        distances = [
            self._block_distances(index, block) if share else None
            for index, block in enumerate(self._blocks)
        ]
        if self._jobs <= 1 or len(self._blocks) <= 1:
            block_joints = []
            for index, block in enumerate(self._blocks):
                with tracer.span(
                    "backend.block_joint",
                    names=list(block.names),
                    combos=block.n_combos,
                ):
                    block_joints.append(
                        self._block_joint(block, bandwidth, distances[index])
                    )
            return block_joints
        parent = tracer.current()

        def build(index: int, block: _RestBlock) -> np.ndarray:
            with tracer.attach(parent):
                with tracer.span(
                    "backend.block_joint",
                    names=list(block.names),
                    combos=block.n_combos,
                ):
                    return self._block_joint(block, bandwidth, distances[index])

        return run_tasks(
            [
                lambda index=index, block=block: build(index, block)
                for index, block in enumerate(self._blocks)
            ],
            self._jobs,
        )

    # -- sparse-support contraction ---------------------------------------------------
    def _support_layout(self) -> tuple[list[int], list[str], list[bool], list[bool]]:
        """The sparse path's attribute order: the blocks' positions, block by block.

        Returns the rest column positions, their attribute names and the
        per-level flags marking where a block opens and closes, so pair
        weights fold in the dense chain's order.
        """
        qi_names = list(self._table.quasi_identifier_names)
        order: list[int] = []
        starts: list[bool] = []
        ends: list[bool] = []
        for block in self._blocks:
            width = len(block.positions)
            order.extend(block.positions)
            starts.extend(offset == 0 for offset in range(width))
            ends.extend(offset == width - 1 for offset in range(width))
        names = [qi_names[self._rest_indices[position]] for position in order]
        return order, names, starts, ends

    def _support_index(self, slots: np.ndarray | None = None) -> SupportIndex:
        """The prefix trie over ``slots`` (default: every active slot).

        Tries over a run of consecutive slots are cached until the slot
        layout changes, so the bandwidths of one append share them.
        """
        if slots is None:
            slots = np.arange(self._n_combos, dtype=np.int64)
        key = None
        if slots.size and slots[-1] - slots[0] + 1 == slots.size and np.all(np.diff(slots) > 0):
            key = (int(slots[0]), int(slots[-1]) + 1)
            if key in self._support:
                return self._support[key]
        order, names, _, _ = self._support_layout()
        index = SupportIndex(
            self._rest_combos[slots][:, order],
            [self._distance_matrices[name].shape[0] for name in names],
            slots,
        )
        if key is not None:
            self._support[key] = index
        return index

    def _attribute_neighbours(self, bandwidth: Bandwidth) -> list[AttributeNeighbours]:
        _, names, _, _ = self._support_layout()
        return [
            AttributeNeighbours.from_weights(self._bandwidth_weights(bandwidth, name))
            for name in names
        ]

    def _pair_bounds(self, neighbours: list[AttributeNeighbours]) -> np.ndarray:
        """Per-slot upper bounds on the number of positive joint pairs."""
        order, _, _, _ = self._support_layout()
        return pair_bound(self._rest_combos[: self._n_combos][:, order], neighbours)

    def _sparse_pairs(self, bandwidth: Bandwidth) -> tuple[NeighbourPairs | None, float]:
        """The joint's positive pairs when the sparse path serves ``bandwidth``.

        Returns ``(pairs, bound)``: ``pairs`` is ``None`` - take the dense
        tile chain - for kernels without compact support, for tables with
        no rest attributes, or when the ``O(c d)`` pair bound exceeds the
        ``max_cells`` budget or a quarter of the dense chain's
        ``queries x slots`` work.
        """
        if not (self._sparse_enabled and self._compact_support and self._blocks):
            return None, float(self._n_combos) ** 2
        neighbours = self._attribute_neighbours(bandwidth)
        bounds = self._pair_bounds(neighbours)
        total = float(bounds.sum())
        sparse_work = float(bounds[self._query_rest].sum())
        dense_work = float(self._pair_keys.size) * self._n_combos
        if total > max(1, self.config.max_cells) or 4.0 * sparse_work > dense_work:
            return None, total
        everything = np.arange(self._n_combos, dtype=np.int64)
        return self._enumerate_pairs(neighbours, bounds, everything, self._support_index()), total

    def _enumerate_pairs(
        self,
        neighbours: list[AttributeNeighbours],
        bounds: np.ndarray,
        sources: np.ndarray,
        target: SupportIndex,
    ) -> NeighbourPairs:
        """The positive pairs from the ``sources`` slots into ``target``'s slots.

        Sources are enumerated in ascending chunks whose summed pair bound
        stays within an eighth of ``max_cells``: the enumeration holds about
        five cells per candidate pair, so its transient arrays stay within
        the contraction budget however wide the bandwidth.
        """
        _, _, starts, ends = self._support_layout()
        budget = max(1, self.config.max_cells // 8)
        cumulative = np.cumsum(bounds[sources])
        parts: list[NeighbourPairs] = []
        start = 0
        while start < sources.size:
            done = float(cumulative[start - 1]) if start else 0.0
            stop = max(start + 1, int(np.searchsorted(cumulative, done + budget, side="right")))
            chunk = self._support_index(sources[start:stop])
            parts.append(neighbour_pairs(chunk, target, neighbours, starts, ends))
            start = stop
        return NeighbourPairs.merge(parts, self._n_combos)

    def _grow_pairs(
        self, bandwidth: Bandwidth, pairs: NeighbourPairs, fresh: np.ndarray
    ) -> NeighbourPairs | None:
        """Extend a cached pair list with the pairs touching the ``fresh`` slots.

        ``fresh`` are the newest slots (``fresh[0]`` onwards).  Only pairs
        with a fresh endpoint are enumerated - fresh to every slot, then old
        to fresh - and merged into the canonical order, so the result equals
        a from-scratch enumeration of the grown layout.  Returns ``None``
        when the grown layout's pair bound exceeds the ``max_cells`` budget.
        """
        neighbours = self._attribute_neighbours(bandwidth)
        bounds = self._pair_bounds(neighbours)
        if bounds.sum() > max(1, self.config.max_cells):
            return None
        old = np.arange(fresh[0], dtype=np.int64)
        outgoing = self._enumerate_pairs(neighbours, bounds, fresh, self._support_index())
        incoming = self._enumerate_pairs(neighbours, bounds, old, self._support_index(fresh))
        return NeighbourPairs.merge([pairs, outgoing, incoming], self._n_combos)

    def _contract_sparse(
        self,
        numerators: np.ndarray,
        selection: np.ndarray,
        pairs: NeighbourPairs,
        contracted_storage: np.ndarray,
    ) -> int:
        """Numerators of the selected queries as segmented sums over their pairs.

        ``numerators[q] = sum_r' w(r_q, r') * contracted[a_q, r', :]`` in
        ascending ``r'`` order.  Queries are tiled so each tile's gathered
        ``pairs x m`` terms stay within ``max_cells`` (and, with ``jobs >
        1``, split across the pool).  Each query's sum depends only on its
        own pairs, never on the tiling, so results are bitwise identical at
        any ``jobs``.  Returns the number of worker threads used.
        """
        if selection.size == 0:
            return 1
        m = numerators.shape[1]
        capacity = contracted_storage.shape[1]
        terms_of = contracted_storage.reshape(-1, m)
        offsets = pairs.offsets(self._n_combos)
        rest = self._query_rest[selection]
        ends = np.cumsum(offsets[rest + 1] - offsets[rest])
        total = int(ends[-1])
        budget = max(1, max(1, self.config.max_cells) // m)
        if self._jobs > 1:
            budget = min(budget, max(1, -(-total // self._jobs)))
        tiles: list[tuple[int | None, np.ndarray]] = []
        start = 0
        while start < selection.size:
            done = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + budget, side="right")))
            tiles.append((None, selection[start:stop]))
            start = stop

        def contract(_: int | None, chunk: np.ndarray) -> None:
            rest = self._query_rest[chunk]
            first = offsets[rest]
            counts = offsets[rest + 1] - first
            index = expand_ranges(first, counts)
            rows = np.repeat(self._query_solo[chunk] * capacity, counts)
            terms = terms_of[rows + pairs.target[index]]
            terms *= pairs.weight[index][:, None]
            result = np.zeros((chunk.size, m), dtype=np.float64)
            nonempty = counts > 0
            if index.size:
                segment = np.cumsum(counts) - counts
                result[nonempty] = np.add.reduceat(terms, segment[nonempty], axis=0)
            numerators[chunk] = result

        if self._jobs <= 1 or len(tiles) <= 1:
            for a, chunk in tiles:
                contract(a, chunk)
            return 1
        return self._dispatch_tiles(contract, tiles)

    def _sparse_affected_mask(
        self, pairs: NeighbourPairs, solo_positive: np.ndarray, cell_rest: np.ndarray
    ) -> np.ndarray:
        """Queries (a, r) with a pair (r, r0) and a positive solo weight to a cell (a0, r0).

        ``solo_positive[a, j]`` says whether solo code ``a`` reaches touched
        cell ``j`` (rest slot ``cell_rest[j]``).
        """
        touched, cell_position = np.unique(cell_rest, return_inverse=True)
        reach = np.zeros((touched.size, solo_positive.shape[0]), dtype=bool)
        np.logical_or.at(reach, cell_position.reshape(-1), solo_positive.T)
        hit = np.flatnonzero(np.isin(pairs.target, touched))
        witness = np.zeros((self._n_combos, solo_positive.shape[0]), dtype=bool)
        np.logical_or.at(
            witness,
            pairs.source[hit],
            reach[np.searchsorted(touched, pairs.target[hit])],
        )
        return witness[self._query_rest, self._query_solo]

    def _recontract(self, cache: dict, numerators: np.ndarray, selection: np.ndarray) -> None:
        """Fully recontract the selected queries from one cached contraction."""
        if cache["pairs"] is not None:
            self._contract_sparse(
                numerators, selection, cache["pairs"], cache["contracted_storage"]
            )
        else:
            self._contract_queries(
                numerators,
                selection,
                cache["block_joints"],
                cache["contracted_storage"][:, : self._n_combos, :],
            )

    def _factored_matrix(self, bandwidth: Bandwidth) -> np.ndarray:
        """The per-combination prior matrix of the fitted table under one bandwidth."""
        table = self._table
        qi_names = list(table.quasi_identifier_names)
        m = table.sensitive_domain().size
        cache = self._contractions.get(bandwidth.items()) if self.incremental else None
        if cache is not None:
            numerators = cache["numerators"]
        else:
            tracer = current_tracer()
            with tracer.span(
                "backend.contract", bandwidth=dict(bandwidth.items())
            ) as contract_span:
                solo_name = qi_names[self._solo_index]
                solo_weights = self._bandwidth_weights(bandwidth, solo_name)
                pairs, bound = self._sparse_pairs(bandwidth)
                block_joints = (
                    self._build_block_joints(bandwidth, tracer) if pairs is None else None
                )

                n_combos = self._n_combos
                solo_size = solo_weights.shape[0]
                # Padding slots (growth headroom) only exist in incremental mode,
                # where they must be zero; one-shot estimations get exact-size,
                # uninitialised buffers.  The solo contraction stays a single
                # GEMM (never split across workers): BLAS blocking could vary
                # with the operand shape, and the one matmul already uses
                # whatever threads BLAS itself brings.
                allocate = np.zeros if self.incremental else np.empty
                contracted_storage = allocate(self._count_storage.shape, dtype=np.float64)
                contracted = contracted_storage[:, :n_combos, :]
                # A solo row's active slots are contiguous in both buffers, so
                # the GEMM reads and writes them in place: no temporary as
                # large as the count tensor.
                active = n_combos * m
                np.matmul(
                    solo_weights,
                    self._count_storage.reshape(solo_size, -1)[:, :active],
                    out=contracted_storage.reshape(solo_size, -1)[:, :active],
                )

                numerators = np.empty((self._pair_keys.size, m), dtype=np.float64)
                everything = np.arange(self._pair_keys.size, dtype=np.int64)
                if pairs is not None:
                    threads = self._contract_sparse(
                        numerators, everything, pairs, contracted_storage
                    )
                else:
                    threads = self._contract_queries(
                        numerators, everything, block_joints, contracted
                    )
                contract_span.annotate(
                    queries=int(self._pair_keys.size),
                    threads=int(threads),
                    path="dense" if pairs is None else "sparse",
                    pairs=n_combos * n_combos if pairs is None else pairs.size,
                    pair_bound=bound,
                )
            if self.incremental:
                self._contractions[bandwidth.items()] = {
                    "bandwidth": bandwidth,
                    "pairs": pairs,
                    "block_joints": block_joints,
                    "contracted_storage": contracted_storage,
                    "numerators": numerators,
                }
        return self._normalise(numerators)

    def _normalise(self, numerators: np.ndarray) -> np.ndarray:
        """Row-normalise numerators; degenerate rows fall back to the overall."""
        denominators = numerators.sum(axis=1)
        degenerate = denominators <= 0.0
        result = numerators / np.where(degenerate, 1.0, denominators)[:, None]
        if degenerate.any():
            result[degenerate] = self._overall
        return result

    # -- flat reference ---------------------------------------------------------------
    def _flat_matrix_for_codes(
        self, query_codes: np.ndarray, bandwidth: Bandwidth
    ) -> np.ndarray:
        """The reference O(n^2 d) Nadaraya-Watson sweep over raw query codes."""
        table = self._table
        qi_names = list(table.quasi_identifier_names)
        weight_matrices = [self._bandwidth_weights(bandwidth, name) for name in qi_names]
        m = table.sensitive_domain().size
        data_codes = self._qi_codes
        n_queries = query_codes.shape[0]
        batch_size = self.config.batch_size
        result = np.empty((n_queries, m), dtype=np.float64)
        for start in range(0, n_queries, batch_size):
            stop = min(start + batch_size, n_queries)
            batch = query_codes[start:stop]
            weights = np.ones((stop - start, data_codes.shape[0]), dtype=np.float64)
            for attribute_index, weight_matrix in enumerate(weight_matrices):
                weights *= weight_matrix[batch[:, attribute_index]][:, data_codes[:, attribute_index]]
            numerators = weights @ self._one_hot
            denominators = weights.sum(axis=1)
            degenerate = denominators <= 0.0
            safe = np.where(degenerate, 1.0, denominators)
            chunk = numerators / safe[:, None]
            if degenerate.any():
                chunk[degenerate] = self._overall
            result[start:stop] = chunk
        return result

    # -- estimation -------------------------------------------------------------------
    @property
    def combination_index(self) -> CombinationIndex:
        """The fitted table's QI-combination index (shared by every bandwidth).

        Combination ``c`` is query ``c`` of the factored query index (or
        unique code row ``c`` in flat mode), so row ``c`` of every
        :meth:`combination_matrices` result is the prior of the rows with
        ``combo_of_row == c``.  Rebuilt whenever appends, removals or updates
        rebuild the query index.
        """
        self._require_fitted()
        if self._combination_index is None:
            if self.mode == "factored":
                inverse, count = self._query_inverse, self._pair_keys.size
            else:
                inverse, count = self._flat_inverse, self._flat_unique.shape[0]
            self._combination_index = CombinationIndex.from_inverse(inverse, count)
        return self._combination_index

    def combination_matrices(
        self, bandwidths: Sequence[float | Bandwidth]
    ) -> list[np.ndarray]:
        """Per-combination prior matrices of the fitted table, one per bandwidth.

        Rows follow :attr:`combination_index`.  Identical bandwidths (common
        in skyline grids) are computed once and share the returned array
        object.
        """
        self._require_fitted()
        resolved = [self.resolve_bandwidth(b) for b in bandwidths]
        computed: dict[tuple[tuple[str, float], ...], np.ndarray] = {}
        results: list[np.ndarray] = []
        for bandwidth in resolved:
            key = bandwidth.items()
            matrix = computed.get(key)
            if matrix is None:
                if self.mode == "factored":
                    matrix = self._factored_matrix(bandwidth)
                else:
                    matrix = self._flat_matrix_for_codes(self._flat_unique, bandwidth)
                computed[key] = matrix
            results.append(matrix)
        return results

    def matrices(self, bandwidths: Sequence[float | Bandwidth]) -> list[np.ndarray]:
        """Per-row prior matrices of the fitted table, one per bandwidth.

        The row expansion of :meth:`combination_matrices`; identical
        bandwidths share the returned array object.
        """
        combo_of_row = self.combination_index.combo_of_row
        matrices = self.combination_matrices(bandwidths)
        distinct = {id(matrix): matrix for matrix in matrices}
        expanded = {key: matrix[combo_of_row] for key, matrix in distinct.items()}
        return [expanded[id(matrix)] for matrix in matrices]

    def matrix_for_codes(
        self, query_codes: np.ndarray, b: float | Bandwidth
    ) -> np.ndarray:
        """Prior distributions for query rows given as QI *code* combinations.

        ``query_codes`` is a ``(q, d)`` integer matrix in the fitted table's
        code space; the queries need not occur in the table (the factored
        path computes rectangular query-vs-data block weights on the fly).
        Every code must index its attribute's domain: a negative or
        out-of-range code raises :class:`~repro.exceptions.KnowledgeError`
        (a negative one would otherwise alias a value from the end).
        """
        table = self._require_fitted()
        bandwidth = self.resolve_bandwidth(b)
        query_codes = np.atleast_2d(np.asarray(query_codes, dtype=np.int64))
        n_attributes = query_codes.shape[1]
        if n_attributes != len(table.quasi_identifier_names):
            raise KnowledgeError(
                f"query has {n_attributes} attributes but the estimator was fitted on "
                f"{len(table.quasi_identifier_names)}"
            )
        for column, name in enumerate(table.quasi_identifier_names):
            codes = query_codes[:, column]
            size = table.domain(name).size
            if codes.size and (codes.min() < 0 or codes.max() >= size):
                raise KnowledgeError(
                    f"query codes for attribute {name!r} must lie in [0, {size}); "
                    f"got values in [{codes.min()}, {codes.max()}]"
                )
        unique_codes, inverse = unique_rows(query_codes)
        if self.mode == "flat":
            return self._flat_matrix_for_codes(unique_codes, bandwidth)[inverse]

        qi_names = list(table.quasi_identifier_names)
        m = table.sensitive_domain().size
        n_combos = self._n_combos
        solo_weights = self._bandwidth_weights(bandwidth, qi_names[self._solo_index])
        solo_size = solo_weights.shape[0]
        contracted = (
            solo_weights @ self._count_tensor.reshape(solo_size, -1)
        ).reshape(solo_size, n_combos, m)
        attribute_weights = {
            name: self._bandwidth_weights(bandwidth, name)
            for block in self._blocks
            for name in block.names
        }

        def joint_rows_for(chunk: np.ndarray) -> np.ndarray:
            # Rectangular query-vs-data block weights, one tile at a time
            # (query combos may be unseen, so this cannot gather from the
            # square block joints); the (tile x n_combos) expansion respects
            # the same cell budget as the table-query path.
            rows: np.ndarray | None = None
            for block in self._blocks:
                weights = np.ones((chunk.size, block.n_combos), dtype=np.float64)
                for position, (rest_column, name) in enumerate(
                    zip(block.positions, block.names)
                ):
                    attribute = self._rest_indices[rest_column]
                    column = block.combos[: block.n_combos, position]
                    weights *= np.take(
                        np.take(attribute_weights[name], unique_codes[chunk, attribute], axis=0),
                        column,
                        axis=1,
                    )
                gathered = np.take(weights, block.code_of_slot[:n_combos], axis=1)
                rows = gathered if rows is None else rows * gathered
            if rows is None:
                rows = np.ones((chunk.size, n_combos), dtype=np.float64)
            return rows

        numerators = np.empty((unique_codes.shape[0], m), dtype=np.float64)
        query_solo = unique_codes[:, self._solo_index]
        order = np.argsort(query_solo, kind="stable")
        boundaries = np.flatnonzero(np.diff(query_solo[order])) + 1
        tile = self._tile_rows(n_combos)
        tiles: list[tuple[int, np.ndarray]] = []
        for run in np.split(order, boundaries):
            a = int(query_solo[run[0]])
            for start in range(0, run.size, tile):
                tiles.append((a, run[start : start + tile]))

        def contract(a: int, chunk: np.ndarray) -> None:
            numerators[chunk] = joint_rows_for(chunk) @ contracted[a]

        if self._jobs <= 1 or len(tiles) <= 1:
            for a, chunk in tiles:
                contract(a, chunk)
        else:
            self._dispatch_tiles(contract, tiles)
        return self._normalise(numerators)[inverse]
