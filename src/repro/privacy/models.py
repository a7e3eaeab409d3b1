"""Privacy models: k-anonymity, l-diversity variants, t-closeness, (B,t)-privacy.

Every model implements the small :class:`PrivacyModel` interface used by the
anonymization algorithms (Mondrian, Anatomy):

* :meth:`PrivacyModel.prepare` is called once with the full table and is where
  expensive global work happens (e.g. estimating the kernel priors for the
  (B,t) model);
* :meth:`PrivacyModel.is_satisfied` is called with candidate group indices and
  decides whether a group may appear in the release.

The headline model of the paper is :class:`BTPrivacy` (Definition 1) and its
multi-adversary variant :class:`SkylineBTPrivacy` (Definition 2).  The
baselines used throughout the evaluation - distinct l-diversity, probabilistic
l-diversity and t-closeness - are provided alongside, plus
:class:`KAnonymity`, which the paper composes with every model to also protect
against identity disclosure.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.distance import attribute_distance_matrix
from repro.data.table import MicrodataTable
from repro.exceptions import PrivacyModelError
from repro.knowledge.backend import DEFAULT_MAX_CELLS
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.prior import PriorBeliefs, kernel_prior
from repro.privacy.disclosure import pair_distances
from repro.privacy.measures import (
    DistanceMeasure,
    HierarchicalEMD,
    SmoothedJSDivergence,
    total_variation,
)


class PrivacyModel:
    """Interface shared by all privacy requirements."""

    name = "abstract"

    def prepare(self, table: MicrodataTable) -> None:
        """Precompute any table-wide state (called once before anonymization)."""

    def components(self):
        """Iterate over this requirement's leaf models (itself for simple models).

        Composite requirements (conjunctions, skylines) yield their nested
        models, so callers can walk an arbitrary requirement tree - e.g. a
        session injecting shared kernel priors into every (B,t) component.
        """
        yield self

    def is_satisfied(self, group_indices: np.ndarray) -> bool:  # pragma: no cover - interface
        """Whether a candidate group meets the requirement."""
        raise NotImplementedError

    def is_satisfied_batch(self, groups: Sequence[np.ndarray]) -> list[bool]:
        """Whether each candidate group meets the requirement.

        Models whose check benefits from evaluating many groups in one pass
        (e.g. :class:`BTPrivacy`'s batched posterior kernel) override this;
        the default simply loops.  Mondrian evaluates the two halves of every
        candidate split through this entry point.
        """
        return [self.is_satisfied(group) for group in groups]

    def stream_update(self, table: MicrodataTable, n_previous: int) -> np.ndarray:
        """Refresh state for a grown table; report which rows' verdicts may change.

        The streaming publisher's invalidation hook: ``table`` extends the
        previously prepared table by appending rows (the first ``n_previous``
        rows are unchanged).  Implementations refresh any table-wide state and
        return a boolean *dirty* mask over the new table - ``True`` where a
        group containing that row must be re-checked.  The conservative
        default re-prepares and marks every row dirty, which is always sound;
        models whose verdicts depend only on a group's own members override it
        to mark just the appended rows.  (:class:`BTPrivacy` is refreshed
        through :meth:`update_priors` instead - its dirtiness is a property of
        the re-estimated priors, which the publisher owns.)
        """
        self.prepare(table)
        return np.ones(table.n_rows, dtype=bool)

    def stream_replace(self, table: MicrodataTable, previous_of: np.ndarray) -> np.ndarray:
        """Refresh state after rows were removed or corrected in place.

        The full-lifecycle counterpart of :meth:`stream_update`:
        ``previous_of`` maps every row of ``table`` to its position in the
        previously prepared table (``-1`` for rows with no previous
        counterpart).  Implementations refresh table-wide state and return a
        boolean dirty mask over ``table``'s rows.  The conservative default
        re-prepares and marks everything dirty; models whose verdicts depend
        only on a group's own members override it.  (:class:`BTPrivacy` is
        refreshed through :meth:`update_priors` with ``previous_of``.)
        """
        self.prepare(table)
        return np.ones(table.n_rows, dtype=bool)

    def _appended_only_dirty(self, table: MicrodataTable, n_previous: int) -> np.ndarray:
        dirty = np.ones(table.n_rows, dtype=bool)
        dirty[:n_previous] = False
        return dirty

    def describe(self) -> str:
        """Short human-readable description of the configured requirement."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


class KAnonymity(PrivacyModel):
    """Every group must contain at least ``k`` tuples (identity disclosure)."""

    name = "k-anonymity"

    def __init__(self, k: int):
        if k < 1:
            raise PrivacyModelError("k must be at least 1")
        self.k = int(k)

    def is_satisfied(self, group_indices: np.ndarray) -> bool:
        return len(group_indices) >= self.k

    def stream_update(self, table: MicrodataTable, n_previous: int) -> np.ndarray:
        # Group size only: appending rows cannot change untouched groups.
        self.prepare(table)
        return self._appended_only_dirty(table, n_previous)

    def stream_replace(self, table: MicrodataTable, previous_of: np.ndarray) -> np.ndarray:
        # Group size only: the publisher re-checks every group whose
        # *membership* changed, which is the only thing k-anonymity sees.
        self.prepare(table)
        return np.asarray(previous_of, dtype=np.int64) < 0

    def describe(self) -> str:
        return f"k={self.k}"


class _SensitiveGroupModel(PrivacyModel):
    """Base for models that only look at the sensitive values of a group."""

    def __init__(self) -> None:
        self._sensitive_codes: np.ndarray | None = None
        self._domain_size: int | None = None

    def prepare(self, table: MicrodataTable) -> None:
        self._sensitive_codes = table.sensitive_codes()
        self._domain_size = table.sensitive_domain().size

    def stream_update(self, table: MicrodataTable, n_previous: int) -> np.ndarray:
        # Verdicts depend only on a group's own sensitive counts, and
        # append-only growth keeps previous rows' codes unchanged.
        self.prepare(table)
        return self._appended_only_dirty(table, n_previous)

    def stream_replace(self, table: MicrodataTable, previous_of: np.ndarray) -> np.ndarray:
        # Verdicts depend only on a group's own sensitive counts: a row is
        # dirty when it has no previous counterpart or its code changed
        # (membership changes are the publisher's responsibility).
        previous_codes = self._sensitive_codes
        self.prepare(table)
        previous_of = np.asarray(previous_of, dtype=np.int64)
        dirty = previous_of < 0
        if previous_codes is None:
            return np.ones(table.n_rows, dtype=bool)
        surviving = ~dirty
        dirty[surviving] = (
            self._sensitive_codes[surviving] != previous_codes[previous_of[surviving]]
        )
        return dirty

    def _group_counts(self, group_indices: np.ndarray) -> np.ndarray:
        if self._sensitive_codes is None or self._domain_size is None:
            raise PrivacyModelError(f"{self.name} is not prepared; call prepare(table) first")
        indices = np.asarray(group_indices, dtype=np.int64)
        if indices.size == 0:
            raise PrivacyModelError("a group must contain at least one tuple")
        return np.bincount(self._sensitive_codes[indices], minlength=self._domain_size)


class DistinctLDiversity(_SensitiveGroupModel):
    """Each group must contain at least ``l`` distinct sensitive values."""

    name = "distinct-l-diversity"

    def __init__(self, l: int):
        super().__init__()
        if l < 1:
            raise PrivacyModelError("l must be at least 1")
        self.l = int(l)

    def is_satisfied(self, group_indices: np.ndarray) -> bool:
        counts = self._group_counts(group_indices)
        return int((counts > 0).sum()) >= self.l

    def describe(self) -> str:
        return f"l={self.l}"


class ProbabilisticLDiversity(_SensitiveGroupModel):
    """The most frequent sensitive value may take at most a ``1/l`` share of a group."""

    name = "probabilistic-l-diversity"

    def __init__(self, l: float):
        super().__init__()
        if l < 1:
            raise PrivacyModelError("l must be at least 1")
        self.l = float(l)

    def is_satisfied(self, group_indices: np.ndarray) -> bool:
        counts = self._group_counts(group_indices)
        total = counts.sum()
        return counts.max() <= total / self.l + 1e-12

    def describe(self) -> str:
        return f"l={self.l:g}"


class EntropyLDiversity(_SensitiveGroupModel):
    """The entropy of each group's sensitive distribution must be at least ``log(l)``."""

    name = "entropy-l-diversity"

    def __init__(self, l: float):
        super().__init__()
        if l < 1:
            raise PrivacyModelError("l must be at least 1")
        self.l = float(l)

    def is_satisfied(self, group_indices: np.ndarray) -> bool:
        counts = self._group_counts(group_indices)
        distribution = counts[counts > 0].astype(np.float64)
        distribution /= distribution.sum()
        entropy = float(-(distribution * np.log(distribution)).sum())
        return entropy >= np.log(self.l) - 1e-12

    def describe(self) -> str:
        return f"l={self.l:g}"


class TCloseness(_SensitiveGroupModel):
    """Each group's sensitive distribution must stay within ``t`` of the table's.

    The distance is the Earth Mover's Distance, either over the sensitive
    attribute's Section II-C ground-distance matrix (hierarchical EMD, the
    default when the sensitive attribute carries a taxonomy) or the
    variational distance when ``use_hierarchy=False``.
    """

    name = "t-closeness"

    def __init__(self, t: float, *, use_hierarchy: bool = True):
        super().__init__()
        if not 0.0 <= t <= 1.0:
            raise PrivacyModelError("t must lie in [0, 1]")
        self.t = float(t)
        self.use_hierarchy = bool(use_hierarchy)
        self._overall: np.ndarray | None = None
        self._emd: HierarchicalEMD | None = None

    def prepare(self, table: MicrodataTable) -> None:
        super().prepare(table)
        self._overall = table.sensitive_distribution()
        taxonomy = table.sensitive_domain().attribute.taxonomy
        if self.use_hierarchy and taxonomy is not None:
            leaf_order = [str(v) for v in table.sensitive_domain().values.tolist()]
            self._emd = HierarchicalEMD(taxonomy, leaf_order)
        else:
            self._emd = None

    def stream_update(self, table: MicrodataTable, n_previous: int) -> np.ndarray:
        # The reference is the *overall* sensitive distribution: when the
        # appended rows move it, every group's distance to it may move too.
        previous_overall = self._overall
        self.prepare(table)
        if previous_overall is not None and np.array_equal(previous_overall, self._overall):
            return self._appended_only_dirty(table, n_previous)
        return np.ones(table.n_rows, dtype=bool)

    def stream_replace(self, table: MicrodataTable, previous_of: np.ndarray) -> np.ndarray:
        # Same reference sensitivity as stream_update: an unchanged overall
        # distribution reduces dirtiness to membership/code changes.
        previous_overall = self._overall
        dirty = super().stream_replace(table, previous_of)
        if previous_overall is not None and np.array_equal(previous_overall, self._overall):
            return dirty
        return np.ones(table.n_rows, dtype=bool)

    def is_satisfied(self, group_indices: np.ndarray) -> bool:
        counts = self._group_counts(group_indices)
        if self._overall is None:
            raise PrivacyModelError("t-closeness is not prepared; call prepare(table) first")
        distribution = counts.astype(np.float64)
        distribution /= distribution.sum()
        if self._emd is not None:
            distance = self._emd(distribution, self._overall)
        else:
            distance = total_variation(distribution, self._overall)
        return distance <= self.t + 1e-12

    def describe(self) -> str:
        return f"t={self.t:g}"


class BTPrivacy(PrivacyModel):
    """The (B,t)-privacy principle (Definition 1).

    A group satisfies the requirement when, for the adversary ``Adv(B)``, the
    distance between the prior and posterior belief of *every* tuple in the
    group is at most ``t``.  Posteriors are computed with the Omega-estimate by
    default (``inference="omega"``); ``inference="exact"`` switches to the
    count-DP exact inference (only sensible for small groups).

    Parameters
    ----------
    b:
        Either a scalar bandwidth applied to every QI attribute, or a full
        :class:`~repro.knowledge.bandwidth.Bandwidth`.
    t:
        Maximum tolerated prior-to-posterior distance.
    kernel:
        Kernel used for the prior estimation (default Epanechnikov).
    measure:
        Distance measure ``D[P, Q]``; defaults to the paper's smoothed-JS
        measure over the sensitive attribute's distance matrix.
    inference:
        ``"omega"`` or ``"exact"``.
    max_cells:
        Cell budget of the factored prior-estimation backend (see
        :class:`~repro.knowledge.backend.FactoredPriorBackend`; ``0`` selects
        the flat reference sweep).
    """

    name = "(B,t)-privacy"

    def __init__(
        self,
        b: float | Bandwidth,
        t: float,
        *,
        kernel: str = "epanechnikov",
        measure: DistanceMeasure | None = None,
        inference: str = "omega",
        smoothing_bandwidth: float = 0.5,
        max_cells: int = DEFAULT_MAX_CELLS,
    ):
        if not 0.0 <= t <= 1.0:
            raise PrivacyModelError("t must lie in [0, 1]")
        if inference not in {"omega", "exact"}:
            raise PrivacyModelError("inference must be 'omega' or 'exact'")
        self.b = b
        self.t = float(t)
        self.kernel = kernel
        self.inference = inference
        self.max_cells = int(max_cells)
        self.smoothing_bandwidth = float(smoothing_bandwidth)
        self.measure = measure
        self._priors: PriorBeliefs | None = None
        self._sensitive_codes: np.ndarray | None = None
        self._domain_size: int | None = None
        # Per-group risk memo for one partition run: Mondrian re-examines the
        # same candidate groups (and every skyline point sees the same split),
        # so cache by the group's index bytes.  Reset whenever priors change,
        # and bounded so long-lived prepared models cannot grow without limit.
        self._risk_cache: dict[bytes, float] = {}
        self._risk_cache_limit = 100_000
        self.risk_evaluations = 0
        self.risk_cache_hits = 0
        self.risk_rows = 0
        self.risk_combinations = 0

    # -- preparation -----------------------------------------------------------------
    def prepare(self, table: MicrodataTable) -> None:
        if self._priors is None:
            # Priors may have been injected with set_priors (to share one kernel
            # estimation across several models); only estimate when absent.
            # Estimation runs through the factored contraction backend.
            self._priors = kernel_prior(
                table, self.b, kernel=self.kernel, max_cells=self.max_cells
            )
        self._sensitive_codes = table.sensitive_codes()
        self._domain_size = table.sensitive_domain().size
        self._risk_cache.clear()
        if self.measure is None:
            matrix = attribute_distance_matrix(table.sensitive_domain())
            self.measure = SmoothedJSDivergence(
                distance_matrix=matrix, bandwidth=self.smoothing_bandwidth, kernel=self.kernel
            )

    def set_priors(self, priors: PriorBeliefs, sensitive_codes: np.ndarray, domain_size: int) -> None:
        """Inject precomputed priors (used to share one estimation across models)."""
        self._priors = priors
        self._sensitive_codes = np.asarray(sensitive_codes, dtype=np.int64)
        self._domain_size = int(domain_size)
        self._risk_cache.clear()

    def update_priors(
        self,
        priors: PriorBeliefs,
        sensitive_codes: np.ndarray,
        domain_size: int,
        *,
        previous_of: np.ndarray | None = None,
    ) -> np.ndarray:
        """Replace the priors of a changed table, keeping still-valid risk memos.

        This is the streaming entry point.  Without ``previous_of`` the table
        *grew*: the new ``priors`` cover the previous rows (same order) plus
        any appended rows.  With ``previous_of`` - an int array mapping every
        new row to its position in the previously prepared table (``-1`` for
        rows with no counterpart) - the table shrank or was corrected in
        place, and risk memos are *remapped* into the new index space (a memo
        survives when every member row survives clean).  Either way, instead
        of dropping the whole memo - as :meth:`set_priors` does - only
        entries containing a changed row are invalidated, so re-checking
        untouched groups stays a memo hit.

        Returns a boolean mask over the *new* table: ``True`` for rows with
        no previous counterpart and for rows whose prior distribution or
        sensitive code changed (the "dirty" rows whose group risks may
        differ).  Without previous priors this degrades to
        :meth:`set_priors` and every row is dirty.
        """
        new_codes = np.asarray(sensitive_codes, dtype=np.int64)
        n_new = priors.n_rows
        if previous_of is not None:
            return self._update_priors_remapped(
                priors, new_codes, domain_size, np.asarray(previous_of, dtype=np.int64)
            )
        if (
            self._priors is None
            or self._priors.n_rows > n_new
            or self._sensitive_codes is None
            or self._domain_size != int(domain_size)
            or not np.array_equal(self._sensitive_codes, new_codes[: self._priors.n_rows])
        ):
            self.set_priors(priors, new_codes, domain_size)
            return np.ones(n_new, dtype=bool)
        n_previous = self._priors.n_rows
        dirty = np.ones(n_new, dtype=bool)
        previous_rows = np.arange(n_previous)
        dirty[:n_previous] = (
            priors.rows(previous_rows) != self._priors.rows(previous_rows)
        ).any(axis=1)
        self._priors = priors
        self._sensitive_codes = new_codes
        self._domain_size = int(domain_size)
        if dirty.any() and self._risk_cache:
            # One vectorised pass over the concatenated keys finds the memos
            # holding a dirty row.
            keys = list(self._risk_cache)
            lengths = np.fromiter((len(key) // 8 for key in keys), dtype=np.int64, count=len(keys))
            members = np.frombuffer(b"".join(keys), dtype=np.int64)
            stale = np.logical_or.reduceat(dirty[members], np.cumsum(lengths) - lengths)
            self._risk_cache = {
                key: self._risk_cache[key] for key, drop in zip(keys, stale) if not drop
            }
        return dirty

    def _update_priors_remapped(
        self,
        priors: PriorBeliefs,
        new_codes: np.ndarray,
        domain_size: int,
        previous_of: np.ndarray,
    ) -> np.ndarray:
        """The remapped (deletion/correction) arm of :meth:`update_priors`."""
        n_new = priors.n_rows
        if (
            self._priors is None
            or self._sensitive_codes is None
            or self._domain_size != int(domain_size)
            or previous_of.shape != (n_new,)
            or (previous_of.size and previous_of.max() >= self._priors.n_rows)
        ):
            self.set_priors(priors, new_codes, domain_size)
            return np.ones(n_new, dtype=bool)
        n_previous = self._priors.n_rows
        dirty = previous_of < 0
        surviving = np.flatnonzero(~dirty)
        survivors_previous = previous_of[surviving]
        dirty[surviving] = (
            priors.rows(surviving) != self._priors.rows(survivors_previous)
        ).any(axis=1) | (new_codes[surviving] != self._sensitive_codes[survivors_previous])
        # Remap still-valid memos into the new index space: a memo survives
        # when every member row survives clean (keys stay sorted because the
        # old -> new map is monotone on survivors).  One vectorised pass over
        # the concatenated keys decides survival; only surviving entries pay
        # a per-entry re-encode - and none do when the map is the identity
        # (in-place corrections), where keys cannot change.
        current_of = np.full(n_previous, -1, dtype=np.int64)
        current_of[survivors_previous] = surviving
        if self._risk_cache:
            keys = list(self._risk_cache)
            lengths = np.fromiter(
                (len(key) // 8 for key in keys), dtype=np.int64, count=len(keys)
            )
            old_indices = np.frombuffer(b"".join(keys), dtype=np.int64)
            in_range = (old_indices >= 0) & (old_indices < n_previous)
            new_indices = np.where(
                in_range, current_of[np.where(in_range, old_indices, 0)], -1
            )
            alive = new_indices >= 0
            alive &= ~dirty[np.where(alive, new_indices, 0)]
            offsets = np.zeros(len(keys), dtype=np.int64)
            np.cumsum(lengths[:-1], out=offsets[1:])
            entry_alive = np.minimum.reduceat(alive.astype(np.int8), offsets).astype(bool)
            identity = n_new == n_previous and bool(
                (previous_of == np.arange(n_previous)).all()
            )
            if identity:
                self._risk_cache = {
                    key: self._risk_cache[key]
                    for key, ok in zip(keys, entry_alive)
                    if ok
                }
            else:
                bounds = np.append(offsets, old_indices.size)
                self._risk_cache = {
                    new_indices[bounds[position] : bounds[position + 1]].tobytes():
                        self._risk_cache[key]
                    for position, key in enumerate(keys)
                    if entry_alive[position]
                }
        self._priors = priors
        self._sensitive_codes = new_codes
        self._domain_size = int(domain_size)
        return dirty

    @property
    def has_priors(self) -> bool:
        """Whether priors are already available (estimated or injected)."""
        return self._priors is not None

    @property
    def priors(self) -> PriorBeliefs:
        """The adversary's prior beliefs (available after :meth:`prepare`)."""
        if self._priors is None:
            raise PrivacyModelError("(B,t)-privacy is not prepared; call prepare(table) first")
        return self._priors

    # -- evaluation -------------------------------------------------------------------
    def _require_prepared(self) -> None:
        if self._priors is None or self._sensitive_codes is None or self._domain_size is None:
            raise PrivacyModelError("(B,t)-privacy is not prepared; call prepare(table) first")
        if self.measure is None:
            raise PrivacyModelError("(B,t)-privacy has no distance measure configured")

    def group_risks(self, groups: Sequence[np.ndarray]) -> np.ndarray:
        """Maximum prior-to-posterior distance of every candidate group, batched.

        All uncached groups go through one flat posterior pass (the batched
        Omega kernel) and one vectorised measure evaluation, so checking a
        Mondrian split's two halves - or one group against every skyline
        point - costs a single call.  Both run once per distinct (group, QI
        combination) pair, since members sharing a combination share their
        posterior; ``risk_rows`` and ``risk_combinations`` count the members
        and pairs evaluated.  Groups may overlap (candidate splits are
        alternatives, not a partition).
        """
        self._require_prepared()
        arrays = [np.asarray(group, dtype=np.int64) for group in groups]
        risks = np.empty(len(arrays), dtype=np.float64)
        pending: list[tuple[int, np.ndarray, bytes]] = []
        for position, indices in enumerate(arrays):
            if indices.size == 0:
                raise PrivacyModelError("a group must contain at least one tuple")
            key = indices.tobytes()
            cached = self._risk_cache.get(key)
            if cached is not None:
                self.risk_cache_hits += 1
                risks[position] = cached
            else:
                pending.append((position, indices, key))
        if not pending:
            return risks
        members = np.concatenate([indices for _, indices, _ in pending])
        n_rows = self._sensitive_codes.shape[0]
        if members.min() < 0 or members.max() >= n_rows:
            raise PrivacyModelError(
                f"group indices must lie in [0, {n_rows}); got values in "
                f"[{members.min()}, {members.max()}]"
            )
        offsets = np.cumsum([0] + [indices.size for _, indices, _ in pending[:-1]], dtype=np.int64)
        pairs = self._priors.index.pairs(members, offsets)
        self.risk_evaluations += len(pending)
        self.risk_rows += members.size
        self.risk_combinations += pairs.n_pairs
        distances = pair_distances(
            self._priors.combinations, self._sensitive_codes, pairs, self.measure,
            method=self.inference,
        )
        group_max = np.maximum.reduceat(distances, pairs.pair_offsets)
        if len(self._risk_cache) + len(pending) > self._risk_cache_limit:
            self._risk_cache.clear()
        for (position, _, key), value in zip(pending, group_max):
            risk = float(value)
            self._risk_cache[key] = risk
            risks[position] = risk
        return risks

    def group_risk(self, group_indices: np.ndarray) -> float:
        """Maximum prior-to-posterior distance over the tuples of one group."""
        return float(self.group_risks([group_indices])[0])

    def is_satisfied(self, group_indices: np.ndarray) -> bool:
        return self.group_risk(group_indices) <= self.t + 1e-12

    def is_satisfied_batch(self, groups: Sequence[np.ndarray]) -> list[bool]:
        return [bool(risk <= self.t + 1e-12) for risk in self.group_risks(groups)]

    def describe(self) -> str:
        b_text = self.b.describe() if isinstance(self.b, Bandwidth) else f"b={self.b:g}"
        return f"{b_text}, t={self.t:g}"


class SkylineBTPrivacy(PrivacyModel):
    """The skyline (B,t)-privacy principle (Definition 2).

    The data publisher specifies a set of ``(B_i, t_i)`` pairs; a group is
    acceptable only if it satisfies (B_i, t_i)-privacy for every pair.  Because
    the worst-case disclosure risk varies continuously with ``B``
    (Section V-C), a small, well-chosen skyline protects against adversaries of
    every knowledge level.
    """

    name = "skyline-(B,t)-privacy"

    def __init__(self, skyline: list[tuple[float | Bandwidth, float]], **bt_options):
        if not skyline:
            raise PrivacyModelError("a skyline requires at least one (B, t) pair")
        self.points = [BTPrivacy(b, t, **bt_options) for b, t in skyline]

    def prepare(self, table: MicrodataTable) -> None:
        for point in self.points:
            point.prepare(table)

    def components(self):
        for point in self.points:
            yield from point.components()

    def is_satisfied(self, group_indices: np.ndarray) -> bool:
        return all(point.is_satisfied(group_indices) for point in self.points)

    def is_satisfied_batch(self, groups: Sequence[np.ndarray]) -> list[bool]:
        verdicts = np.ones(len(groups), dtype=bool)
        for point in self.points:
            # Evaluate the still-alive groups; a group rejected by one point
            # needs no further checks.
            alive = np.flatnonzero(verdicts)
            if alive.size == 0:
                break
            point_verdicts = point.is_satisfied_batch([groups[i] for i in alive])
            verdicts[alive] = point_verdicts
        return verdicts.tolist()

    def group_risk(self, group_indices: np.ndarray) -> float:
        """Maximum risk over all skyline points (normalised by each point's ``t``)."""
        return max(point.group_risk(group_indices) / point.t for point in self.points)

    def describe(self) -> str:
        return "; ".join(point.describe() for point in self.points)


class CompositeModel(PrivacyModel):
    """Conjunction of several privacy requirements (all must hold).

    The paper enforces k-anonymity *together with* each attribute-disclosure
    model; this class expresses that composition.
    """

    name = "composite"

    def __init__(self, models: list[PrivacyModel]):
        if not models:
            raise PrivacyModelError("a composite model requires at least one model")
        self.models = list(models)

    def prepare(self, table: MicrodataTable) -> None:
        for model in self.models:
            model.prepare(table)

    def components(self):
        for model in self.models:
            yield from model.components()

    def is_satisfied(self, group_indices: np.ndarray) -> bool:
        return all(model.is_satisfied(group_indices) for model in self.models)

    def is_satisfied_batch(self, groups: Sequence[np.ndarray]) -> list[bool]:
        verdicts = np.ones(len(groups), dtype=bool)
        for model in self.models:
            alive = np.flatnonzero(verdicts)
            if alive.size == 0:
                break
            verdicts[alive] = model.is_satisfied_batch([groups[i] for i in alive])
        return verdicts.tolist()

    def describe(self) -> str:
        return " AND ".join(f"{model.name}({model.describe()})" for model in self.models)
