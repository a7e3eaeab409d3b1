"""The incremental publication engine for full-lifecycle microdata streams.

A production publisher does not receive its table once: rows keep arriving,
rows are *retracted* (GDPR-style erasure) and rows are *corrected* (late
fixes).  Re-running the whole estimate -> partition -> audit pipeline per
mutation throws away almost everything the previous run computed.  The
paper's risk-continuity result (worst-case disclosure risk varies
continuously with the background-knowledge bandwidth ``B``, Section V-C)
has an exact finite-sample counterpart that this engine exploits: with the
paper's compact-support kernels, changing rows changes the estimated prior
belief only at quasi-identifier combinations within kernel range of a
changed row, so a previously satisfied release is only *threatened where
counts actually changed*.

:class:`IncrementalPublisher` holds a versioned release and, per
:meth:`append` / :meth:`delete` / :meth:`update` batch:

1. folds the batch into the factored kernel-prior state as **exact**
   count-tensor deltas (additive for appends, negative for retractions,
   paired for corrections - no ``O(n^2 d)`` re-sweep; see
   :mod:`repro.knowledge.backend`);
2. computes the exact set of **dirty rows** - rows without a previous
   counterpart plus rows whose prior distribution or sensitive code changed
   for some configured adversary (a bitwise comparison, so no false "clean"
   verdicts);
3. routes appended/corrected rows down the recorded Mondrian split tree to
   their leaf groups (a corrected QI value may cross a split boundary),
   shrinks leaves that lost retracted rows, re-checks only dirty leaves
   (one batched ``is_satisfied_batch`` call, reusing the (B,t) model's
   surviving - and, after deletions, index-remapped - risk memos), locally
   re-splits leaves that grew and merges-up/rebuilds regions around leaves
   that now violate the requirement (or emptied entirely) - every untouched
   subtree is reused verbatim;
4. re-audits the release in the skyline engine's dirty-group mode, copying
   the risks of clean surviving groups from the previous version's report
   through the row remap.

Deferred maintenance - rows joining grown groups below the
``refine_factor`` trigger, retracted rows shrinking groups, corrected rows
re-routed in place - accumulates **drift**; once it reaches
``compact_drift`` of the current table the next version publishes through a
full-refine **compaction** (a fresh partition; priors and audits stay
incremental) and the drift resets.

The published groups therefore always satisfy the privacy requirement under
priors estimated from the *current* table, and the maintained audit risks are
numerically identical to a from-scratch audit of the same release (the
equivalence the stream tests pin to ``<= 1e-12``).

The partition itself is maintained, not recomputed: it is a valid Mondrian
refinement lineage, generally *not* the same tree a from-scratch run on the
current table would cut (medians move with the data), which is the usual -
and here explicit, ``compact_drift``-bounded - trade-off of incremental
Mondrian publishing.

With ``store_path=...`` every version persists to a disk-backed
:class:`~repro.stream.store.ReleaseStore` and :meth:`IncrementalPublisher.resume`
reconstructs a publisher mid-stream (identical continuation, historical
version serving).
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.anonymize.mondrian import MondrianAnonymizer
from repro.anonymize.partition import AnonymizedRelease
from repro.audit.engine import SkylineAuditEngine, SkylineAuditReport
from repro.data.table import MicrodataTable
from repro.exceptions import AnonymizationError, DataError, StreamError
from repro.knowledge.backend import EstimatorConfig, resolve_config
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.prior import BatchedKernelPriorEstimator, PriorBeliefs
from repro.obs.tracing import Tracer
from repro.privacy.measures import DistanceMeasure, sensitive_distance_measure
from repro.privacy.models import BTPrivacy, CompositeModel, KAnonymity, PrivacyModel
from repro.stream.store import ReleaseStore, StreamDelta, StreamVersion, VersionCache
from repro.stream.tree import PartitionTree

#: The mutation kinds :meth:`IncrementalPublisher.publish_coalesced` accepts.
OPERATION_KINDS = ("append", "delete", "update")


class _CoalescingStore:
    """A write buffer standing in for the real store during one coalesced tick.

    :meth:`IncrementalPublisher.publish_coalesced` applies a tick's operations
    through the normal :meth:`~IncrementalPublisher.append` /
    :meth:`~IncrementalPublisher.delete` / :meth:`~IncrementalPublisher.update`
    paths, each of which records a version.  Buffering those intermediates
    keeps version numbering and ``latest()`` consistent for the mutation code
    while nothing hits the real lineage (``path`` is ``None``, so no
    intermediate state payload is even built); only the final state of the
    tick is then published to the real store.
    """

    # The publisher persists resume state only for disk-backed stores;
    # intermediates must never reach disk.
    path = None

    def __init__(self, real: ReleaseStore):
        self._real = real
        self.versions: list[StreamVersion] = []
        self.state: dict[str, Any] | None = real.state

    def __len__(self) -> int:
        return len(self._real) + len(self.versions)

    def add(self, version: StreamVersion, *, state: dict[str, Any] | None = None) -> StreamVersion:
        if version.version != len(self):
            raise StreamError(
                f"version {version.version} breaks the lineage; expected {len(self)}"
            )
        self.versions.append(version)
        return version

    def latest(self) -> StreamVersion:
        if self.versions:
            return self.versions[-1]
        return self._real.latest()


class IncrementalPublisher:
    """Publish an append-only microdata stream under one privacy requirement.

    Parameters
    ----------
    table:
        The seed table (version 0 is published from it by :meth:`publish`).
    model:
        The attribute-disclosure requirement (a
        :class:`~repro.privacy.models.PrivacyModel` instance; name resolution
        lives in :meth:`repro.api.session.Session.stream`).
    skyline:
        ``(B_i, t_i)`` audit adversaries.  Defaults to the ``(b, t)`` pairs of
        the model's (B,t) components; pass an empty list to skip auditing.
    k:
        Optional k-anonymity requirement conjoined with ``model`` (as the
        paper does against identity disclosure).
    kernel / method / split_strategy / max_cells:
        Passed through to the prior estimator, the audit engine and Mondrian.
    jobs:
        Worker threads for the estimation backend's parallel contraction
        (``None`` resolves to ``REPRO_JOBS`` / ``os.cpu_count()``).  A
        runtime knob, deliberately *not* persisted in the stream state:
        resuming a shard at a different thread count produces bitwise
        identical versions.
    refine_factor:
        Utility/throughput dial for grown groups.  A group that satisfies the
        requirement after an append re-enters the (expensive) split search
        only once it holds at least ``refine_factor`` times the rows it had
        when the search last declared it unsplittable; until then the rows
        simply join the group.  ``1.0`` re-searches every grown group on every
        batch; the default amortises the search so a group is never more than
        ~``refine_factor`` times coarser than a fresh run would leave it.
        Privacy is unaffected - grown groups are always re-checked.
    compact_drift:
        Periodic full-refine compaction threshold.  Deferred maintenance
        (rows joining grown groups below the ``refine_factor`` trigger,
        retracted rows shrinking groups, corrected rows re-routed in place)
        accumulates *drift* - utility the maintained partition leaves on the
        table relative to a fresh run.  Once the accumulated drifted-row
        count reaches ``compact_drift`` times the current table size, the
        next batch is published through a full re-partition (priors and
        audits stay incremental), resetting the drift.  ``float("inf")``
        disables compaction.
    measure:
        Audit distance measure (defaults to the paper's smoothed-JS measure).
    distance_matrices:
        Optional precomputed attribute distance matrices to share (e.g. from a
        :class:`~repro.api.session.Session`).
    store_path:
        Optional directory for a disk-backed :class:`ReleaseStore`: every
        published version is persisted (JSON-lines lineage + one ``.npz``
        per release), and :meth:`resume` can reconstruct the publisher from
        the directory to continue the stream or serve historical versions.
    tracer:
        An :class:`~repro.obs.tracing.Tracer`.  Every publication runs under
        a root span (``publish.append``, ``publish.full``, ...) with one
        child span per stage, and the recorded ``StreamDelta.timings`` are
        *derived from those spans* - the span tree is the source of truth,
        the flat dict its byte-compatible projection.  Defaults to an
        always-on tracer (span overhead is gated at <= 5% of publish time in
        ``BENCH_stream.json``); pass ``Tracer(enabled=False)`` to disable
        tree retention - stage timings are then taken from detached timers,
        so published versions and lineage keep the exact same shape.

    Appended batches with values outside the seed domains force a full
    rebuild (codes, distance matrices and priors all shift); batches inside
    the domains take the incremental path.  The same holds for corrections
    that introduce values outside the current domains.
    """

    def __init__(
        self,
        table: MicrodataTable,
        model: PrivacyModel,
        *,
        skyline: Iterable[tuple[float | Bandwidth, float]] | None = None,
        k: int | None = None,
        config: EstimatorConfig | None = None,
        kernel: str | None = None,
        method: str = "omega",
        split_strategy: str = "widest",
        max_cells: int | None = None,
        jobs: int | None = None,
        refine_factor: float = 1.5,
        compact_drift: float = 0.5,
        measure: DistanceMeasure | None = None,
        distance_matrices: dict[str, np.ndarray] | None = None,
        store_path: str | Path | None = None,
        version_cache: VersionCache | None = None,
        tracer: Tracer | None = None,
    ):
        if method not in {"omega", "exact"}:
            raise StreamError("method must be 'omega' or 'exact'")
        if refine_factor < 1.0:
            raise StreamError("refine_factor must be at least 1.0")
        if not compact_drift > 0.0:
            raise StreamError("compact_drift must be positive (inf disables compaction)")
        self.refine_factor = float(refine_factor)
        self.compact_drift = float(compact_drift)
        self._table = table
        self.model = model
        # One EstimatorConfig carries every estimation knob end to end; the
        # kernel/max_cells/jobs keywords are back-compat overrides on top.
        self.config = resolve_config(config, kernel=kernel, max_cells=max_cells, jobs=jobs)
        self.kernel = self.config.kernel
        self.method = method
        self.max_cells = int(self.config.max_cells)
        self.jobs = self.config.jobs
        self._k = k
        self._requirement: PrivacyModel = (
            CompositeModel([KAnonymity(k), model]) if k is not None else model
        )
        self._bt_components = [
            component
            for component in self._requirement.components()
            if isinstance(component, BTPrivacy)
        ]
        if skyline is None:
            points = [(component.b, component.t) for component in self._bt_components]
        else:
            points = list(skyline)
        self._points: list[tuple[Bandwidth, float]] = [
            (self._bandwidth(b), float(t)) for b, t in points
        ]
        self._measure = measure
        self._mondrian = MondrianAnonymizer(
            self._requirement, split_strategy=split_strategy
        )
        self._estimator = BatchedKernelPriorEstimator(
            config=self.config,
            distance_matrices=distance_matrices,
            incremental=True,
        )
        self.split_strategy = split_strategy
        self.tracer = tracer if tracer is not None else Tracer()
        self.store = (
            ReleaseStore(path=store_path, schema=table.schema, version_cache=version_cache)
            if store_path is not None
            else ReleaseStore(version_cache=version_cache)
        )
        self._tree: PartitionTree | None = None
        self._audit_priors: list[PriorBeliefs] = []
        self._drift_rows = 0
        # Set while a mutation is in flight and cleared when its version is
        # recorded: a raise mid-mutation (e.g. the documented
        # AnonymizationError when the whole table fails) leaves the
        # maintained state half-updated, so further publishing must refuse
        # loudly instead of silently emitting a wrong version.
        self._inconsistent = False

    # -- small helpers ----------------------------------------------------------------
    @contextlib.contextmanager
    def _publish_span(self, kind: str, **attributes: Any):
        """The root span of one publication, with the tracer made ambient.

        Activation lets instrumentation too deep to thread a tracer through
        (the prior backend's contractions, the audit engine's per-adversary
        loop) nest under this publication via
        :func:`repro.obs.tracing.current_tracer`.
        """
        with self.tracer.activate():
            with self.tracer.timed(f"publish.{kind}", **attributes) as span:
                yield span

    def _bandwidth(self, b: float | Bandwidth) -> Bandwidth:
        if isinstance(b, Bandwidth):
            return b
        return Bandwidth.uniform(self._table.quasi_identifier_names, float(b))

    @property
    def table(self) -> MicrodataTable:
        """The current (grown) table."""
        return self._table

    @property
    def latest(self) -> StreamVersion:
        """The most recently published version."""
        return self.store.latest()

    @property
    def skyline(self) -> list[tuple[Bandwidth, float]]:
        """The audit skyline (empty when auditing is disabled)."""
        return list(self._points)

    @property
    def drift_rows(self) -> int:
        """Deferred-maintenance drift accumulated since the last full refine."""
        return self._drift_rows

    @property
    def poisoned(self) -> bool:
        """Whether a previous batch failed mid-publication (state between versions).

        A poisoned publisher refuses further mutations (see
        :meth:`_begin_mutation`); its store still serves every published
        version, and a disk-backed stream continues via :meth:`resume`.
        """
        return self._inconsistent

    def close(self) -> None:
        """Release the store's publisher lock (see :meth:`ReleaseStore.close`)."""
        self.store.close()

    def describe(self) -> str:
        """One-line description of the configured stream."""
        skyline = "; ".join(f"({b.describe()}, t={t:g})" for b, t in self._points)
        return f"{self._requirement.describe()} | skyline [{skyline or 'none'}]"

    def _unique_bandwidths(self) -> list[Bandwidth]:
        seen: dict[tuple, Bandwidth] = {}
        for component in self._bt_components:
            bandwidth = self._bandwidth(component.b)
            seen.setdefault(bandwidth.items(), bandwidth)
        for bandwidth, _ in self._points:
            seen.setdefault(bandwidth.items(), bandwidth)
        return list(seen.values())

    def _priors_by_bandwidth(self) -> dict[tuple, PriorBeliefs]:
        bandwidths = self._unique_bandwidths()
        if not bandwidths:
            return {}
        priors = self._estimator.prior_for_table(bandwidths)
        return {b.items(): p for b, p in zip(bandwidths, priors)}

    # -- resuming from a disk-backed store ---------------------------------------------
    @classmethod
    def resume(
        cls,
        path: str | Path,
        *,
        schema,
        model: PrivacyModel,
        config: EstimatorConfig | None = None,
        measure: DistanceMeasure | None = None,
        distance_matrices: dict[str, np.ndarray] | None = None,
        jobs: int | None = None,
        version_cache: VersionCache | None = None,
        tracer: Tracer | None = None,
    ) -> "IncrementalPublisher":
        """Reconstruct a publisher from a disk-backed store and continue the stream.

        ``schema`` decodes the persisted tables; ``model`` must be (a fresh
        instance of) the attribute-disclosure model the stream was created
        with - the store records the full requirement's description and
        refuses a mismatch.  The returned publisher holds the loaded version
        lineage (so it can serve every historical release), the recorded
        split tree and accumulated compaction drift, and freshly refit
        priors; subsequent :meth:`append` / :meth:`delete` / :meth:`update`
        calls continue the stream where it stopped, producing versions
        identical to an uninterrupted publisher.
        """
        store = ReleaseStore(path=path, schema=schema, version_cache=version_cache)
        if not len(store):
            raise StreamError(f"the release store at {path} holds no versions")
        if store.state is None:
            raise StreamError(
                f"the release store at {path} holds no publisher state (state.json)"
            )
        state = store.state
        table = store.latest().release.table
        try:
            skyline = [
                (Bandwidth({name: float(value) for name, value in items}), float(t))
                for items, t in state["skyline"]
            ]
            publisher = cls(
                table,
                model,
                skyline=skyline,
                k=state["k"],
                config=config,
                kernel=state["kernel"],
                method=state["method"],
                split_strategy=state["split_strategy"],
                max_cells=int(state["max_cells"]),
                jobs=jobs,
                refine_factor=float(state["refine_factor"]),
                compact_drift=float(state["compact_drift"]),
                measure=measure,
                distance_matrices=distance_matrices,
                tracer=tracer,
            )
            recorded_model = state["model"]
            tree_payload = state["tree"]
            drift_rows = int(state["drift_rows"])
        except (KeyError, TypeError, ValueError) as error:
            raise StreamError(
                f"corrupt release store: state.json cannot be decoded ({error})"
            ) from None
        if publisher._requirement.describe() != recorded_model:
            raise StreamError(
                f"model mismatch: the store was published under {recorded_model!r}, "
                f"resume() was given {publisher._requirement.describe()!r}"
            )
        if tree_payload is None:
            raise StreamError("corrupt release store: state.json records no partition tree")
        tree = PartitionTree(PartitionTree.from_jsonable(tree_payload))
        # The recorded tree's leaves must be exactly the latest release's
        # groups: a crash between the lineage append and the state.json
        # replace leaves the two files one version apart, and continuing
        # from a stale tree would publish wrong (or out-of-range) groups.
        latest_groups = store.latest().release.groups
        leaves = tree.leaves()
        if len(leaves) != len(latest_groups) or not all(
            np.array_equal(leaf.indices, group)
            for leaf, group in zip(leaves, latest_groups)
        ):
            raise StreamError(
                f"the release store at {path} was interrupted mid-persist: "
                "state.json's partition tree does not match the latest "
                "version's groups, so the stream cannot be continued "
                "(historical versions remain servable via ReleaseStore)"
            )
        publisher.store = store
        publisher._tree = tree
        publisher._drift_rows = drift_rows
        # Rebuild the estimation state the incremental paths maintain: a
        # fresh fit on the current table (the maintained state it replaces
        # matches a from-scratch fit to round-off).
        if publisher._measure is None and publisher._points:
            publisher._measure = sensitive_distance_measure(table)
        publisher._estimator.fit(table)
        prior_map = publisher._priors_by_bandwidth()
        codes = table.sensitive_codes()
        domain_size = table.sensitive_domain().size
        for component in publisher._bt_components:
            component.set_priors(
                prior_map[publisher._bandwidth(component.b).items()], codes, domain_size
            )
        publisher._requirement.prepare(table)
        if publisher._points:
            publisher._audit_priors = [
                prior_map[bandwidth.items()] for bandwidth, _ in publisher._points
            ]
        return publisher

    @classmethod
    def publish_to_shard(
        cls,
        path: str | Path,
        operations: Sequence[tuple[str, Any]],
        *,
        schema,
        model: PrivacyModel,
        cached: "IncrementalPublisher | None" = None,
        measure: DistanceMeasure | None = None,
        distance_matrices: dict[str, np.ndarray] | None = None,
        jobs: int | None = None,
        tracer: Tracer | None = None,
    ) -> tuple["IncrementalPublisher", StreamVersion]:
        """Process-safe publish entrypoint: adopt a shard and publish one tick.

        This is the unit of work the serving daemon dispatches to publication
        worker processes: given a disk shard, one coalesced tick's operations
        and the stream's model, it :meth:`resume`\\ s the shard (taking
        ``store.lock``; a stale lock left by a dead worker is stolen),
        publishes the tick with :meth:`publish_coalesced` and returns
        ``(publisher, version)``.  Pass the publisher back as ``cached`` on
        the next call for the same shard to skip the resume - it is reused
        while healthy and closed (releasing the lock) when poisoned or bound
        to a different shard.

        On failure the lock is never left behind by an unusable publisher: a
        poisoned publisher - and any publisher resumed inside this call - is
        closed before the error propagates, while a still-healthy ``cached``
        publisher stays open for reuse.  The raised exception carries a
        ``shard_poisoned`` attribute (``True`` when the shard's maintained
        state advanced past its published lineage, i.e. the same condition
        that poisons an in-process stream) so the dispatching host can decide
        whether to poison the stream.
        """
        path = Path(path)
        publisher = cached
        if publisher is not None and (
            publisher.poisoned or publisher.store.path != path
        ):
            publisher.close()
            publisher = None
        fresh = publisher is None
        if fresh:
            try:
                publisher = cls.resume(
                    path,
                    schema=schema,
                    model=model,
                    measure=measure,
                    distance_matrices=distance_matrices,
                    jobs=jobs,
                    tracer=tracer,
                )
            except BaseException as error:
                error.shard_poisoned = True
                raise
        try:
            version = publisher.publish_coalesced(list(operations))
        except BaseException as error:
            error.shard_poisoned = publisher.poisoned
            if publisher.poisoned or fresh:
                publisher.close()
            raise
        return publisher, version

    # -- initial publication ----------------------------------------------------------
    def publish(self) -> StreamVersion:
        """Publish version 0 from the seed table."""
        if len(self.store):
            raise StreamError(
                "the stream is already published; use append()/delete()/update() "
                "(or IncrementalPublisher.resume to continue a stored stream)"
            )
        self._begin_mutation()
        return self._publish_full(self._table, appended=0, rebuild=False)

    def _publish_full(
        self,
        table: MicrodataTable,
        *,
        appended: int,
        rebuild: bool,
        deleted: int = 0,
        updated: int = 0,
        table_seconds: float | None = None,
    ) -> StreamVersion:
        with self._publish_span("full", rebuild=rebuild) as publish_span:
            self._table = table
            self._drift_rows = 0  # a fresh partition leaves no deferred maintenance
            if rebuild:
                # Domains changed: every code-indexed artefact is stale.
                self._estimator = BatchedKernelPriorEstimator(
                    config=self.config,
                    incremental=True,
                )
                self._measure = None
                for component in self._bt_components:
                    component.measure = None
            if self._measure is None and self._points:
                self._measure = sensitive_distance_measure(table)
            with self.tracer.timed("prior", rows=table.n_rows) as prior_span:
                self._estimator.fit(table)
                prior_map = self._priors_by_bandwidth()
                codes = table.sensitive_codes()
                domain_size = table.sensitive_domain().size
                for component in self._bt_components:
                    component.set_priors(
                        prior_map[self._bandwidth(component.b).items()],
                        codes,
                        domain_size,
                    )
                self._requirement.prepare(table)

            with self.tracer.timed("partition") as partition_span:
                tree_root = self._mondrian.partition_tree(table, prepare=False)
                self._tree = PartitionTree(tree_root)
                groups = [leaf.indices for leaf in self._tree.leaves()]
                release = AnonymizedRelease(
                    table, groups, method=f"stream[{self._requirement.describe()}]"
                )
            partition_span.annotate(groups=len(groups))

            with self.tracer.timed("audit", adversaries=len(self._points)) as audit_span:
                report = None
                if self._points:
                    engine = self._engine(table, prior_map)
                    report = engine.audit(groups)
                    self._audit_priors = [
                        prior_map[bandwidth.items()] for bandwidth, _ in self._points
                    ]
            timings = {
                "prior_seconds": prior_span.duration_s,
                "partition_seconds": partition_span.duration_s,
                "audit_seconds": audit_span.duration_s,
            }
            if table_seconds is not None:
                # Recorded before persisting, so the disk lineage and the
                # in-memory version agree byte for byte.
                timings["table_seconds"] = table_seconds
            timings["total_seconds"] = time.perf_counter() - publish_span.start_s
            delta = StreamDelta(
                appended_rows=appended,
                deleted_rows=deleted,
                updated_rows=updated,
                reused_groups=0,
                rechecked_leaves=len(groups),
                refined_leaves=0,
                rebuilt_regions=1,
                rebuild=rebuild,
                audit_recomputed_groups=[len(groups)] * len(self._points),
                timings=timings,
            )
            version = self._add_version(release, report, delta)
            publish_span.annotate(version=version.version, rows=table.n_rows)
            return version

    def _add_version(
        self, release: AnonymizedRelease, report: SkylineAuditReport | None, delta: StreamDelta
    ) -> StreamVersion:
        """Record the next version in the store (persisting publisher state)."""
        version = self.store.add(
            StreamVersion(
                version=len(self.store), release=release, report=report, delta=delta
            ),
            # The state payload exists for disk-backed resume; serialising
            # the whole tree per version is wasted work on in-memory stores.
            state=self._state_payload() if self.store.path is not None else None,
        )
        self._inconsistent = False
        return version

    def _begin_mutation(self) -> None:
        """Refuse to mutate a publisher whose last batch failed mid-flight.

        The maintained state (table, priors, tree) updates in stages; when a
        batch raises after the first stage - most notably the documented
        :class:`~repro.exceptions.AnonymizationError` when even the whole
        table no longer satisfies the requirement - the publisher is left
        between versions.  The store still serves every published version,
        but further publishing requires a reconstructed publisher
        (:meth:`resume` from a disk-backed store, or a fresh one).
        """
        if self._inconsistent:
            raise StreamError(
                "a previous batch failed mid-publication and the maintained "
                "state is inconsistent; the store still serves published "
                "versions, but continue the stream from a reconstructed "
                "publisher (IncrementalPublisher.resume) instead"
            )
        self._inconsistent = True

    def _state_payload(self) -> dict[str, Any]:
        """Everything :meth:`resume` needs beyond the versions themselves."""
        return {
            "model": self._requirement.describe(),
            "skyline": [[list(b.items()), t] for b, t in self._points],
            "k": self._k,
            "kernel": self.kernel,
            "method": self.method,
            "split_strategy": self.split_strategy,
            "max_cells": self.max_cells,
            "refine_factor": self.refine_factor,
            "compact_drift": self.compact_drift,
            "drift_rows": self._drift_rows,
            "tree": PartitionTree.to_jsonable(self._tree.root) if self._tree else None,
        }

    def _engine(
        self, table: MicrodataTable, prior_map: dict[tuple, PriorBeliefs]
    ) -> SkylineAuditEngine:
        return SkylineAuditEngine(
            table,
            self._points,
            kernel=self.kernel,
            method=self.method,
            jobs=self.jobs,
            measure=self._measure,
            priors=[prior_map[bandwidth.items()] for bandwidth, _ in self._points],
        )

    # -- appending --------------------------------------------------------------------
    def _concatenate(
        self, batch: MicrodataTable | Sequence[Mapping[str, Any]]
    ) -> tuple[MicrodataTable, int, bool]:
        """The grown table, the number of appended rows, and a rebuild flag."""
        schema = self._table.schema
        if isinstance(batch, MicrodataTable):
            if tuple(batch.schema.names) != tuple(schema.names):
                raise StreamError("batch schema does not match the stream's schema")
            fresh = {name: batch.column(name) for name in schema.names}
        else:
            rows = list(batch)
            if not rows:
                raise StreamError("an append batch requires at least one row")
            fresh = {name: [row[name] for row in rows] for name in schema.names}
        appended = len(next(iter(fresh.values())))
        if appended == 0:
            raise StreamError("an append batch requires at least one row")
        try:
            return self._table.extend(fresh), appended, False
        except DataError:
            # A value outside the current domains: codes shift, full rebuild.
            columns = {
                name: np.concatenate(
                    [
                        self._table.column(name),
                        np.asarray(
                            fresh[name],
                            dtype=np.float64 if schema[name].is_numeric else object,
                        ),
                    ]
                )
                for name in schema.names
            }
            return MicrodataTable(schema, columns), appended, True

    def _component_dirty(
        self,
        component: PrivacyModel,
        table: MicrodataTable,
        n_previous: int,
        prior_map: dict[tuple, PriorBeliefs],
    ) -> np.ndarray:
        """Dirty-row mask of one requirement component (True = risk may change).

        (B,t) components are refreshed with the publisher's re-estimated
        priors; every other model declares its own invalidation semantics
        through :meth:`~repro.privacy.models.PrivacyModel.stream_update`
        (conservative all-dirty by default).
        """
        if isinstance(component, BTPrivacy):
            priors = prior_map[self._bandwidth(component.b).items()]
            return component.update_priors(
                priors, table.sensitive_codes(), table.sensitive_domain().size
            )
        return component.stream_update(table, n_previous)

    def _component_replace_dirty(
        self,
        component: PrivacyModel,
        table: MicrodataTable,
        previous_of: np.ndarray,
        prior_map: dict[tuple, PriorBeliefs],
    ) -> np.ndarray:
        """Dirty-row mask of one component after a delete/update batch.

        ``previous_of`` maps every current row to its previous position
        (``-1`` for rows with no counterpart); (B,t) components remap their
        risk memos through it, every other model answers through
        :meth:`~repro.privacy.models.PrivacyModel.stream_replace`.
        """
        if isinstance(component, BTPrivacy):
            priors = prior_map[self._bandwidth(component.b).items()]
            return component.update_priors(
                priors,
                table.sensitive_codes(),
                table.sensitive_domain().size,
                previous_of=previous_of,
            )
        return component.stream_replace(table, previous_of)

    def _compaction_due(self) -> bool:
        """Whether accumulated drift warrants a full-refine compaction."""
        return self._drift_rows >= self.compact_drift * self._table.n_rows

    def _audit_step(
        self,
        table: MicrodataTable,
        prior_map: dict[tuple, PriorBeliefs],
        groups: list[np.ndarray],
        previous: StreamVersion,
        previous_of: np.ndarray,
    ) -> tuple[SkylineAuditReport | None, list[int], float]:
        """Dirty-group re-audit: clean surviving groups keep their risks.

        A current row is dirty for an adversary when it has no previous
        counterpart, its sensitive code changed, or its prior row for that
        adversary changed (a bitwise comparison, so no false "clean"
        verdicts).
        """
        with self.tracer.timed("audit", adversaries=len(self._points)) as span:
            report: SkylineAuditReport | None = None
            audit_recomputed: list[int] = []
            if self._points:
                priors_list = [
                    prior_map[bandwidth.items()] for bandwidth, _ in self._points
                ]
                surviving = previous_of >= 0
                survivors_previous = previous_of[surviving]
                previous_codes = previous.release.table.sensitive_codes()
                codes = table.sensitive_codes()
                code_changed = np.ones(table.n_rows, dtype=bool)
                code_changed[surviving] = (
                    codes[surviving] != previous_codes[survivors_previous]
                )
                masks = []
                for previous_priors, priors in zip(self._audit_priors, priors_list):
                    mask = np.ones(table.n_rows, dtype=bool)
                    mask[surviving] = (
                        priors.rows(surviving) != previous_priors.rows(survivors_previous)
                    ).any(axis=1)
                    masks.append(mask | code_changed)
                engine = self._engine(table, prior_map)
                report = engine.audit_incremental(
                    groups,
                    previous_groups=previous.release.groups,
                    previous_report=previous.report,
                    dirty_rows=masks,
                    previous_of=previous_of,
                )
                audit_recomputed = list(report.delta["recomputed_groups"])
                self._audit_priors = priors_list
                span.annotate(recomputed_groups=audit_recomputed)
        return report, audit_recomputed, span.duration_s

    def _maintain_partition(
        self,
        table: MicrodataTable,
        dirty_leaves: list,
        members: Mapping[int, np.ndarray],
        routed: dict[int, np.ndarray],
    ) -> tuple[list, list, list, set, float, float]:
        """The shared local-surgery step of every incremental mutation.

        Re-checks the dirty leaves (one batched model call; empty members are
        unconditionally failing), merges-up/rebuilds regions around violated
        leaves, and locally re-splits or rejoins leaves that received routed
        rows (the ``refine_factor`` amortisation).  Returns ``(rebuild_nodes,
        refine, rejoined, under_rebuild, recheck_seconds,
        repartition_seconds)``; drift accounting stays with the callers
        (appends count rejoined routed rows, deletions/corrections count
        their batch size up front).
        """
        with self.tracer.timed("recheck", leaves=len(dirty_leaves)) as recheck_span:
            checkable = [leaf for leaf in dirty_leaves if members[id(leaf)].size]
            verdicts = dict(
                zip(
                    (id(leaf) for leaf in checkable),
                    self._requirement.is_satisfied_batch(
                        [members[id(leaf)] for leaf in checkable]
                    ),
                )
            )

        with self.tracer.timed("repartition") as repartition_span:
            failing = [
                leaf for leaf in dirty_leaves if not verdicts.get(id(leaf), False)
            ]
            rebuild_nodes = self._merge_up(failing, routed)
            under_rebuild = {
                id(leaf) for node in rebuild_nodes for leaf in node.leaves()
            }
            refine = []
            rejoined = []
            for leaf in dirty_leaves:
                if (
                    not verdicts.get(id(leaf), False)
                    or id(leaf) not in routed
                    or id(leaf) in under_rebuild
                ):
                    continue
                if members[id(leaf)].size >= self.refine_factor * leaf.searched_size:
                    refine.append(leaf)
                else:
                    # Satisfied and still close to its searched size: the routed
                    # rows simply join the group (deferred refinement).
                    rejoined.append(leaf)
            for leaf in rejoined:
                leaf.indices = members[id(leaf)]
            regions = [
                PartitionTree.current_members(node, routed) for node in rebuild_nodes
            ] + [members[id(leaf)] for leaf in refine]
            depths = [node.depth for node in rebuild_nodes] + [
                leaf.depth for leaf in refine
            ]
            if regions:
                subtrees = self._mondrian.partition_forest(table, regions, depths=depths)
                for node, subtree in zip(list(rebuild_nodes) + list(refine), subtrees):
                    self._tree.replace(node, subtree, reindex=False)
                self._tree.reindex()
            repartition_span.annotate(
                rebuilt_regions=len(rebuild_nodes), refined_leaves=len(refine)
            )
        return (
            rebuild_nodes,
            refine,
            rejoined,
            under_rebuild,
            recheck_span.duration_s,
            repartition_span.duration_s,
        )

    def _publish_compacted(
        self,
        table: MicrodataTable,
        prior_map: dict[tuple, PriorBeliefs],
        previous: StreamVersion,
        previous_of: np.ndarray,
        *,
        start: float,
        timings: dict[str, float],
        appended: int = 0,
        deleted: int = 0,
        updated: int = 0,
    ) -> StreamVersion:
        """Publish this batch through a full-refine compaction.

        The maintained partition is discarded and the current table is
        re-partitioned from scratch (priors and the skyline audit stay
        incremental), resetting the accumulated drift.  Raises
        :class:`~repro.exceptions.AnonymizationError` when even the whole
        table fails the requirement, as a from-scratch run would.
        """
        with self.tracer.timed("partition", compacted=True) as partition_span:
            tree_root = self._mondrian.partition_tree(table, prepare=False)
            self._tree = PartitionTree(tree_root)
            self._drift_rows = 0
            groups = [leaf.indices for leaf in self._tree.leaves()]
            release = AnonymizedRelease(
                table, groups, method=f"stream[{self._requirement.describe()}]"
            )
        partition_span.annotate(groups=len(groups))
        report, audit_recomputed, audit_seconds = self._audit_step(
            table, prior_map, groups, previous, previous_of
        )
        delta = StreamDelta(
            appended_rows=appended,
            deleted_rows=deleted,
            updated_rows=updated,
            reused_groups=0,
            rechecked_leaves=len(groups),
            refined_leaves=0,
            rebuilt_regions=1,
            compacted=True,
            audit_recomputed_groups=audit_recomputed,
            timings={
                **timings,
                "partition_seconds": partition_span.duration_s,
                "audit_seconds": audit_seconds,
                "total_seconds": time.perf_counter() - start,
            },
        )
        return self._add_version(release, report, delta)

    def append(
        self, batch: MicrodataTable | Sequence[Mapping[str, Any]]
    ) -> StreamVersion:
        """Fold one batch of appended rows into the stream and publish a version.

        ``batch`` is either a :class:`~repro.data.table.MicrodataTable` with
        the stream's schema or a sequence of ``{attribute: value}`` rows.
        """
        if not len(self.store):
            raise StreamError("publish() the seed release before appending batches")
        with self._publish_span("append") as publish_span:
            with self.tracer.timed("table") as table_span:
                previous = self.store.latest()
                n_previous = self._table.n_rows
                table, appended, rebuild = self._concatenate(batch)
                self._begin_mutation()
            table_seconds = table_span.duration_s
            publish_span.annotate(appended_rows=appended)
            if rebuild:
                return self._publish_full(
                    table, appended=appended, rebuild=True, table_seconds=table_seconds
                )

            # 1. Fold the batch into the factored prior state; find dirty rows.
            with self.tracer.timed("prior", rows=table.n_rows) as prior_span:
                self._estimator.append_rows(table)
                prior_map = self._priors_by_bandwidth()
                appended_indices = np.arange(n_previous, table.n_rows, dtype=np.int64)
                dirty_model = np.ones(table.n_rows, dtype=bool)
                dirty_model[:n_previous] = False
                for component in self._requirement.components():
                    dirty_model |= self._component_dirty(
                        component, table, n_previous, prior_map
                    )
                self._table = table
            prior_seconds = prior_span.duration_s

            if self._compaction_due():
                previous_of = np.full(table.n_rows, -1, dtype=np.int64)
                previous_of[:n_previous] = np.arange(n_previous, dtype=np.int64)
                return self._publish_compacted(
                    table, prior_map, previous, previous_of,
                    appended=appended, start=publish_span.start_s,
                    timings={"table_seconds": table_seconds, "prior_seconds": prior_seconds},
                )

            # 2. Route appended rows to their leaves; re-check only dirty leaves.
            with self.tracer.timed("route") as route_span:
                leaves = self._tree.leaves()
                routed = self._tree.route(table, appended_indices)
                members: dict[int, np.ndarray] = {}
                dirty_leaves = []
                for leaf in leaves:
                    addition = routed.get(id(leaf))
                    if addition is not None:
                        members[id(leaf)] = np.sort(
                            np.concatenate([leaf.indices, addition])
                        )
                        dirty_leaves.append(leaf)
                    else:
                        members[id(leaf)] = leaf.indices
                        if dirty_model[leaf.indices].any():
                            dirty_leaves.append(leaf)

            # 3. Merge-up around violated leaves, re-split grown leaves, locally;
            #    rows joining grown groups in place count as compaction drift.
            (
                rebuild_nodes,
                refine,
                rejoined,
                under_rebuild,
                recheck_seconds,
                repartition_seconds,
            ) = self._maintain_partition(table, dirty_leaves, members, routed)
            self._drift_rows += sum(int(routed[id(leaf)].size) for leaf in rejoined)

            touched = (
                under_rebuild
                | {id(leaf) for leaf in refine}
                | {id(leaf) for leaf in rejoined}
            )
            reused = sum(1 for leaf in leaves if id(leaf) not in touched)
            groups = [leaf.indices for leaf in self._tree.leaves()]
            release = AnonymizedRelease(
                table, groups, method=f"stream[{self._requirement.describe()}]"
            )

            # 4. Dirty-group re-audit: clean byte-identical groups keep their risks.
            previous_of = np.full(table.n_rows, -1, dtype=np.int64)
            previous_of[:n_previous] = np.arange(n_previous, dtype=np.int64)
            report, audit_recomputed, audit_seconds = self._audit_step(
                table, prior_map, groups, previous, previous_of
            )

            delta = StreamDelta(
                appended_rows=appended,
                reused_groups=reused,
                rechecked_leaves=len(dirty_leaves),
                refined_leaves=len(refine),
                rebuilt_regions=len(rebuild_nodes),
                rebuild=False,
                audit_recomputed_groups=audit_recomputed,
                timings={
                    "table_seconds": table_seconds,
                    "prior_seconds": prior_seconds,
                    "route_seconds": route_span.duration_s,
                    "recheck_seconds": recheck_seconds,
                    "repartition_seconds": repartition_seconds,
                    "audit_seconds": audit_seconds,
                    "total_seconds": time.perf_counter() - publish_span.start_s,
                },
            )
            version = self._add_version(release, report, delta)
            publish_span.annotate(version=version.version)
            return version

    # -- deleting ---------------------------------------------------------------------
    def delete(self, rows: Sequence[int] | np.ndarray) -> StreamVersion:
        """Retract rows (positions in the current table) and publish a version.

        The GDPR-style erasure path: the rows vanish from the maintained
        table, their counts leave the factored prior state as exact negative
        count-tensor deltas, the leaves that held them shrink in place, and
        regions whose shrunken groups no longer satisfy the requirement
        (e.g. fall below ``k``) merge up exactly like violated leaves after
        an append.  Deleting every remaining row raises
        :class:`~repro.exceptions.StreamError` (an empty table cannot be
        released); a deletion under which even the whole table fails the
        requirement raises :class:`~repro.exceptions.AnonymizationError`, as
        a from-scratch run would.
        """
        if not len(self.store):
            raise StreamError("publish() the seed release before deleting rows")
        with self._publish_span("delete") as publish_span:
            with self.tracer.timed("table") as table_span:
                previous = self.store.latest()
                n_previous = self._table.n_rows
                removed = np.unique(np.asarray(rows, dtype=np.int64))
                if removed.size == 0:
                    raise StreamError("a delete batch requires at least one row")
                if removed[0] < 0 or removed[-1] >= n_previous:
                    raise StreamError("delete positions fall outside the current table")
                if removed.size >= n_previous:
                    raise StreamError("cannot delete every remaining row of the stream")
                self._begin_mutation()
                keep = np.ones(n_previous, dtype=bool)
                keep[removed] = False
                kept = np.flatnonzero(keep)
                table = self._table.select(kept)
            table_seconds = table_span.duration_s
            publish_span.annotate(deleted_rows=int(removed.size))

            # 1. Fold the removals out of the factored prior state; find dirty rows.
            with self.tracer.timed("prior", rows=table.n_rows) as prior_span:
                self._estimator.remove_rows(table, removed)
                prior_map = self._priors_by_bandwidth()
                dirty_model = np.zeros(table.n_rows, dtype=bool)
                for component in self._requirement.components():
                    dirty_model |= self._component_replace_dirty(
                        component, table, kept, prior_map
                    )
                self._table = table
                self._drift_rows += int(removed.size)
            prior_seconds = prior_span.duration_s

            if self._compaction_due():
                return self._publish_compacted(
                    table, prior_map, previous, kept,
                    deleted=int(removed.size), start=publish_span.start_s,
                    timings={"table_seconds": table_seconds, "prior_seconds": prior_seconds},
                )

            # 2. Shrink the leaves in place; only shrunken or prior-dirty leaves
            #    are re-checked.
            with self.tracer.timed("route") as route_span:
                current_of = np.full(n_previous, -1, dtype=np.int64)
                current_of[kept] = np.arange(kept.size, dtype=np.int64)
                leaves = self._tree.leaves()
                shrunk: set[int] = set()
                for leaf in leaves:
                    mapped = current_of[leaf.indices]
                    survivors = mapped >= 0
                    if not survivors.all():
                        shrunk.add(id(leaf))
                        mapped = mapped[survivors]
                    leaf.indices = mapped  # the old -> new map is monotone: still sorted
                dirty_leaves = [
                    leaf
                    for leaf in leaves
                    if id(leaf) in shrunk
                    or (leaf.indices.size and dirty_model[leaf.indices].any())
                ]

            # 3. Merge-up around violated (or emptied) leaves; nothing was
            #    routed, so no leaf can refine or rejoin.
            members = {id(leaf): leaf.indices for leaf in leaves}
            (
                rebuild_nodes,
                _,
                _,
                under_rebuild,
                recheck_seconds,
                repartition_seconds,
            ) = self._maintain_partition(table, dirty_leaves, members, {})

            touched = under_rebuild | shrunk
            reused = sum(1 for leaf in leaves if id(leaf) not in touched)
            groups = [leaf.indices for leaf in self._tree.leaves()]
            release = AnonymizedRelease(
                table, groups, method=f"stream[{self._requirement.describe()}]"
            )

            report, audit_recomputed, audit_seconds = self._audit_step(
                table, prior_map, groups, previous, kept
            )
            delta = StreamDelta(
                appended_rows=0,
                deleted_rows=int(removed.size),
                reused_groups=reused,
                rechecked_leaves=len(dirty_leaves),
                refined_leaves=0,
                rebuilt_regions=len(rebuild_nodes),
                audit_recomputed_groups=audit_recomputed,
                timings={
                    "table_seconds": table_seconds,
                    "prior_seconds": prior_seconds,
                    "route_seconds": route_span.duration_s,
                    "recheck_seconds": recheck_seconds,
                    "repartition_seconds": repartition_seconds,
                    "audit_seconds": audit_seconds,
                    "total_seconds": time.perf_counter() - publish_span.start_s,
                },
            )
            version = self._add_version(release, report, delta)
            publish_span.annotate(version=version.version)
            return version

    # -- updating ---------------------------------------------------------------------
    def update(
        self,
        rows: Sequence[int] | np.ndarray,
        batch: MicrodataTable | Sequence[Mapping[str, Any]],
    ) -> StreamVersion:
        """Correct rows in place (late-arriving fixes) and publish a version.

        ``rows`` are positions in the current table; ``batch`` supplies the
        replacement rows (a :class:`~repro.data.table.MicrodataTable` with
        the stream's schema or a sequence of ``{attribute: value}`` rows)
        aligned one-to-one with ``rows``.  Corrections within the current
        domains are folded into the prior state as paired negative/positive
        count deltas, and the corrected rows are re-routed down the recorded
        split tree (a corrected QI value may cross a split boundary).  A
        correction introducing values outside the current domains forces a
        full rebuild, exactly like an out-of-domain append.
        """
        if not len(self.store):
            raise StreamError("publish() the seed release before updating rows")
        with self._publish_span("update") as publish_span:
            with self.tracer.timed("table") as table_span:
                previous = self.store.latest()
                n_rows = self._table.n_rows
                positions = np.asarray(rows, dtype=np.int64)
                if positions.size == 0:
                    raise StreamError("an update batch requires at least one row")
                if np.unique(positions).size != positions.size:
                    raise StreamError("update positions must be distinct")
                if positions.min() < 0 or positions.max() >= n_rows:
                    raise StreamError("update positions fall outside the current table")
                schema = self._table.schema
                if isinstance(batch, MicrodataTable):
                    if tuple(batch.schema.names) != tuple(schema.names):
                        raise StreamError("batch schema does not match the stream's schema")
                    fresh = {name: batch.column(name) for name in schema.names}
                else:
                    replacement_rows = list(batch)
                    fresh = {
                        name: [row[name] for row in replacement_rows] for name in schema.names
                    }
                if any(len(column) != positions.size for column in fresh.values()):
                    raise StreamError("update values must align one-to-one with the updated rows")
                self._begin_mutation()
                order = np.argsort(positions)
                positions = positions[order]
                fresh = {
                    name: [fresh[name][int(i)] for i in order] for name in schema.names
                }
                rebuild_table = None
                try:
                    table = self._table.replace_rows(positions, fresh)
                except DataError:
                    # A corrected value outside the current domains: codes shift,
                    # full rebuild - exactly like an out-of-domain append.
                    columns = {}
                    for name in schema.names:
                        column = np.array(self._table.column(name), copy=True)
                        column[positions] = np.asarray(
                            fresh[name],
                            dtype=np.float64 if schema[name].is_numeric else object,
                        )
                        columns[name] = column
                    rebuild_table = MicrodataTable(schema, columns)
            publish_span.annotate(updated_rows=int(positions.size))
            if rebuild_table is not None:
                return self._publish_full(
                    rebuild_table,
                    appended=0, rebuild=True, updated=int(positions.size),
                    table_seconds=time.perf_counter() - publish_span.start_s,
                )
            table_seconds = table_span.duration_s

            # 1. Fold the paired correction deltas into the prior state.
            with self.tracer.timed("prior", rows=table.n_rows) as prior_span:
                self._estimator.update_rows(table, positions)
                prior_map = self._priors_by_bandwidth()
                identity = np.arange(n_rows, dtype=np.int64)
                dirty_model = np.zeros(n_rows, dtype=bool)
                for component in self._requirement.components():
                    dirty_model |= self._component_replace_dirty(
                        component, table, identity, prior_map
                    )
                self._table = table
                self._drift_rows += int(positions.size)
            prior_seconds = prior_span.duration_s

            if self._compaction_due():
                return self._publish_compacted(
                    table, prior_map, previous, identity,
                    updated=int(positions.size), start=publish_span.start_s,
                    timings={"table_seconds": table_seconds, "prior_seconds": prior_seconds},
                )

            # 2. Pull the corrected rows out of their leaves and re-route them
            #    (a corrected QI value may belong to a different region now).
            with self.tracer.timed("route") as route_span:
                leaves = self._tree.leaves()
                updated_mask = np.zeros(n_rows, dtype=bool)
                updated_mask[positions] = True
                lost: set[int] = set()
                for leaf in leaves:
                    member_updated = updated_mask[leaf.indices]
                    if member_updated.any():
                        leaf.indices = leaf.indices[~member_updated]
                        lost.add(id(leaf))
                routed = self._tree.route(table, positions)
                members: dict[int, np.ndarray] = {}
                dirty_leaves = []
                for leaf in leaves:
                    addition = routed.get(id(leaf))
                    if addition is not None:
                        members[id(leaf)] = np.sort(np.concatenate([leaf.indices, addition]))
                        dirty_leaves.append(leaf)
                    else:
                        members[id(leaf)] = leaf.indices
                        if id(leaf) in lost or (
                            leaf.indices.size and dirty_model[leaf.indices].any()
                        ):
                            dirty_leaves.append(leaf)

            # 3. Merge-up around violated (or emptied) leaves; locally re-split
            #    leaves the re-routing grew past the refine trigger.  Drift was
            #    counted once for the whole batch above, so rejoined leaves add
            #    nothing here.
            (
                rebuild_nodes,
                refine,
                rejoined,
                under_rebuild,
                recheck_seconds,
                repartition_seconds,
            ) = self._maintain_partition(table, dirty_leaves, members, routed)

            touched = (
                under_rebuild
                | lost
                | {id(leaf) for leaf in refine}
                | {id(leaf) for leaf in rejoined}
            )
            reused = sum(1 for leaf in leaves if id(leaf) not in touched)
            groups = [leaf.indices for leaf in self._tree.leaves()]
            release = AnonymizedRelease(
                table, groups, method=f"stream[{self._requirement.describe()}]"
            )

            report, audit_recomputed, audit_seconds = self._audit_step(
                table, prior_map, groups, previous, identity
            )
            delta = StreamDelta(
                appended_rows=0,
                updated_rows=int(positions.size),
                reused_groups=reused,
                rechecked_leaves=len(dirty_leaves),
                refined_leaves=len(refine),
                rebuilt_regions=len(rebuild_nodes),
                audit_recomputed_groups=audit_recomputed,
                timings={
                    "table_seconds": table_seconds,
                    "prior_seconds": prior_seconds,
                    "route_seconds": route_span.duration_s,
                    "recheck_seconds": recheck_seconds,
                    "repartition_seconds": repartition_seconds,
                    "audit_seconds": audit_seconds,
                    "total_seconds": time.perf_counter() - publish_span.start_s,
                },
            )
            version = self._add_version(release, report, delta)
            publish_span.annotate(version=version.version)
            return version

    # -- coalescing ---------------------------------------------------------------------
    def _apply(self, operation: tuple[str, Any]) -> StreamVersion:
        """Dispatch one ``(kind, payload)`` mutation tuple."""
        kind, payload = operation
        if kind == "append":
            return self.append(payload)
        if kind == "delete":
            return self.delete(payload)
        if kind == "update":
            rows, batch = payload
            return self.update(rows, batch)
        raise StreamError(
            f"unknown stream operation {kind!r}; expected one of {OPERATION_KINDS}"
        )

    def publish_coalesced(
        self, operations: Sequence[tuple[str, Any]]
    ) -> StreamVersion:
        """Apply one tick's worth of mutations and publish a *single* version.

        ``operations`` is a non-empty sequence of ``("append", batch)``,
        ``("delete", rows)`` and ``("update", (rows, batch))`` tuples - the
        unit the serving daemon's per-stream worker drains from its queue per
        tick.  The operations run through the ordinary sequential mutation
        paths against a write buffer, so the published release, audit risks
        and resume state are *identical* to publishing them one version at a
        time (the serving tests pin the audit identity to ``<= 1e-12``; it is
        bitwise by construction); only the intermediate versions are
        dropped.  The recorded :class:`~repro.stream.store.StreamDelta`
        aggregates the whole tick and counts the folded batches in
        ``coalesced_operations``.

        Failure semantics match the sequential paths: once any operation of
        the tick has advanced the maintained state (a buffered version
        exists, or the failing operation itself got past validation), the
        publisher is poisoned - the real store never saw the intermediate
        versions, so the state is ahead of the published lineage.  A tick
        whose *first* operation fails pure validation leaves the publisher
        consistent.
        """
        operations = list(operations)
        if not operations:
            raise StreamError("a coalesced tick requires at least one operation")
        if len(operations) == 1:
            return self._apply(operations[0])
        if not len(self.store):
            raise StreamError("publish() the seed release before coalescing mutations")
        self._begin_mutation()
        self._inconsistent = False  # re-armed per operation below
        with self._publish_span("coalesced", operations=len(operations)) as publish_span:
            real = self.store
            buffer = _CoalescingStore(real)
            self.store = buffer
            try:
                for operation in operations:
                    self._apply(operation)
            except BaseException:
                if buffer.versions:
                    self._inconsistent = True
                raise
            finally:
                self.store = real
            delta = self._merge_deltas(
                [version.delta for version in buffer.versions],
                time.perf_counter() - publish_span.start_s,
            )
            final = buffer.versions[-1]
            self._inconsistent = True  # cleared when the merged version lands
            version = self._add_version(final.release, final.report, delta)
            publish_span.annotate(version=version.version)
            return version

    @staticmethod
    def _merge_deltas(deltas: list[StreamDelta], total_seconds: float) -> StreamDelta:
        """One tick-wide delta: volumes sum, the final publication's shape wins."""
        timings: dict[str, float] = {}
        for delta in deltas:
            for key, value in delta.timings.items():
                timings[key] = timings.get(key, 0.0) + value
        timings["total_seconds"] = total_seconds
        last = deltas[-1]
        return StreamDelta(
            appended_rows=sum(delta.appended_rows for delta in deltas),
            deleted_rows=sum(delta.deleted_rows for delta in deltas),
            updated_rows=sum(delta.updated_rows for delta in deltas),
            reused_groups=last.reused_groups,
            rechecked_leaves=sum(delta.rechecked_leaves for delta in deltas),
            refined_leaves=sum(delta.refined_leaves for delta in deltas),
            rebuilt_regions=sum(delta.rebuilt_regions for delta in deltas),
            rebuild=any(delta.rebuild for delta in deltas),
            compacted=any(delta.compacted for delta in deltas),
            coalesced_operations=len(deltas),
            audit_recomputed_groups=list(last.audit_recomputed_groups),
            timings=timings,
        )

    def _merge_up(self, failing: list, routed: dict[int, np.ndarray]) -> list:
        """Climb from each violated leaf to the nearest satisfiable region.

        Returns the (deduplicated, maximal) nodes whose regions must be
        re-partitioned.  Raises when even the whole table fails - exactly the
        condition under which a from-scratch run would refuse to release.
        """
        chosen: dict[int, Any] = {}
        for leaf in failing:
            node = leaf
            while True:
                link = self._tree.parent_of(node)
                if link is None:
                    region = PartitionTree.current_members(node, routed)
                    if not self._requirement.is_satisfied(region):
                        raise AnonymizationError(
                            "the whole table no longer satisfies the privacy "
                            "requirement after this batch; no release is possible"
                        )
                    chosen[id(node)] = node
                    break
                parent = link[0]
                region = PartitionTree.current_members(parent, routed)
                # An empty region (every member deleted or re-routed away)
                # cannot satisfy anything: keep climbing.
                if region.size and self._requirement.is_satisfied(region):
                    chosen[id(parent)] = parent
                    break
                node = parent
        # Keep only maximal regions (drop nodes nested under another choice).
        maximal = []
        for node in chosen.values():
            ancestor = node
            nested = False
            while (link := self._tree.parent_of(ancestor)) is not None:
                ancestor = link[0]
                if id(ancestor) in chosen:
                    nested = True
                    break
            if not nested:
                maximal.append(node)
        return maximal
