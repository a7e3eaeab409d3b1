"""The skyline audit engine (Definition 2, executed as one batched pass).

Auditing a release against a skyline ``{(B_1, t_1), ..., (B_p, t_p)}`` with
the per-adversary attack costs ``p`` full kernel estimations - the very cost
Figure 4(b) shows dominating the pipeline.  The engine removes the redundancy:

* **priors** for every skyline bandwidth come from one
  :class:`~repro.knowledge.prior.BatchedKernelPriorEstimator` pass, which
  shares all bandwidth-independent work (distance matrices, QI
  de-duplication, the count-tensor factorisation);
* **posteriors and risks** reuse the same vectorised
  :func:`~repro.inference.omega.posterior_for_groups` /
  :func:`~repro.privacy.disclosure.attack_result` path as the single-adversary
  attack, so the reported risks are numerically identical to looping
  :class:`~repro.privacy.disclosure.BackgroundKnowledgeAttack`;
* very large tables can bound the posterior working set with ``chunk_rows``
  and distribute adversaries over worker ``processes``.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.data.table import MicrodataTable
from repro.exceptions import AuditError
from repro.knowledge.backend import EstimatorConfig, FactoredPriorBackend, resolve_config
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.combinations import GroupPairs
from repro.knowledge.prior import BatchedKernelPriorEstimator, PriorBeliefs
from repro.obs.tracing import current_tracer
from repro.privacy.disclosure import (
    AttackResult,
    attack_result,
    count_vulnerable_tuples,
    max_risk,
    pair_distances,
    partition_layout,
)
from repro.privacy.measures import DistanceMeasure, sensitive_distance_measure

_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SkylineAdversary:
    """One skyline point: the adversary ``Adv(B)`` and their budget ``t``."""

    bandwidth: Bandwidth
    t: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.t <= 1.0:
            raise AuditError("a skyline threshold t must lie in [0, 1]")

    @property
    def scalar_b(self) -> float:
        """The uniform bandwidth value, or ``nan`` for per-attribute bandwidths."""
        distinct = {value for _, value in self.bandwidth.items()}
        return float(next(iter(distinct))) if len(distinct) == 1 else float("nan")

    def describe(self) -> str:
        """Human-readable point description, e.g. ``"(b=0.3, t=0.2)"``."""
        return f"({self.bandwidth.describe()}, t={self.t:g})"


@dataclass
class SkylineAuditEntry:
    """The audit outcome for one skyline point."""

    adversary: SkylineAdversary
    attack: AttackResult

    @property
    def satisfied(self) -> bool:
        """Whether the release honours this point's budget."""
        return self.attack.worst_case_risk <= self.adversary.t + _TOLERANCE

    @property
    def margin(self) -> float:
        """Budget headroom ``t - worst_case_risk`` (negative when breached)."""
        return self.adversary.t - self.attack.worst_case_risk

    def as_dict(self) -> dict[str, Any]:
        """Flat, JSON-able summary of this entry."""
        return {
            "adversary": self.adversary.describe(),
            "b": None if np.isnan(self.adversary.scalar_b) else self.adversary.scalar_b,
            "t": self.adversary.t,
            "worst_case_risk": self.attack.worst_case_risk,
            "vulnerable_tuples": self.attack.vulnerable_tuples,
            "vulnerability_rate": self.attack.vulnerability_rate(),
            "satisfied": self.satisfied,
            "margin": self.margin,
        }


@dataclass
class SkylineAuditReport:
    """Everything one skyline audit produces."""

    entries: list[SkylineAuditEntry]
    n_rows: int
    n_groups: int
    timings: dict[str, float] = field(default_factory=dict)
    delta: dict[str, Any] | None = None  # set by incremental re-audits

    @property
    def satisfied(self) -> bool:
        """Whether the release honours *every* skyline point (Definition 2)."""
        return all(entry.satisfied for entry in self.entries)

    def worst_entry(self) -> SkylineAuditEntry:
        """The skyline point with the least headroom (the binding constraint)."""
        return min(self.entries, key=lambda entry: entry.margin)

    def summary(self) -> dict[str, Any]:
        """Flat, JSON-able summary of the whole audit."""
        return {
            "rows": self.n_rows,
            "groups": self.n_groups,
            "skyline_size": len(self.entries),
            "satisfied": self.satisfied,
            "worst_margin": self.worst_entry().margin,
            "prepare_seconds": self.timings.get("prepare_seconds", 0.0),
            "audit_seconds": self.timings.get("audit_seconds", 0.0),
            "adversaries": [entry.as_dict() for entry in self.entries],
        }

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"skyline audit: {self.n_groups} groups over {self.n_rows} tuples, "
            f"{len(self.entries)} adversaries "
            f"({'SATISFIED' if self.satisfied else 'BREACHED'})",
        ]
        for entry in self.entries:
            verdict = "ok" if entry.satisfied else "BREACH"
            lines.append(
                f"  Adv{entry.adversary.describe()}: worst-case gain "
                f"{entry.attack.worst_case_risk:.4f} (margin {entry.margin:+.4f}), "
                f"{entry.attack.vulnerable_tuples} vulnerable tuples [{verdict}]"
            )
        lines.append(
            "timings: "
            + ", ".join(f"{name}={value:.3f}s" for name, value in self.timings.items())
        )
        return "\n".join(lines)


def _normalise_skyline(
    table: MicrodataTable, skyline: Iterable[tuple[float | Bandwidth, float]]
) -> list[SkylineAdversary]:
    points = []
    for b, t in skyline:
        bandwidth = (
            b if isinstance(b, Bandwidth)
            else Bandwidth.uniform(table.quasi_identifier_names, float(b))
        )
        missing = [name for name in table.quasi_identifier_names if name not in bandwidth]
        if missing:
            raise AuditError(f"skyline bandwidth does not cover attributes {missing}")
        points.append(SkylineAdversary(bandwidth=bandwidth, t=float(t)))
    if not points:
        raise AuditError("a skyline audit requires at least one (B, t) point")
    return points


class SkylineAuditEngine:
    """Audit releases of one table against a fixed skyline of adversaries.

    Parameters
    ----------
    table:
        The original microdata table (the adversary model assumes membership
        and QI values are known).
    skyline:
        ``(B_i, t_i)`` pairs; ``B_i`` is a scalar (uniform across QI
        attributes) or a full :class:`~repro.knowledge.bandwidth.Bandwidth`.
    config:
        An :class:`~repro.knowledge.backend.EstimatorConfig` carrying the
        estimation knobs (kernel, cell budget, contraction threads, batch and
        fit chunk sizes) end to end; the ``kernel``/``max_cells``/``jobs``
        keywords below are back-compat overrides layered on top of it.
    kernel:
        Kernel for prior estimation (default Epanechnikov, as in the paper).
    method:
        Posterior inference, ``"omega"`` (default) or ``"exact"``.
    measure:
        Distance measure; defaults to the paper's smoothed-JS measure.
    priors:
        Optional precomputed priors aligned with ``skyline`` (``None`` entries
        are estimated).  This is how :class:`~repro.api.session.Session`
        injects its cache.
    chunk_rows:
        Optional row cap per posterior pass (bounds memory on huge tables).
        Distinct from ``config.chunk_rows``, which chunks the estimator's
        *fit* over a table source.
    max_cells:
        Cell budget for the factored estimation backend's blocked contraction
        (see :class:`~repro.knowledge.backend.FactoredPriorBackend`; ``0``
        selects the flat reference sweep).
    jobs:
        Worker threads for the estimation backend's parallel contraction
        (``None`` resolves to ``REPRO_JOBS`` / ``os.cpu_count()``; priors are
        bitwise identical at any thread count).
    backend:
        Optional :class:`~repro.knowledge.backend.FactoredPriorBackend`
        already fitted on ``table`` (and configured like ``config``); missing
        priors are contracted on it instead of on a fresh fit.  This is how
        :class:`~repro.api.session.Session` shares one fit between its
        publish prior and its audits.

    One engine may audit many releases (each :meth:`audit` call takes its own
    ``groups``); the priors are estimated once, on first use.
    """

    def __init__(
        self,
        table: MicrodataTable,
        skyline: Iterable[tuple[float | Bandwidth, float]],
        *,
        config: EstimatorConfig | None = None,
        kernel: str | None = None,
        method: str = "omega",
        measure: DistanceMeasure | None = None,
        priors: Sequence[PriorBeliefs | None] | None = None,
        chunk_rows: int | None = None,
        max_cells: int | None = None,
        jobs: int | None = None,
        distance_matrices: dict[str, np.ndarray] | None = None,
        backend: FactoredPriorBackend | None = None,
    ):
        if method not in {"omega", "exact"}:
            raise AuditError("method must be 'omega' or 'exact'")
        from repro.data.source import as_table

        self.table = as_table(table)
        table = self.table
        self.adversaries = _normalise_skyline(table, skyline)
        self.config = resolve_config(config, kernel=kernel, max_cells=max_cells, jobs=jobs)
        self.kernel = self.config.kernel
        self.method = method
        self.chunk_rows = chunk_rows
        self.max_cells = int(self.config.max_cells)
        self.jobs = self.config.jobs
        self._distance_matrices = distance_matrices
        self._backend = backend
        self.measure = measure if measure is not None else sensitive_distance_measure(table)
        priors = list(priors) if priors is not None else [None] * len(self.adversaries)
        if len(priors) != len(self.adversaries):
            raise AuditError("priors must align one-to-one with the skyline points")
        self._priors: list[PriorBeliefs | None] = priors
        self.prepare_seconds = 0.0

    # -- preparation -----------------------------------------------------------------
    @property
    def prepared(self) -> bool:
        """Whether every adversary's prior is available."""
        return all(prior is not None for prior in self._priors)

    def prepare(self) -> "SkylineAuditEngine":
        """Estimate every missing prior in one batched pass (idempotent)."""
        missing = [i for i, prior in enumerate(self._priors) if prior is None]
        if not missing:
            return self
        start = time.perf_counter()
        with current_tracer().span("engine.prepare", adversaries=len(missing)):
            if self._backend is not None:
                estimator = BatchedKernelPriorEstimator.from_backend(self._backend)
            else:
                estimator = BatchedKernelPriorEstimator(
                    config=self.config,
                    distance_matrices=self._distance_matrices,
                ).fit(self.table)
            estimated = estimator.prior_for_table(
                [self.adversaries[i].bandwidth for i in missing]
            )
            for index, prior in zip(missing, estimated):
                self._priors[index] = prior
        self.prepare_seconds += time.perf_counter() - start
        return self

    @property
    def priors(self) -> list[PriorBeliefs]:
        """The per-adversary priors (estimating them on first access)."""
        self.prepare()
        return list(self._priors)

    # -- auditing --------------------------------------------------------------------
    def audit(
        self, groups: Sequence[np.ndarray], *, processes: int | None = None
    ) -> SkylineAuditReport:
        """Audit one release (a list of group index arrays) against the skyline.

        ``processes`` distributes adversaries over that many worker processes
        (sensible when the per-adversary posterior work dominates, i.e. very
        large tables); the default runs serially.
        """
        if processes is not None and processes < 1:
            raise AuditError("processes must be a positive integer")
        self.prepare()
        start = time.perf_counter()
        sensitive_codes = self.table.sensitive_codes()
        group_list = [np.asarray(group, dtype=np.int64) for group in groups]
        jobs = [
            (prior, adversary.scalar_b, adversary.t)
            for prior, adversary in zip(self._priors, self.adversaries)
        ]
        if processes is None or processes == 1 or len(jobs) == 1:
            tracer = current_tracer()
            attacks = []
            # Adversaries whose priors share a combination index (every
            # kernel prior of one fit) share one (group, combination) layout.
            layouts: dict[int, list[GroupPairs]] = {}
            for prior, b, t in jobs:
                layout = layouts.get(id(prior.index))
                if layout is None:
                    layout = partition_layout(prior.index, group_list, chunk_rows=self.chunk_rows)
                    layouts[id(prior.index)] = layout
                with tracer.span(
                    "engine.adversary",
                    b=b,
                    t=t,
                    rows=sum(pairs.members.size for pairs in layout),
                    combinations=sum(pairs.n_pairs for pairs in layout),
                ):
                    attacks.append(
                        attack_result(
                            prior, sensitive_codes, group_list, self.measure,
                            adversary_b=b, threshold=t,
                            method=self.method, chunk_rows=self.chunk_rows, layout=layout,
                        )
                    )
        else:
            with multiprocessing.Pool(
                processes=min(processes, len(jobs)),
                initializer=_init_worker,
                initargs=(sensitive_codes, group_list, self.measure, self.method, self.chunk_rows),
            ) as pool:
                attacks = pool.map(_attack_in_worker, jobs)
        entries = [
            SkylineAuditEntry(adversary=adversary, attack=attack)
            for adversary, attack in zip(self.adversaries, attacks)
        ]
        timings = {
            "prepare_seconds": self.prepare_seconds,
            "audit_seconds": time.perf_counter() - start,
        }
        return SkylineAuditReport(
            entries=entries,
            n_rows=self.table.n_rows,
            n_groups=sum(1 for group in group_list if group.size),
            timings=timings,
        )

    def audit_incremental(
        self,
        groups: Sequence[np.ndarray],
        *,
        previous_groups: Sequence[np.ndarray],
        previous_report: SkylineAuditReport,
        dirty_rows: np.ndarray | Sequence[np.ndarray],
        previous_of: np.ndarray | None = None,
    ) -> SkylineAuditReport:
        """Re-audit a release after a stream batch, touching only changed groups.

        The engine's dirty-group mode for streams: only some rows are *dirty*
        - appended, corrected, or with a changed prior.  Per adversary, a
        group's member risks are copied verbatim from ``previous_report``
        when its previous-index image appeared in ``previous_groups`` and
        none of its members is dirty for that adversary; every other group
        goes through the same posterior pass as :meth:`audit`, so the
        assembled risks are numerically identical to a full re-audit.

        Parameters
        ----------
        groups:
            The current release (its groups must cover every current row).
        previous_groups:
            The previous release's groups (sorted index arrays, as released,
            in the *previous* table's index space).
        previous_report:
            The report :meth:`audit` / :meth:`audit_incremental` produced for
            ``previous_groups``; its per-tuple risks are the reuse source.
        dirty_rows:
            One boolean mask over the current table's rows - or one mask per
            skyline adversary - marking rows whose risk may have changed.
            Rows without a previous counterpart must always be marked dirty.
        previous_of:
            Optional int array mapping every current row to its position in
            the previous table (``-1`` for rows with no counterpart, e.g.
            appended rows).  Omitted, the table is assumed to have grown at
            the end (previous indices unchanged) - the append-only case.
            Deleting/updating publishers pass the surviving-row map so clean
            shrunken releases still reuse their groups' risks.
        """
        self.prepare()
        start = time.perf_counter()
        n_rows = self.table.n_rows
        sensitive_codes = self.table.sensitive_codes()
        group_list = [np.asarray(group, dtype=np.int64) for group in groups]
        if len(previous_report.entries) != len(self.adversaries):
            raise AuditError(
                "previous report does not cover the same skyline as this engine"
            )
        if isinstance(dirty_rows, np.ndarray):
            masks = [dirty_rows] * len(self.adversaries)
        else:
            masks = list(dirty_rows)
        if len(masks) != len(self.adversaries):
            raise AuditError("dirty_rows must align one-to-one with the skyline points")
        masks = [np.asarray(mask, dtype=bool) for mask in masks]
        for mask in masks:
            if mask.shape != (n_rows,):
                raise AuditError("each dirty-row mask must cover every current row")
        n_previous = previous_report.n_rows
        if previous_of is None:
            previous_of = np.arange(n_rows, dtype=np.int64)
            previous_of[n_previous:] = -1
        else:
            previous_of = np.asarray(previous_of, dtype=np.int64)
            if previous_of.shape != (n_rows,):
                raise AuditError("previous_of must map every current row")
            if previous_of.size and previous_of.max() >= n_previous:
                raise AuditError("previous_of points beyond the previous report's rows")
            mapped = previous_of[previous_of >= 0]
            if mapped.size and np.bincount(mapped).max() > 1:
                raise AuditError("previous_of maps two current rows to one previous row")
        surviving = previous_of >= 0
        populated = [group for group in group_list if group.size]
        members = np.concatenate(populated) if populated else np.empty(0, dtype=np.int64)
        sizes = np.fromiter(
            (group.size for group in populated), dtype=np.int64, count=len(populated)
        )
        offsets = np.cumsum(sizes) - sizes
        reusable = self._reusable_groups(
            members, offsets, sizes, previous_of, previous_groups, n_previous
        )

        tracer = current_tracer()
        entries: list[SkylineAuditEntry] = []
        recomputed: list[int] = []
        layouts: dict[tuple[int, bytes], GroupPairs] = {}
        for prior, adversary, mask, previous_entry in zip(
            self._priors, self.adversaries, masks, previous_report.entries
        ):
            stale = ~reusable
            if members.size:
                stale |= np.logical_or.reduceat(mask[members], offsets)
            key = (id(prior.index), stale.tobytes())
            pairs = layouts.get(key)
            if pairs is None and stale.any():
                chosen = np.flatnonzero(stale)
                chosen_members = np.concatenate([populated[g] for g in chosen])
                chosen_offsets = np.cumsum(sizes[chosen]) - sizes[chosen]
                pairs = layouts[key] = prior.index.pairs(chosen_members, chosen_offsets)
            with tracer.span(
                "engine.adversary",
                b=adversary.scalar_b,
                t=adversary.t,
                rows=0 if pairs is None else int(pairs.members.size),
                combinations=0 if pairs is None else pairs.n_pairs,
            ) as adversary_span:
                previous_risks = previous_entry.attack.risks
                risks = np.zeros(n_rows, dtype=np.float64)
                risks[surviving] = previous_risks[previous_of[surviving]]
                if pairs is not None:
                    distances = pair_distances(
                        prior.combinations, sensitive_codes, pairs, self.measure,
                        method=self.method,
                    )
                    risks[pairs.members] = distances[pairs.pair_of_member]
                attack = AttackResult(
                    adversary_b=adversary.scalar_b,
                    threshold=adversary.t,
                    risks=risks,
                    vulnerable_tuples=count_vulnerable_tuples(risks, adversary.t),
                    worst_case_risk=max_risk(risks),
                )
                n_stale = int(stale.sum())
                adversary_span.annotate(recomputed_groups=n_stale)
                entries.append(SkylineAuditEntry(adversary=adversary, attack=attack))
                recomputed.append(n_stale)
        timings = {
            "prepare_seconds": self.prepare_seconds,
            "audit_seconds": time.perf_counter() - start,
        }
        return SkylineAuditReport(
            entries=entries,
            n_rows=n_rows,
            n_groups=sum(1 for group in group_list if group.size),
            timings=timings,
            delta={
                "recomputed_groups": recomputed,
                "total_groups": len(group_list),
            },
        )

    @staticmethod
    def _reusable_groups(
        members: np.ndarray,
        offsets: np.ndarray,
        sizes: np.ndarray,
        previous_of: np.ndarray,
        previous_groups: Sequence[np.ndarray],
        n_previous: int,
    ) -> np.ndarray:
        """Which current groups are a previous group's image (any adversary).

        A group qualifies when every member survives and all of them map
        into one previous group of the same size - so the group holds exactly
        that group's surviving tuples, whose risks the previous report
        already holds.  Computed once per call with segment reductions.
        """
        if members.size == 0:
            return np.zeros(0, dtype=bool)
        previous_list = [np.asarray(group, dtype=np.int64) for group in previous_groups]
        previous_sizes = np.fromiter(
            (group.size for group in previous_list), dtype=np.int64, count=len(previous_list)
        )
        previous_group_of = np.full(n_previous, -1, dtype=np.int64)
        if previous_list:
            previous_group_of[np.concatenate(previous_list)] = np.repeat(
                np.arange(len(previous_list)), previous_sizes
            )
        image = previous_of[members]
        owner = np.where(image >= 0, previous_group_of[np.maximum(image, 0)], -1)
        low = np.minimum.reduceat(owner, offsets)
        high = np.maximum.reduceat(owner, offsets)
        return (low >= 0) & (low == high) & (previous_sizes[np.maximum(low, 0)] == sizes)


# -- multiprocessing workers ---------------------------------------------------------
#
# Workers receive the release-wide state once (pool initializer) and then one
# adversary's priors per job, mirroring repro.api.sweep's worker scheme.

_WORKER_STATE: tuple | None = None


def _init_worker(sensitive_codes, group_list, measure, method, chunk_rows) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (sensitive_codes, group_list, measure, method, chunk_rows)


def _attack_in_worker(job: tuple[PriorBeliefs, float, float]) -> AttackResult:
    assert _WORKER_STATE is not None, "worker state not initialised"
    sensitive_codes, group_list, measure, method, chunk_rows = _WORKER_STATE
    priors, b, t = job
    return attack_result(
        priors, sensitive_codes, group_list, measure,
        adversary_b=b, threshold=t, method=method, chunk_rows=chunk_rows,
    )


def audit_skyline(
    table: MicrodataTable,
    groups: Sequence[np.ndarray],
    skyline: Iterable[tuple[float | Bandwidth, float]],
    **engine_options: Any,
) -> SkylineAuditReport:
    """One-call helper: build a :class:`SkylineAuditEngine` and audit ``groups``."""
    processes = engine_options.pop("processes", None)
    engine = SkylineAuditEngine(table, skyline, **engine_options)
    return engine.audit(groups, processes=processes)
