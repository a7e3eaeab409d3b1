"""The sparse-support contraction of the factored prior backend.

With a compact-support kernel and a narrow bandwidth the joint weight matrix
between rest combinations is almost all exact zeros, and the backend
contracts only its positive pairs.  The contract under test:

* sparse priors match the flat ``max_cells=0`` reference to ``<= 1e-12`` for
  every compact kernel, uniform and per-attribute bandwidths, single-block
  and blocked layouts - and equal the dense tile chain bitwise wherever the
  joint is diagonal;
* ``jobs=N`` is bitwise equal to ``jobs=1``;
* a bandwidth whose pair bound exceeds the budget takes the dense chain
  (asserted through the ``backend.contract`` span's ``path`` attribute);
* the append / remove / update deltas keep sparse caches exact and leave
  untouched queries' numerators bitwise unchanged.
"""

import numpy as np
import pytest

from repro.api.session import Session
from repro.audit.engine import SkylineAuditEngine
from repro.data.adult import generate_adult
from repro.data.schema import Schema, categorical_qi, numeric_qi, sensitive
from repro.data.table import MicrodataTable
from repro.exceptions import KnowledgeError
from repro.knowledge.backend import EstimatorConfig, FactoredPriorBackend
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.support import neighbour_pairs
from repro.obs.tracing import Tracer

COMPACT_KERNELS = ["epanechnikov", "uniform", "triangular", "biweight"]
SKYLINE = [0.1, 0.2, 0.3, 0.5]


def _adult(n=1500, seed=4):
    return generate_adult(n, seed=seed)


def _wide_table(n_rows=150, n_attributes=12, seed=3):
    """Twelve low-cardinality QI attributes; ``max_cells=400`` blocks the rest."""
    rng = np.random.default_rng(seed)
    attributes = []
    columns: dict = {}
    for i in range(n_attributes):
        name = f"Q{i:02d}"
        if i % 3 == 0:
            attributes.append(numeric_qi(name))
            columns[name] = rng.integers(0, 3, n_rows).astype(float)
        else:
            attributes.append(categorical_qi(name))
            columns[name] = rng.choice(["a", "b"], n_rows).tolist()
    attributes.append(sensitive("Disease"))
    columns["Disease"] = rng.choice(["flu", "cancer", "hiv", "cold"], n_rows).tolist()
    return MicrodataTable.from_columns(Schema(attributes), columns)


def _per_attribute(table, wide=None):
    """Narrow per-attribute bandwidths, optionally one attribute wider."""
    names = list(table.quasi_identifier_names)
    values = {name: 0.1 + 0.05 * (i % 4) for i, name in enumerate(names)}
    if wide is not None:
        values[names[wide]] = 0.6
    return Bandwidth(values)


def _traced_matrices(backend, bandwidths):
    """The backend's priors plus the ``path`` of every contraction span."""
    tracer = Tracer()
    with tracer.activate(), tracer.timed("run"):
        matrices = backend.matrices(bandwidths)
    root = tracer.take_root()
    spans = [span for span in root.walk() if span.name == "backend.contract"]
    return matrices, [span.attributes for span in spans]


def _dense(config, table):
    backend = FactoredPriorBackend(config)
    backend._sparse_enabled = False
    return backend.fit(table)


@pytest.mark.parametrize("kernel", COMPACT_KERNELS)
def test_sparse_matches_flat_reference_single_block(kernel):
    table = _adult()
    bandwidths = SKYLINE + [_per_attribute(table), _per_attribute(table, wide=2)]
    backend = FactoredPriorBackend(EstimatorConfig(kernel=kernel)).fit(table)
    assert backend.n_blocks == 1
    sparse, spans = _traced_matrices(backend, bandwidths)
    assert [span["path"] for span in spans] == ["sparse"] * len(bandwidths)
    flat = FactoredPriorBackend(EstimatorConfig(kernel=kernel, max_cells=0)).fit(table)
    for got, want in zip(sparse, flat.matrices(bandwidths)):
        assert float(np.abs(got - want).max()) <= 1e-12


@pytest.mark.parametrize("kernel", COMPACT_KERNELS)
def test_sparse_matches_flat_reference_blocked_wide_schema(kernel):
    table = _wide_table()
    config = EstimatorConfig(kernel=kernel, max_cells=400)
    bandwidths = [0.2, _per_attribute(table), _per_attribute(table, wide=3)]
    backend = FactoredPriorBackend(config).fit(table)
    assert backend.n_blocks > 1
    sparse, spans = _traced_matrices(backend, bandwidths)
    assert [span["path"] for span in spans] == ["sparse"] * len(bandwidths)
    flat = FactoredPriorBackend(EstimatorConfig(kernel=kernel, max_cells=0)).fit(table)
    for got, want in zip(sparse, flat.matrices(bandwidths)):
        assert float(np.abs(got - want).max()) <= 1e-12


@pytest.mark.parametrize("table_factory", [_adult, _wide_table], ids=["adult", "wide"])
def test_diagonal_joint_is_bitwise_equal_to_the_dense_chain(table_factory):
    """Narrow bandwidths make every rest kernel matrix diagonal: each query
    has one pair, and its weight folds in the dense chain's order."""
    table = table_factory()
    config = EstimatorConfig(max_cells=400 if table_factory is _wide_table else 64_000_000)
    bandwidths = [0.1, 0.2, 0.3]
    sparse, spans = _traced_matrices(FactoredPriorBackend(config).fit(table), bandwidths)
    assert all(span["path"] == "sparse" for span in spans)
    dense, spans = _traced_matrices(_dense(config, table), bandwidths)
    assert all(span["path"] == "dense" for span in spans)
    for got, want in zip(sparse, dense):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("max_cells", [64_000_000, 400])
def test_threaded_sparse_contraction_is_bitwise_serial(max_cells):
    table = _wide_table() if max_cells == 400 else _adult()
    bandwidths = [0.1, 0.3, 0.5, _per_attribute(table, wide=3)]
    serial, serial_spans = _traced_matrices(
        FactoredPriorBackend(EstimatorConfig(max_cells=max_cells, jobs=1)).fit(table),
        bandwidths,
    )
    threaded, threaded_spans = _traced_matrices(
        FactoredPriorBackend(EstimatorConfig(max_cells=max_cells, jobs=4)).fit(table),
        bandwidths,
    )
    assert [s["path"] for s in serial_spans] == [s["path"] for s in threaded_spans]
    assert "sparse" in [s["path"] for s in serial_spans]
    for got, want in zip(threaded, serial):
        assert np.array_equal(got, want)


def test_pair_bound_over_budget_falls_back_to_dense_chain():
    table = _adult()
    backend = FactoredPriorBackend(EstimatorConfig(kernel="uniform")).fit(table)
    # A uniform kernel this wide makes every rest combination a neighbour of
    # every other: the bound is far above a quarter of the dense work.
    _, spans = _traced_matrices(backend, [0.1, 1.0])
    assert [span["path"] for span in spans] == ["sparse", "dense"]
    assert spans[0]["pairs"] <= spans[0]["pair_bound"]
    assert spans[1]["pair_bound"] > spans[0]["pair_bound"]
    # A budget below the narrow bandwidth's pair bound forces dense too.
    n_pairs = spans[0]["pairs"]
    tight = FactoredPriorBackend(
        EstimatorConfig(kernel="uniform", max_cells=n_pairs - 1)
    ).fit(table)
    _, spans = _traced_matrices(tight, [0.1])
    assert spans[0]["path"] == "dense"


def test_non_compact_kernel_stays_dense():
    backend = FactoredPriorBackend(EstimatorConfig(kernel="gaussian")).fit(_adult(400))
    _, spans = _traced_matrices(backend, [0.1])
    assert spans[0]["path"] == "dense"


def test_neighbour_pairs_are_the_positive_cells_of_the_dense_joint():
    table = _wide_table()
    backend = FactoredPriorBackend(EstimatorConfig(max_cells=400)).fit(table)
    bandwidth = backend.resolve_bandwidth(_per_attribute(table, wide=3))
    pairs, _ = backend._sparse_pairs(bandwidth)
    joints = [backend._block_joint(block, bandwidth) for block in backend._blocks]
    slots = np.arange(backend._n_combos)
    joint = backend._joint_rows(slots, joints)
    source, target = np.nonzero(joint > 0.0)
    assert np.array_equal(pairs.source, source)
    assert np.array_equal(pairs.target, target)
    assert np.array_equal(pairs.weight, joint[source, target])


def test_support_index_restricted_to_fresh_slots():
    """Enumerating from a sub-trie gives exactly those sources' pairs."""
    table = _adult(600)
    backend = FactoredPriorBackend(EstimatorConfig()).fit(table)
    bandwidth = backend.resolve_bandwidth(0.5)
    pairs, _ = backend._sparse_pairs(bandwidth)
    chosen = np.arange(5, backend._n_combos, 7)
    _, _, starts, ends = backend._support_layout()
    partial = neighbour_pairs(
        backend._support_index(chosen),
        backend._support_index(),
        backend._attribute_neighbours(bandwidth),
        starts,
        ends,
    )
    keep = np.isin(pairs.source, chosen)
    assert np.array_equal(partial.source, pairs.source[keep])
    assert np.array_equal(partial.target, pairs.target[keep])
    assert np.array_equal(partial.weight, pairs.weight[keep])


def _replace(table, positions, donors):
    columns = {name: table.column(name).copy() for name in table.schema.names}
    for name in table.schema.names:
        columns[name][positions] = table.column(name)[donors]
    domains = {name: table.domain(name) for name in table.schema.names}
    return MicrodataTable(table.schema, columns, domains=domains)


def _cached_numerators(backend, bandwidth):
    """Cached numerators keyed by query ``(solo code, rest slot)``."""
    cache = backend._contractions[backend.resolve_bandwidth(bandwidth).items()]
    assert cache["pairs"] is not None and cache["block_joints"] is None
    return {
        (int(a), int(r)): row.copy()
        for a, r, row in zip(backend._query_solo, backend._query_rest, cache["numerators"])
    }


def _untouched_queries(backend, bandwidth, cell_solo, cell_slot):
    """Queries with a zero kernel weight towards every changed cell (dense check)."""
    bandwidth = backend.resolve_bandwidth(bandwidth)
    names = list(backend.table.quasi_identifier_names)
    solo_weights = backend._bandwidth_weights(bandwidth, names[backend._solo_index])
    joints = [backend._block_joint(block, bandwidth) for block in backend._blocks]
    rest = backend._joint_rows(np.arange(backend._n_combos), joints, columns=cell_slot)
    near_solo = (solo_weights[:, cell_solo] > 0.0).astype(float)
    affected = near_solo @ (rest > 0.0).astype(float).T > 0.0
    return {
        (int(a), int(r))
        for a, r in zip(backend._query_solo, backend._query_rest)
        if not affected[a, r]
    }


def test_sparse_lifecycle_matches_scratch_and_keeps_untouched_numerators():
    full = _adult(1300, seed=8)
    table = full.select(np.arange(1000))
    bandwidths = [0.1, 0.3, 0.5]
    backend = FactoredPriorBackend(EstimatorConfig(), incremental=True).fit(table)
    _, spans = _traced_matrices(backend, bandwidths)
    assert all(span["path"] == "sparse" for span in spans)
    rng = np.random.default_rng(5)

    def step(apply, current, rows_before, rows_after):
        before = {b: _cached_numerators(backend, b) for b in bandwidths}
        cells = [(backend._solo_of_row[rows_before], backend._slot_of_row[rows_before])]
        assert apply() == "incremental"
        cells.append((backend._solo_of_row[rows_after], backend._slot_of_row[rows_after]))
        cell_solo = np.concatenate([solo for solo, _ in cells])
        cell_slot = np.concatenate([slot for _, slot in cells])
        maintained = backend.matrices(bandwidths)
        scratch = FactoredPriorBackend(EstimatorConfig()).fit(current).matrices(bandwidths)
        for got, want in zip(maintained, scratch):
            assert float(np.abs(got - want).max()) <= 1e-12
        for bandwidth in bandwidths:
            after = _cached_numerators(backend, bandwidth)
            untouched = _untouched_queries(backend, bandwidth, cell_solo, cell_slot)
            kept = [key for key in before[bandwidth] if key in untouched and key in after]
            if bandwidth == 0.1:
                assert kept  # most queries sit outside every changed support
            for key in kept:
                assert np.array_equal(before[bandwidth][key], after[key])

    grown = full.select(np.arange(1300))
    none = np.zeros(0, dtype=np.int64)
    step(lambda: backend.append_rows(grown), grown, none, np.arange(1000, 1300))

    removed = np.sort(rng.choice(grown.n_rows, size=60, replace=False))
    shrunk = grown.select(np.setdiff1d(np.arange(grown.n_rows), removed))
    step(lambda: backend.remove_rows(shrunk, removed), shrunk, removed, none)

    positions = np.sort(rng.choice(shrunk.n_rows, size=40, replace=False))
    updated = _replace(shrunk, positions, rng.integers(0, shrunk.n_rows, size=40))
    step(lambda: backend.update_rows(updated, positions), updated, positions, positions)


def test_growth_keeps_pairs_equal_to_a_fresh_enumeration():
    full = _adult(1400, seed=21)
    table = full.select(np.arange(700))
    backend = FactoredPriorBackend(EstimatorConfig(), incremental=True).fit(table)
    backend.matrices([0.5])
    combos = backend._n_combos
    backend.append_rows(full)
    assert backend._n_combos > combos  # the batch brought new combinations
    maintained = backend._contractions[backend.resolve_bandwidth(0.5).items()]["pairs"]
    fresh, _ = backend._sparse_pairs(backend.resolve_bandwidth(0.5))
    assert np.array_equal(maintained.source, fresh.source)
    assert np.array_equal(maintained.target, fresh.target)
    assert np.array_equal(maintained.weight, fresh.weight)


@pytest.mark.parametrize("max_cells", [64_000_000, 0], ids=["factored", "flat"])
def test_matrix_for_codes_rejects_negative_codes(max_cells):
    table = _adult(300)
    backend = FactoredPriorBackend(EstimatorConfig(max_cells=max_cells)).fit(table)
    codes = np.full((2, len(table.quasi_identifier_names)), -1)
    with pytest.raises(KnowledgeError, match="must lie in"):
        backend.matrix_for_codes(codes, 0.3)


@pytest.mark.parametrize("max_cells", [64_000_000, 0], ids=["factored", "flat"])
def test_matrix_for_codes_rejects_codes_past_the_domain(max_cells):
    table = _adult(300)
    backend = FactoredPriorBackend(EstimatorConfig(max_cells=max_cells)).fit(table)
    sizes = [table.domain(name).size for name in table.quasi_identifier_names]
    codes = np.zeros((1, len(sizes)), dtype=np.int64)
    codes[0, -1] = sizes[-1]
    with pytest.raises(KnowledgeError, match="must lie in"):
        backend.matrix_for_codes(codes, 0.3)
    # In-range codes still work.
    codes[0, -1] = sizes[-1] - 1
    assert backend.matrix_for_codes(codes, 0.3).shape == (1, table.sensitive_domain().size)


def test_session_release_fits_the_backend_once():
    table = _adult(800)
    session = Session(table)
    tracer = Tracer()
    with tracer.activate(), tracer.timed("release"):
        result = session.anonymize("bt", params={"b": 0.3, "t": 0.25}, k=4)
        report = session.audit_skyline(result.release.groups, [(b, 0.2) for b in SKYLINE])
    root = tracer.take_root()
    assert sum(1 for span in root.walk() if span.name == "backend.fit") == 1
    # The shared fit changes nothing: same risks as an unshared engine.
    reference = SkylineAuditEngine(table, [(b, 0.2) for b in SKYLINE]).audit(
        result.release.groups
    )
    for got, want in zip(report.entries, reference.entries):
        assert got.attack.worst_case_risk == want.attack.worst_case_risk
        assert got.attack.vulnerable_tuples == want.attack.vulnerable_tuples
