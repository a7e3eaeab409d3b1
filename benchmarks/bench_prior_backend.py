"""Factored prior backend vs the flat reference sweep (the PR-gated bench).

Two contracts of the one shared estimation backend
(:mod:`repro.knowledge.backend`):

* **wide schemas** - a >= 12-attribute schema whose joint rest-combination
  count exceeds ``max_cells`` must use the *hierarchical blocked
  contraction* (not the flat ``O(n^2 d)`` sweep) and stay numerically
  identical to the flat reference (``<= 1e-12``) while being at least
  ``REPRO_BENCH_PRIOR_MIN_SPEEDUP`` times faster;
* **single bandwidths** - the estimation behind every plain
  ``Pipeline.run()`` / ``BTPrivacy.prepare`` call routes through the same
  factored backend, so one-bandwidth priors on the Adult schema must beat
  the flat reference too;
* **parallel contraction** - the same wide blocked estimation run serially
  (``jobs=1``) and threaded (``jobs=REPRO_BENCH_BACKEND_JOBS``) must return
  *bitwise identical* priors, and the threaded run must clear the
  ``REPRO_BENCH_BACKEND_MIN_PAR_SPEEDUP`` floor when one is set (default 0:
  record, don't assert - a single-core machine cannot honestly clear 1.0;
  CI sets it).  The section also times ``share_bandwidths=False`` against
  the shared-cache default (``sharing_speedup``).  It runs the Gaussian
  kernel: a compact kernel at these bandwidths takes the sparse-support
  path, and this section exists to measure the threaded dense tile chain;
* **sparse-support contraction** - the 4-point skyline
  ``(0.1, 0.2, 0.3, 0.5)`` on the Adult schema contracted on the joint's
  positive pairs must match the dense tile chain to ``<= 1e-12`` and beat it
  by ``REPRO_BENCH_SPARSE_MIN_SPEEDUP`` (default 2).  Both sides pay the
  same solo GEMM per bandwidth, which bounds the ratio at small sizes (about
  3-4x at 2k-5k rows, about 10x at 20k on a 2-core box).

Scale knobs:

* ``REPRO_BENCH_PRIOR_ROWS``       - Adult table size (default 5000);
* ``REPRO_BENCH_PRIOR_WIDE_ROWS``  - wide-schema table size (default 4000);
* ``REPRO_BENCH_PRIOR_MIN_SPEEDUP``- speedup floor for the flat-vs-blocked
  gates (default 3);
* ``REPRO_BENCH_BACKEND_JOBS``     - thread count for the parallel section
  (default: all cores; CI pins 4 so the section name stays stable);
* ``REPRO_BENCH_BACKEND_MIN_PAR_SPEEDUP`` - in-bench floor on
  ``parallel_speedup`` (default 0);
* ``REPRO_BENCH_SPARSE_MIN_SPEEDUP`` - in-bench floor on the sparse
  section's ``speedup`` (default 2).

The measured numbers land in ``BENCH_prior_backend.json`` (sections
``wide-rows-<n>`` / ``pipeline-rows-<n>`` / ``parallel-rows-<n>-jobs-<j>`` /
``sparse-rows-<n>``),
which CI regenerates at tiny size and compares against the committed
baseline with ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import write_bench_json

from repro.data.adult import generate_adult
from repro.data.schema import Schema, categorical_qi, numeric_qi, sensitive
from repro.data.table import MicrodataTable
from repro.knowledge.backend import EstimatorConfig, FactoredPriorBackend
from repro.knowledge.prior import BatchedKernelPriorEstimator, kernel_prior
from repro.obs.tracing import Tracer

PRIOR_ROWS = int(os.environ.get("REPRO_BENCH_PRIOR_ROWS", "5000"))
WIDE_ROWS = int(os.environ.get("REPRO_BENCH_PRIOR_WIDE_ROWS", "4000"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_PRIOR_MIN_SPEEDUP", "3"))
REPEATS = int(os.environ.get("REPRO_BENCH_PRIOR_REPEATS", "3"))
JOBS = int(os.environ.get("REPRO_BENCH_BACKEND_JOBS", str(os.cpu_count() or 1)))
MIN_PAR_SPEEDUP = float(os.environ.get("REPRO_BENCH_BACKEND_MIN_PAR_SPEEDUP", "0"))
MIN_SPARSE_SPEEDUP = float(os.environ.get("REPRO_BENCH_SPARSE_MIN_SPEEDUP", "2"))
#: The 4-adversary skyline of the repository benchmark's batch-publish audit.
SKYLINE = (0.1, 0.2, 0.3, 0.5)


def _best_of(callable_, repeats: int = REPEATS):
    """Best-of-N wall clock (and the last result): tames sub-100ms jitter."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result

WIDE_ATTRIBUTES = 12
# A budget the wide schema's joint rest-combination count overshoots, so the
# fit *must* take the multi-block path (asserted below).  The observed joint
# count approaches WIDE_ROWS on this schema, so (WIDE_ROWS/2)^2 stays under
# it at every scale; the 1M cap keeps full-scale tiles/block joints fast.
WIDE_MAX_CELLS = int(
    os.environ.get("REPRO_BENCH_PRIOR_MAX_CELLS", min(1_000_000, (WIDE_ROWS // 2) ** 2))
)
BANDWIDTHS = (0.2, 0.3)


def _wide_table(n_rows: int, seed: int = 2009) -> MicrodataTable:
    """A >= 12-attribute mixed schema with enough cardinality to defeat dedup."""
    rng = np.random.default_rng(seed)
    attributes = []
    columns: dict = {}
    for i in range(WIDE_ATTRIBUTES):
        name = f"Q{i:02d}"
        if i % 3 == 0:
            attributes.append(numeric_qi(name))
            columns[name] = rng.integers(0, 9, n_rows).astype(float)
        else:
            attributes.append(categorical_qi(name))
            columns[name] = rng.choice([f"v{j}" for j in range(6)], n_rows).tolist()
    attributes.append(sensitive("Disease"))
    columns["Disease"] = rng.choice(
        ["flu", "cancer", "hiv", "cold", "ulcer"], n_rows
    ).tolist()
    return MicrodataTable.from_columns(Schema(attributes), columns)


def test_wide_schema_blocked_vs_flat_speedup():
    table = _wide_table(WIDE_ROWS)

    def run_flat():
        return BatchedKernelPriorEstimator(max_cells=0).fit(table).prior_for_table(BANDWIDTHS)

    def run_blocked():
        estimator = BatchedKernelPriorEstimator(max_cells=WIDE_MAX_CELLS).fit(table)
        return estimator, estimator.prior_for_table(BANDWIDTHS)

    flat_seconds, flat_priors = _best_of(run_flat)
    blocked_seconds, (blocked, blocked_priors) = _best_of(run_blocked)

    assert blocked.mode == "factored"
    assert blocked.backend.n_blocks >= 2, (
        "the wide schema fits a single joint; raise WIDE_ROWS or lower WIDE_MAX_CELLS"
    )
    max_difference = max(
        float(np.abs(a.matrix - b.matrix).max())
        for a, b in zip(blocked_priors, flat_priors)
    )
    speedup = flat_seconds / blocked_seconds

    print(
        f"\nprior backend (wide): rows={WIDE_ROWS} attrs={WIDE_ATTRIBUTES} "
        f"blocks={blocked.backend.n_blocks} flat={flat_seconds:.3f}s "
        f"blocked={blocked_seconds:.3f}s speedup={speedup:.1f}x "
        f"max-diff={max_difference:.2e}"
    )
    write_bench_json(
        "prior_backend",
        f"wide-rows-{WIDE_ROWS}",
        {
            "rows": WIDE_ROWS,
            "attributes": WIDE_ATTRIBUTES,
            "bandwidths": len(BANDWIDTHS),
            "blocks": blocked.backend.n_blocks,
            "flat_seconds": flat_seconds,
            "blocked_seconds": blocked_seconds,
            "speedup": speedup,
            "max_difference": max_difference,
        },
    )
    assert max_difference < 1e-12
    assert speedup >= MIN_SPEEDUP, (
        f"blocked contraction is only {speedup:.1f}x faster than the flat sweep "
        f"(required: {MIN_SPEEDUP:g}x)"
    )


def test_single_bandwidth_pipeline_prior_speedup():
    table = generate_adult(PRIOR_ROWS, seed=2009)

    flat_seconds, flat = _best_of(lambda: kernel_prior(table, 0.3, max_cells=0))
    # What Pipeline.run() / BTPrivacy.prepare() now execute per bandwidth.
    factored_seconds, factored = _best_of(lambda: kernel_prior(table, 0.3))

    max_difference = float(np.abs(factored.matrix - flat.matrix).max())
    speedup = flat_seconds / factored_seconds

    print(
        f"\nprior backend (pipeline): rows={PRIOR_ROWS} flat={flat_seconds:.3f}s "
        f"factored={factored_seconds:.3f}s speedup={speedup:.1f}x "
        f"max-diff={max_difference:.2e}"
    )
    write_bench_json(
        "prior_backend",
        f"pipeline-rows-{PRIOR_ROWS}",
        {
            "rows": PRIOR_ROWS,
            "flat_seconds": flat_seconds,
            "factored_seconds": factored_seconds,
            "speedup": speedup,
            "max_difference": max_difference,
        },
    )
    assert max_difference < 1e-12
    assert speedup >= MIN_SPEEDUP, (
        f"the factored single-bandwidth path is only {speedup:.1f}x faster than "
        f"the flat sweep (required: {MIN_SPEEDUP:g}x)"
    )


def test_parallel_contraction_speedup():
    """Threaded tile contraction vs the serial reference, bitwise identical."""
    table = _wide_table(WIDE_ROWS)

    def backend(jobs: int, share: bool = True) -> FactoredPriorBackend:
        config = EstimatorConfig(
            kernel="gaussian", max_cells=WIDE_MAX_CELLS, jobs=jobs, share_bandwidths=share
        )
        return FactoredPriorBackend(config).fit(table)

    serial = backend(1)
    threaded = backend(JOBS)
    rebuilt = backend(JOBS, share=False)
    assert threaded.n_blocks >= 2, (
        "the wide schema fits a single joint; raise WIDE_ROWS or lower WIDE_MAX_CELLS"
    )
    assert threaded.jobs == JOBS

    serial_seconds, serial_matrices = _best_of(lambda: serial.matrices(BANDWIDTHS))
    parallel_seconds, parallel_matrices = _best_of(lambda: threaded.matrices(BANDWIDTHS))
    noshare_seconds, noshare_matrices = _best_of(lambda: rebuilt.matrices(BANDWIDTHS))

    # The whole point of the threaded path: not "close", *identical*.
    for ours, reference in zip(parallel_matrices, serial_matrices):
        assert np.array_equal(ours, reference)
    for ours, reference in zip(noshare_matrices, serial_matrices):
        assert np.array_equal(ours, reference)

    parallel_speedup = serial_seconds / parallel_seconds
    sharing_speedup = noshare_seconds / parallel_seconds

    print(
        f"\nprior backend (parallel): rows={WIDE_ROWS} jobs={JOBS} "
        f"blocks={threaded.n_blocks} serial={serial_seconds:.3f}s "
        f"parallel={parallel_seconds:.3f}s speedup={parallel_speedup:.2f}x "
        f"sharing={sharing_speedup:.2f}x"
    )
    write_bench_json(
        "prior_backend",
        f"parallel-rows-{WIDE_ROWS}-jobs-{JOBS}",
        {
            "rows": WIDE_ROWS,
            "attributes": WIDE_ATTRIBUTES,
            "bandwidths": len(BANDWIDTHS),
            "jobs": JOBS,
            "blocks": threaded.n_blocks,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "parallel_speedup": parallel_speedup,
            "noshare_seconds": noshare_seconds,
            "sharing_speedup": sharing_speedup,
        },
    )
    if MIN_PAR_SPEEDUP > 0:
        assert parallel_speedup >= MIN_PAR_SPEEDUP, (
            f"{JOBS} contraction threads only reached {parallel_speedup:.2f}x the "
            f"serial path (required: {MIN_PAR_SPEEDUP:g}x)"
        )


def _contract_paths(backend: FactoredPriorBackend, bandwidths) -> tuple[list, list[str]]:
    """The backend's priors and the path each ``backend.contract`` span took."""
    tracer = Tracer()
    with tracer.activate(), tracer.timed("bench"):
        matrices = backend.matrices(bandwidths)
    root = tracer.take_root()
    paths = [
        span.attributes["path"] for span in root.walk() if span.name == "backend.contract"
    ]
    return matrices, paths


def test_sparse_support_contraction_speedup():
    """The skyline's bandwidths on the sparse pairs vs the dense tile chain."""
    table = generate_adult(PRIOR_ROWS, seed=2009)
    sparse = FactoredPriorBackend(EstimatorConfig()).fit(table)
    dense = FactoredPriorBackend(EstimatorConfig()).fit(table)
    dense._sparse_enabled = False  # the dense tile chain, as the reference

    sparse_matrices, sparse_paths = _contract_paths(sparse, SKYLINE)
    dense_matrices, dense_paths = _contract_paths(dense, SKYLINE)
    assert sparse_paths == ["sparse"] * len(SKYLINE)
    assert dense_paths == ["dense"] * len(SKYLINE)
    max_difference = max(
        float(np.abs(a - b).max()) for a, b in zip(sparse_matrices, dense_matrices)
    )
    sparse_seconds, _ = _best_of(lambda: sparse.matrices(SKYLINE))
    dense_seconds, _ = _best_of(lambda: dense.matrices(SKYLINE))
    speedup = dense_seconds / sparse_seconds

    print(
        f"\nprior backend (sparse): rows={PRIOR_ROWS} bandwidths={len(SKYLINE)} "
        f"dense={dense_seconds:.3f}s sparse={sparse_seconds:.3f}s "
        f"speedup={speedup:.1f}x max-diff={max_difference:.2e}"
    )
    write_bench_json(
        "prior_backend",
        f"sparse-rows-{PRIOR_ROWS}",
        {
            "rows": PRIOR_ROWS,
            "bandwidths": len(SKYLINE),
            "dense_seconds": dense_seconds,
            "sparse_seconds": sparse_seconds,
            "speedup": speedup,
            "max_difference": max_difference,
        },
    )
    assert max_difference <= 1e-12
    assert speedup >= MIN_SPARSE_SPEEDUP, (
        f"the sparse-support contraction is only {speedup:.1f}x faster than the "
        f"dense tile chain (required: {MIN_SPARSE_SPEEDUP:g}x)"
    )
