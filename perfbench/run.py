"""The repository benchmark: one command, three workloads, end-to-end or per-layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-publish --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
probes installed; ``--trace 1`` runs the same workload twice over, untraced
then traced, and reports the per-layer metrics (spans timed around each
layer's public calls, see ``layers.py``) plus the tracing overhead.  Every
run checks the program's outputs; the last stdout line is the JSON result
and the full record (run context, every named metric with its sample count,
diagnostics) lands in ``perfbench/work/``.  See ``README.md`` for why each
workload exists and which layer each metric belongs to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
WORKLOADS = ("batch-publish", "stream-lifecycle", "serve-mixed")
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "REPRO_JOBS",
)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (NumPy's default), ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values) -> tuple[str, float]:
    """The highest of p99.9/p99/p90/p75 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0, 75.0):
        if len(values) * (1 - q / 100) >= 10:
            return f"p{q:g}", percentile(values, q)
    return "max", max(values) if values else float("nan")


class Report:
    """Every named metric of one run, with units and sample counts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.lines: list[dict] = []
        self.samples: dict[str, list[float]] = {}

    def timing(self, name: str, seconds: list[float]) -> None:
        """Median and tail of a latency sample, in milliseconds."""
        values = [s * 1000 for s in seconds]
        self.samples[name] = values
        self.add(f"{name}_p50", percentile(values, 50), "ms", len(values))
        label, value = tail(values)
        self.add(f"{name}_{label}", value, "ms", len(values))

    def add(self, name: str, value: float, unit: str, n: int | None = None) -> None:
        self.lines.append({"name": name, "value": value, "unit": unit, "n": n})

    def print(self) -> None:
        for line in self.lines:
            count = "" if line["n"] is None else f" (n={line['n']})"
            print(f"{self.workload} {line['name']} = {line['value']:.6g} {line['unit']}{count}")


# -- run context -----------------------------------------------------------------------

def _git_head(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_context(args) -> dict:
    import numpy

    from repro.knowledge.parallel import default_jobs

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "jobs": default_jobs(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_head(ROOT),
        "source_sha256": _source_digest(ROOT / "src"),
    }


# -- per-layer assembly ----------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, operations: int) -> dict[str, float]:
    """Per-layer metrics from a probe summary, per workload operation."""
    get = summary.get
    per = 1.0 / operations if operations else 0.0
    out = {
        "data.chunks": get("data.chunks", 0.0) * per,
        "knowledge.fit_s": get("knowledge.fit_s", 0.0) * per,
        "knowledge.fit_calls": get("knowledge.fit.calls", 0.0) * per,
        "knowledge.contract_s": get("knowledge.contract_s", 0.0) * per,
        "knowledge.bandwidths": get("knowledge.contract.bandwidths", 0.0) * per,
        "knowledge.delta_s": get("knowledge.delta_s", 0.0) * per,
        "knowledge.delta_rows": get("knowledge.delta.rows", 0.0) * per,
        "privacy.check_s": get("privacy.check_s", 0.0) * per,
        "privacy.groups_checked": get("privacy.check.groups", 0.0) * per,
        "privacy.accept_ratio": _ratio(get("privacy.check.accepted", 0.0), get("privacy.check.groups", 0.0)),
        "privacy.risk_s": get("privacy.risk_s", 0.0) * per,
        "inference.posterior_s": get("inference.posterior_s", 0.0) * per,
        "inference.groups": get("inference.posterior.groups", 0.0) * per,
        "anonymize.partition_s": get("anonymize.partition_s", 0.0) * per,
        "anonymize.split_attempts": get("anonymize.partition.split_attempts", 0.0) * per,
        "anonymize.rejected_split_ratio": _ratio(
            get("anonymize.partition.rejected_splits", 0.0), get("anonymize.partition.split_attempts", 0.0)
        ),
        "audit.prepare_s": get("audit.prepare_s", 0.0) * per,
        "audit.adversary_s": get("audit.adversary_s", 0.0) * per,
        "audit.incremental_s": get("audit.incremental_s", 0.0) * per,
        "stream.op_s": get("stream.op_s", 0.0) * per,
        "stream.store_add_s": get("stream.store_add_s", 0.0) * per,
    }
    for layer in ("knowledge", "privacy", "inference", "anonymize", "audit", "stream"):
        out[f"{layer}.self_s"] = get(f"{layer}.self_s", 0.0) * per
    roots = sum(value for key, value in summary.items() if key.startswith("harness.") and key.endswith("_s") and key != "harness.self_s")
    out["trace.unattributed_frac"] = _ratio(get("harness.self_s", 0.0), roots)
    return out


# -- workloads -------------------------------------------------------------------------

def run_batch(seed: int, seconds: float, trace: bool, sizes, work: Path, report: Report) -> dict:
    import workloads as w

    npz = work / "table.npz"
    setup = [w.batch_setup(npz, sizes.batch_rows, seed) for _ in range(sizes.setup_repeats)]
    reference = w.load_reference()
    plain, traced, failures = [], [], []
    failed = 0
    start = time.perf_counter()
    index = 0
    # Untraced and traced releases alternate in a traced run (fresh processes).
    # Another release starts only if at least half of it fits in the run.
    while index < (2 if trace else 1) or (time.perf_counter() - start) * (1 + 0.5 / index) < seconds:
        spans = work / f"spans-{index}.json" if trace and index % 2 else None
        index += 1
        try:
            result = w.run_child(["batch", str(npz), str(spans) if spans else "-"], timeout=170)
        except Exception as error:  # counted as a failed operation
            failures.append(str(error))
            failed += 1
            continue
        errors = w.batch_errors(result, seed, reference)
        failures.extend(errors)
        failed += bool(errors)
        (traced if spans else plain).append(result)
    npz.unlink(missing_ok=True)

    release = [r["publish_s"] + r["audit_s"] for r in plain]
    report.add("setup_s", median(setup), "s", len(setup))
    report.add("publish_s", median(r["publish_s"] for r in plain), "s", len(plain))
    report.add("audit_s", median(r["audit_s"] for r in plain), "s", len(plain))
    report.timing("release", release)
    report.add("peak_rss_mb", median(r["peak_rss_mb"] for r in plain), "MB", len(plain))
    out = {
        "attempted": index,
        "failed": failed,
        "failures": failures,
        "e2e": {
            "setup_s": median(setup),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "write_p50_ms": percentile(release, 50) * 1000,
        },
    }
    if trace:
        summary: dict[str, float] = {}
        for r in traced:
            for key, value in r["layers"].items():
                summary[key] = summary.get(key, 0.0) + value
        layers = layer_metrics(summary, len(traced))
        layers["data.open_s"] = sum(r["open_s"] for r in traced) / len(traced)
        hits = sum(r["prior_cache_hits"] for r in traced)
        layers["api.prior_cache_hit_ratio"] = _ratio(hits, hits + sum(r["prior_estimations"] for r in traced))
        traced_release = median(r["publish_s"] + r["audit_s"] for r in traced)
        layers["trace.overhead_frac"] = traced_release / median(release) - 1
        report.add("traced release_p50", traced_release * 1000, "ms", len(traced))
        out["layers"] = layers
    return out


def _stream_child(seed: int, seconds: float, sizes, work: Path, spans: Path | None) -> dict:
    import workloads as w
    from dataclasses import asdict

    arguments = {
        "seed": seed,
        "sizes": asdict(sizes),
        "seconds": seconds,
        "work": str(work),
        "spans": str(spans) if spans else None,
    }
    return w.run_child(["stream", json.dumps(arguments)], timeout=175)


def run_stream(seed: int, seconds: float, trace: bool, sizes, work: Path, report: Report) -> dict:
    runs = [_stream_child(seed, seconds / 2 if trace else seconds, sizes, work, None)]
    if trace:
        runs.append(_stream_child(seed, seconds / 2, sizes, work, work / "spans.json"))
    plain = runs[0]
    failures = [f for run in runs for f in run["failures"] + run["checks"]]
    latencies = [op["latency_s"] for op in plain["ops"]]
    report.add("setup_s", median(plain["setup_s"]), "s", len(plain["setup_s"]))
    report.timing("version", latencies)
    report.add("peak_rss_mb", plain["peak_rss_mb"], "MB", 1)
    out = {
        "attempted": sum(len(run["ops"]) + len(run["failures"]) for run in runs),
        # A failed final check fails the run's last operation.
        "failed": sum(len(run["failures"]) + bool(run["checks"]) for run in runs),
        "failures": failures,
        "e2e": {
            "setup_s": median(plain["setup_s"]),
            "peak_rss_mb": plain["peak_rss_mb"],
            "write_p50_ms": percentile(latencies, 50) * 1000,
        },
    }
    if trace:
        traced = runs[1]
        ops = traced["ops"]
        layers = layer_metrics(traced["layers"], len(ops))
        layers["audit.recomputed_group_ratio"] = _ratio(
            sum(op["recomputed_groups"] for op in ops), sum(op["groups"] for op in ops) * traced["adversaries"]
        )
        layers["stream.reused_group_ratio"] = _ratio(
            sum(op["reused_groups"] for op in ops), sum(op["groups"] for op in ops)
        )
        layers["stream.store_bytes"] = traced["store_bytes"] / len(ops)
        layers["stream.compactions"] = sum(op["compacted"] for op in ops) / len(ops)
        traced_p50 = percentile([op["latency_s"] for op in ops], 50)
        layers["trace.overhead_frac"] = traced_p50 / percentile(latencies, 50) - 1
        report.add("traced version_p50", traced_p50 * 1000, "ms", len(ops))
        out["layers"] = layers
    return out


def _serve_layers(metrics: dict, client_read_p50_s: float, window: float) -> dict[str, float]:
    server = metrics.get("server", {})
    streams = list(metrics.get("streams", {}).values())
    publishes = sum(s["counters"]["publishes"] for s in streams)
    weighted_p50 = sum((s["publish_seconds"]["p50"] or 0.0) * s["publish_seconds"]["count"] for s in streams)
    busy = sum((s["publish_seconds"]["mean"] or 0.0) * s["publish_seconds"]["count"] for s in streams)
    handler_p50 = server.get("read_seconds", {}).get("p50") or 0.0
    return {
        "serve.read_handler_p50_ms": handler_p50 * 1000,
        "serve.read_wait_p50_ms": (client_read_p50_s - handler_p50) * 1000,
        "serve.publish_p50_ms": _ratio(weighted_p50, publishes) * 1000,
        "serve.publish_busy_frac": busy / window,
        "serve.coalesce_ratio": _ratio(sum(s["counters"]["coalesced_operations"] for s in streams), publishes),
        "serve.queue_high_water": max((s.get("queue_high_water", 0) for s in streams), default=0),
        "serve.rejected_batches": sum(s["counters"]["rejected_batches"] for s in streams),
    }


def run_serve(seed: int, seconds: float, trace: bool, sizes, work: Path, report: Report) -> dict:
    import workloads as w
    from repro.data.adult import generate_adult

    pool = generate_adult(sizes.serve_streams * sizes.serve_seed_rows + sizes.serve_pool_rows, seed=seed)
    plan = w.serve_plan(pool, sizes, seed, int(seconds * sizes.serve_write_rate) + 1)
    window = seconds / 2 if trace else seconds
    setup, logs, scraped = [], [], []
    # A traced run measures an untraced daemon, then a probed one; an
    # untraced run sets up several daemons and measures on the last.
    phases = [False, True] if trace else [False] * sizes.setup_repeats
    for phase_index, probed in enumerate(phases):
        name = f"serve-{phase_index}"
        probes = (work / "spans.json", work / "layers.json") if probed else None
        daemon, seconds_taken = w.serve_setup(pool, sizes, work / name, work / f"{name}.log", probes)
        setup.append(seconds_taken)
        try:
            if trace or phase_index == len(phases) - 1:
                log = w.serve_measure(daemon, plan, sizes, seed, window)
                scraped.append(w.serve_scrape(daemon, sizes, log))
                logs.append(log)
        finally:
            daemon.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    log = logs[0]
    attempted = sum(l.writes + l.reads for l in logs)
    report.add("setup_s", median(setup), "s", len(setup))
    report.timing("write", log.write_latency_s)
    report.timing("read", log.read_latency_s)
    report.add("reads_per_s", len(log.read_latency_s) / window, "1/s", len(log.read_latency_s))
    report.add("writer_lag_p50", percentile(log.writer_lag_s, 50) * 1000, "ms", len(log.writer_lag_s))
    report.add("writer_lag_max", max(log.writer_lag_s, default=0.0) * 1000, "ms", len(log.writer_lag_s))
    report.add("peak_rss_mb", peak_rss_mb, "MB", len(setup))
    out = {
        "attempted": attempted,
        "failed": sum(len(l.failures) for l in logs),
        "failures": [f for l in logs for f in l.failures],
        "e2e": {
            "setup_s": median(setup),
            "peak_rss_mb": peak_rss_mb,
            "write_p50_ms": percentile(log.write_latency_s, 50) * 1000,
        },
    }
    if trace:
        traced = logs[1]
        writes = len(traced.write_latency_s)
        layers = layer_metrics(json.loads((work / "layers.json").read_text()), writes)
        layers.update(_serve_layers(scraped[1], percentile(traced.read_latency_s, 50), window))
        layers["harness.writer_lag_p50_ms"] = percentile(traced.writer_lag_s, 50) * 1000
        layers["harness.writer_lag_max_ms"] = max(traced.writer_lag_s, default=0.0) * 1000
        traced_p50 = percentile(traced.write_latency_s, 50)
        layers["trace.overhead_frac"] = traced_p50 / percentile(log.write_latency_s, 50) - 1
        report.add("traced write_p50", traced_p50 * 1000, "ms", writes)
        out["layers"] = layers
    return out


RUNNERS = {"batch-publish": run_batch, "stream-lifecycle": run_stream, "serve-mixed": run_serve}


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes) -> tuple[dict, Report]:
    """Run one workload; its files live in a directory of their own under WORK."""
    report = Report(workload)
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return RUNNERS[workload](seed, seconds, trace, sizes, work, report), report


def result_line(outcome: dict, trace: bool) -> dict:
    """The contract's JSON: every end-to-end (or per-layer) metric with its unit."""
    attempted = max(outcome["attempted"], 1)
    failed = min(outcome["failed"], attempted)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    # A layer the workload never calls reads 0.
    values = outcome["layers"] if trace else outcome["e2e"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as w

    context = run_context(args)
    outcome, report = measure(args.workload, args.seed, args.seconds, bool(args.trace), w.FULL)
    line = result_line(outcome, bool(args.trace))
    report.add("failed_frac", line["failed"] / line["attempted"], "ratio", line["attempted"])
    report.print()
    for failure in outcome["failures"][:20]:
        print(f"{args.workload} FAILED: {failure}")
    record = {
        "context": context,
        "report": report.lines,
        "samples": report.samples,
        "failures": outcome["failures"],
        "result": line,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
