"""The benchmark's workload bodies, correctness checks and child-process roles.

``run.py`` drives these; the measured parts of ``batch-publish`` and
``stream-lifecycle`` run here as fresh child processes so that each one's
peak resident memory is its own.  Roles (last stdout line is JSON)::

    python3 perfbench/workloads.py batch <npz> <spans-or-"-">
    python3 perfbench/workloads.py stream <json-args>
    python3 perfbench/workloads.py serve-daemon <spans> <summary> serve ...
    python3 perfbench/workloads.py record-reference <rows> <seeds>

``record-reference`` rewrites ``reference.json``: the batch-publish outputs
of the current program, which later runs are checked against.  Run it only
on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import http.client
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

MODEL = "bt"
PARAMS = {"b": 0.3, "t": 0.25}
K = 4
#: The 4-adversary skyline shared with the repository's gated benches.
SKYLINE = ((0.1, 0.2), (0.2, 0.2), (0.3, 0.2), (0.5, 0.2))
#: batch-publish draws its table from this many recorded inputs (seed modulo).
REFERENCE_SEEDS = 32
RISK_TOLERANCE = 1e-12
#: serve-mixed's reader waits this long after each response.  A reader with
#: no pause keeps the daemon's interpreter lock contended all the time, and
#: write latency then follows how the lock happens to be handed over more
#: than the work a write does.
READ_THINK_S = 0.01


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload (``TINY`` is the self-test's)."""

    batch_rows: int = 100_000
    stream_seed_rows: int = 20_000
    stream_pool_rows: int = 20_000
    stream_append: int = 500
    stream_delete: int = 100
    stream_update: int = 100
    stream_rounds: int = 6
    serve_streams: int = 4
    serve_seed_rows: int = 2_000
    serve_pool_rows: int = 4_000
    serve_append: int = 50
    serve_delete: int = 10
    serve_update: int = 10
    #: Open-loop write rate: about a quarter of the closed-loop capacity of
    #: one writer connection with the reader running (6.5 writes/s on a
    #: 2-core box at the commit that introduced the benchmark).  At half the
    #: capacity, a host that ran twice as slow made writes queue behind each
    #: other and moved write latency 2.75x; at a quarter, 1.5x.
    serve_write_rate: float = 1.6
    #: Set-ups per batch-publish and serve-mixed run (stream-lifecycle sets
    #: up once per epoch of ``stream_rounds`` rounds).
    setup_repeats: int = 3


FULL = Sizes()
TINY = Sizes(
    batch_rows=1_500,
    stream_seed_rows=1_000,
    stream_pool_rows=600,
    stream_append=60,
    stream_delete=15,
    stream_update=15,
    stream_rounds=3,
    serve_streams=2,
    serve_seed_rows=300,
    serve_pool_rows=300,
    serve_append=20,
    serve_delete=5,
    serve_update=5,
    serve_write_rate=3.0,
    setup_repeats=2,
)


def child_env() -> dict[str, str]:
    """The environment of every child: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def peak_rss_mb() -> float:
    """This process's lifetime peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def groups_digest(groups) -> str:
    """One hash over the whole partition (group order and membership)."""
    digest = hashlib.sha256()
    for group in groups:
        digest.update(group.astype("int64", copy=False).tobytes())
        digest.update(b"|")
    return digest.hexdigest()


def run_child(args: list[str], timeout: float) -> dict:
    """Run one role of this module in a fresh interpreter; its JSON result."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=timeout,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{args[0]} child failed ({completed.returncode}):\n{completed.stderr[-4000:]}")
    return json.loads(completed.stdout.splitlines()[-1])


def _recorder(spans: str | None):
    if not spans:
        return None
    from layers import Recorder, install

    recorder = Recorder()
    install(recorder)
    return recorder


def _paused(recorder):
    return recorder.paused() if recorder else contextlib.nullcontext()


def _root(recorder, name: str):
    """A root span of the harness layer: its self time is the unattributed share."""
    return recorder.span(f"harness.{name}", "harness") if recorder else contextlib.nullcontext()


# -- batch-publish ---------------------------------------------------------------------

def batch_data_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def batch_setup(npz: Path, rows: int, seed: int) -> float:
    """Generate the Adult-like table and write it as npz; the seconds taken."""
    from repro.data.adult import generate_adult
    from repro.data.source import write_npz

    start = time.perf_counter()
    write_npz(npz, generate_adult(rows, seed=batch_data_seed(seed)))
    return time.perf_counter() - start


def batch_release(npz: str, spans: str | None) -> dict:
    """One measured release: open, publish, skyline-audit (a fresh process)."""
    recorder = _recorder(spans)
    from repro.api import Session
    from repro.data.adult import adult_schema
    from repro.data.io import open_table

    start = time.perf_counter()
    session = Session(open_table(npz, adult_schema()))
    open_s = time.perf_counter() - start
    start = time.perf_counter()
    with _root(recorder, "publish"):
        result = session.anonymize(MODEL, params=PARAMS, k=K)
    publish_s = time.perf_counter() - start
    groups = result.release.groups
    start = time.perf_counter()
    with _root(recorder, "audit"):
        report = session.audit_skyline(groups, SKYLINE)
    audit_s = time.perf_counter() - start
    stats = session.stats
    out = {
        "rows": session.table.n_rows,
        "open_s": open_s,
        "publish_s": publish_s,
        "audit_s": audit_s,
        "peak_rss_mb": peak_rss_mb(),
        "groups": len(groups),
        "digest": groups_digest(groups),
        "audit": [
            {"worst_case_risk": e.attack.worst_case_risk, "vulnerable_tuples": e.attack.vulnerable_tuples}
            for e in report.entries
        ],
        "prior_cache_hits": stats.prior_cache_hits,
        "prior_estimations": stats.prior_estimations,
    }
    if recorder:
        out["layers"] = recorder.summary()
        recorder.dump(Path(spans))
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def batch_errors(result: dict, seed: int, reference: dict) -> list[str]:
    """Differences between one release and the recorded reference outputs."""
    key = f"{result['rows']}/{batch_data_seed(seed)}"
    expected = reference.get(key)
    if expected is None:
        return [f"no recorded reference for {key}"]
    errors = []
    if result["groups"] != expected["groups"]:
        errors.append(f"groups {result['groups']} != {expected['groups']}")
    if result["digest"] != expected["digest"]:
        errors.append("partition digest differs")
    if len(result["audit"]) != len(expected["audit"]):
        return errors + ["adversary count differs"]
    for index, (got, want) in enumerate(zip(result["audit"], expected["audit"])):
        if abs(got["worst_case_risk"] - want["worst_case_risk"]) > RISK_TOLERANCE:
            errors.append(f"adversary {index}: risk {got['worst_case_risk']!r} != {want['worst_case_risk']!r}")
        if got["vulnerable_tuples"] != want["vulnerable_tuples"]:
            errors.append(f"adversary {index}: vulnerable {got['vulnerable_tuples']} != {want['vulnerable_tuples']}")
    return errors


def record_reference(rows: int, seeds, work: Path) -> None:
    """Record the batch-publish outputs for the given data seeds into REFERENCE."""
    reference = load_reference()
    work.mkdir(parents=True, exist_ok=True)
    npz = work / "reference.npz"
    for seed in seeds:
        batch_setup(npz, rows, seed)
        result = run_child(["batch", str(npz), "-"], timeout=900)
        reference[f"{rows}/{seed}"] = {k: result[k] for k in ("groups", "digest", "audit")}
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"recorded {rows}/{seed}: {result['groups']} groups", flush=True)
    npz.unlink(missing_ok=True)


# -- stream-lifecycle ------------------------------------------------------------------

def stream_run(seed: int, sizes: dict, seconds: float, work: str, spans: str | None) -> dict:
    """Closed-loop rounds for ``seconds``, in epochs that each start from the seed.

    Every epoch publishes the seed into a fresh store (timed as set-up) and
    then runs ``stream_rounds`` rounds, so every version of every run works on
    the same table sizes however many the run fits in.  The last epoch is
    checked once the time is up.
    """
    import numpy as np

    from repro.api import Session
    from repro.audit import SkylineAuditEngine
    from repro.data.adult import generate_adult

    sizes = Sizes(**sizes)
    seed_rows = sizes.stream_seed_rows
    full = generate_adult(seed_rows + sizes.stream_pool_rows, seed=seed)
    seed_table = full.select(np.arange(seed_rows))
    recorder = _recorder(spans)
    rng = np.random.default_rng(seed)
    store = Path(work) / "stream"
    setup_s, ops, failures = [], [], []
    store_bytes = 0
    pool = 0
    deadline = time.perf_counter() + seconds
    while True:
        shutil.rmtree(store, ignore_errors=True)
        gc.collect()  # the previous epoch must not inflate this one's memory
        with _paused(recorder):
            start = time.perf_counter()
            publisher = Session(seed_table).stream(MODEL, params=PARAMS, k=K, skyline=SKYLINE, store_dir=str(store))
            setup_s.append(time.perf_counter() - start)
        appended = deleted = 0
        for _ in range(sizes.stream_rounds):
            if time.perf_counter() >= deadline or failures:
                break
            for kind in ("append", "delete", "update"):
                n_rows = publisher.table.n_rows
                if kind == "append":
                    count = sizes.stream_append
                    picks = seed_rows + (pool + np.arange(count)) % sizes.stream_pool_rows
                    pool += count
                    call = lambda: publisher.append(full.select(picks))  # noqa: E731
                elif kind == "delete":
                    count = sizes.stream_delete
                    positions = np.sort(rng.choice(n_rows, count, replace=False))
                    call = lambda: publisher.delete(positions)  # noqa: E731
                else:
                    count = sizes.stream_update
                    positions = np.sort(rng.choice(n_rows, count, replace=False))
                    batch = full.select(rng.integers(0, full.n_rows, count))
                    call = lambda: publisher.update(positions, batch)  # noqa: E731
                start = time.perf_counter()
                try:
                    with _root(recorder, "version"):
                        version = call()
                except Exception as error:  # a failed operation is counted, not fatal
                    failures.append(f"{kind}: {type(error).__name__}: {error}")
                    break
                latency = time.perf_counter() - start
                appended += count if kind == "append" else 0
                deleted += count if kind == "delete" else 0
                delta = version.delta
                ops.append({
                    "kind": kind,
                    "latency_s": latency,
                    "groups": version.n_groups,
                    "reused_groups": delta.reused_groups,
                    "recomputed_groups": sum(delta.audit_recomputed_groups),
                    "compacted": bool(delta.compacted),
                })
        store_bytes += sum(p.stat().st_size for p in store.rglob("*") if p.is_file())
        if failures or time.perf_counter() >= deadline:
            break
        publisher.close()
    layers = recorder.summary() if recorder else None

    # Correctness of the last epoch, outside the timed and traced regions: the
    # maintained audit must equal a from-scratch audit of the final release,
    # and no row may be lost.
    checks = []
    with _paused(recorder):
        latest = publisher.latest
        if latest.n_rows != seed_rows + appended - deleted:
            checks.append(f"final rows {latest.n_rows} != {seed_rows} + {appended} - {deleted}")
        fresh = SkylineAuditEngine(publisher.table, SKYLINE).audit(latest.release.groups)
        for index, (kept, reference) in enumerate(zip(latest.report.entries, fresh.entries)):
            drift = float(np.abs(kept.attack.risks - reference.attack.risks).max())
            if drift > RISK_TOLERANCE:
                checks.append(f"adversary {index}: maintained risks drift {drift:.3e} from a fresh audit")
            if kept.attack.vulnerable_tuples != reference.attack.vulnerable_tuples:
                checks.append(f"adversary {index}: vulnerable tuples differ from a fresh audit")
    publisher.close()
    shutil.rmtree(store, ignore_errors=True)
    out = {
        "setup_s": setup_s,
        "ops": ops,
        "failures": failures,
        "checks": checks,
        "adversaries": len(SKYLINE),
        "store_bytes": store_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder:
        out["layers"] = layers
        recorder.dump(Path(spans))
    return out


# -- serve-mixed -----------------------------------------------------------------------

class Daemon:
    """One ``repro serve`` subprocess on a free port (optionally probed)."""

    def __init__(self, data_dir: Path, log: Path, traced: tuple[Path, Path] | None = None):
        serve = ["serve", "--data-dir", str(data_dir), "--port", "0", "--log-level", "warning"]
        if traced:
            command = [sys.executable, str(Path(__file__).resolve()), "serve-daemon", *map(str, traced), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        self._log = open(log, "w")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True, env=child_env()
        )
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"the daemon did not start; see {log}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def stop(self) -> None:
        """Interrupt (graceful shutdown, shard locks released) and reap."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()


def _rows_json(table, indices) -> list[dict]:
    return [table.row(int(i)) for i in indices]


def serve_setup(pool, sizes: Sizes, data_dir: Path, log: Path, traced=None) -> tuple[Daemon, float]:
    """Start a daemon and create its streams; the daemon and the seconds taken."""
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir(parents=True)
    bodies = [
        json.dumps({
            "name": f"s{s}",
            "rows": _rows_json(pool, range(s * sizes.serve_seed_rows, (s + 1) * sizes.serve_seed_rows)),
            "config": {"model": MODEL, **PARAMS, "k": K, "skyline": [list(p) for p in SKYLINE]},
        }).encode()
        for s in range(sizes.serve_streams)
    ]
    start = time.perf_counter()
    daemon = Daemon(data_dir, log, traced)
    client = Client(daemon.port)
    try:
        for body in bodies:
            status, payload = client.request("POST", "/streams", body)
            if status != 201:
                raise RuntimeError(f"stream creation returned {status}: {payload[:300]!r}")
    except BaseException:
        client.close()
        daemon.stop()
        raise
    client.close()
    return daemon, time.perf_counter() - start


def serve_plan(pool, sizes: Sizes, seed: int, count: int) -> list[tuple[int, str, bytes, int]]:
    """``count`` writes: round-robin over streams, append/delete/update per visit.

    Each entry is ``(stream, kind, body, row change)``; positions are drawn
    against the row count the stream will have when the write arrives.
    """
    rng = random.Random(seed)
    rows = [sizes.serve_seed_rows] * sizes.serve_streams
    first_extra = sizes.serve_streams * sizes.serve_seed_rows
    extra = pool.n_rows - first_extra
    cursor = 0
    plan = []
    for index in range(count):
        stream = index % sizes.serve_streams
        kind = ("append", "delete", "update")[(index // sizes.serve_streams) % 3]
        if kind == "append":
            picks = [first_extra + (cursor + i) % extra for i in range(sizes.serve_append)]
            cursor += sizes.serve_append
            body, change = {"rows": _rows_json(pool, picks)}, sizes.serve_append
        elif kind == "delete":
            positions = sorted(rng.sample(range(rows[stream]), sizes.serve_delete))
            body, change = {"positions": positions}, -sizes.serve_delete
        else:
            positions = sorted(rng.sample(range(rows[stream]), sizes.serve_update))
            picks = [rng.randrange(pool.n_rows) for _ in positions]
            body, change = {"positions": positions, "rows": _rows_json(pool, picks)}, 0
        rows[stream] += change
        plan.append((stream, kind, json.dumps(body).encode(), change))
    return plan


@dataclass
class ServeLog:
    """What the two client threads saw during one measured window."""

    write_latency_s: list = field(default_factory=list)
    writer_lag_s: list = field(default_factory=list)
    read_latency_s: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    writes: int = 0
    reads: int = 0
    row_change: list = field(default_factory=list)


def serve_measure(daemon: Daemon, plan, sizes: Sizes, seed: int, seconds: float) -> ServeLog:
    """Open-loop writer + closed-loop reader (with think time) for ``seconds``."""
    log = ServeLog(row_change=[0] * sizes.serve_streams)
    latest = [0] * sizes.serve_streams
    start = time.perf_counter() + 0.05
    end = start + seconds

    def writer() -> None:
        client = Client(daemon.port)
        free = time.perf_counter()
        try:
            for index, (stream, kind, body, change) in enumerate(plan):
                due = start + index / sizes.serve_write_rate
                if due >= end or time.perf_counter() >= end:
                    break
                while (now := time.perf_counter()) < due:
                    time.sleep(min(due - now, 0.05))
                sent = time.perf_counter()
                log.writer_lag_s.append(sent - max(due, free))
                log.writes += 1
                try:
                    status, payload = client.request("POST", f"/streams/s{stream}/{kind}", body)
                except (OSError, http.client.HTTPException) as error:
                    log.failures.append(f"write {index}: {error}")
                    client.close()
                    client = Client(daemon.port)
                    free = time.perf_counter()
                    continue
                free = time.perf_counter()
                log.write_latency_s.append(free - due)
                if status != 200:
                    log.failures.append(f"write {index} {kind} s{stream}: HTTP {status}")
                    continue
                version = json.loads(payload)["version"]["version"]
                if version <= latest[stream]:
                    log.failures.append(f"s{stream}: version {version} after {latest[stream]}")
                latest[stream] = version
                log.row_change[stream] += change
        finally:
            client.close()

    def reader() -> None:
        rng = random.Random(seed + 1)
        client = Client(daemon.port)
        try:
            while time.perf_counter() < start:
                time.sleep(0.001)
            while (begin := time.perf_counter()) < end:
                stream = rng.randrange(sizes.serve_streams)
                version = rng.randint(0, latest[stream])
                audit = log.reads % 2 == 1
                path = f"/streams/s{stream}/versions/{version}" + ("/audit" if audit else "")
                log.reads += 1
                try:
                    status, payload = client.request("GET", path)
                except (OSError, http.client.HTTPException) as error:
                    log.failures.append(f"read {path}: {error}")
                    client.close()
                    client = Client(daemon.port)
                    continue
                log.read_latency_s.append(time.perf_counter() - begin)
                time.sleep(READ_THINK_S)
                if status != 200:
                    log.failures.append(f"read {path}: HTTP {status}")
                    continue
                body = json.loads(payload)
                got = body["version"] if audit else body["version"]["version"]
                if got != version:
                    log.failures.append(f"read {path}: returned version {got}")
        finally:
            client.close()

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    if any(thread.is_alive() for thread in threads):
        log.failures.append("a client thread did not finish")
    return log


def serve_scrape(daemon: Daemon, sizes: Sizes, log: ServeLog) -> dict:
    """Final row counts (checked) and the daemon's own metrics."""
    client = Client(daemon.port)
    try:
        for stream in range(sizes.serve_streams):
            status, payload = client.request("GET", f"/streams/s{stream}")
            expected = sizes.serve_seed_rows + log.row_change[stream]
            rows = json.loads(payload)["stream"]["rows"] if status == 200 else None
            if rows != expected:
                log.failures.append(f"s{stream}: final rows {rows} != {expected}")
        status, payload = client.request("GET", "/metrics")
        return json.loads(payload) if status == 200 else {}
    finally:
        client.close()


def serve_daemon(spans: str, summary: str, argv: list[str]) -> int:
    """A probed ``repro serve``: the per-layer summary is written at shutdown."""
    recorder = _recorder(spans)
    from repro.cli import main

    try:
        return main(argv)
    finally:
        Path(summary).write_text(json.dumps(recorder.summary()))
        recorder.dump(Path(spans))


if __name__ == "__main__":
    role, arguments = sys.argv[1], sys.argv[2:]
    if role == "batch":
        print(json.dumps(batch_release(arguments[0], None if arguments[1] == "-" else arguments[1])))
    elif role == "stream":
        print(json.dumps(stream_run(**json.loads(arguments[0]))))
    elif role == "serve-daemon":
        sys.exit(serve_daemon(arguments[0], arguments[1], arguments[2:]))
    elif role == "record-reference":
        record_reference(int(arguments[0]), range(int(arguments[1])), HERE / "work")
    else:
        sys.exit(f"unknown role {role!r}")
