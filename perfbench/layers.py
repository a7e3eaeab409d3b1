"""Per-layer probes: spans and counters timed around each layer's public calls.

The probes are installed from outside the program: :func:`install` wraps the
public functions and methods listed in :data:`PROBES` in place, so every call
site inside ``repro`` goes through the wrapper.  Nothing under ``src/`` knows
about them.  A wrapper records one span (metric, layer, start, end, parent)
per call and adds the call's counters when it is the outermost call of its
metric on the thread, so a batched estimator that delegates to the backend is
counted once.  Spans stay in memory until the run ends; :meth:`Recorder.dump`
writes them out and :meth:`Recorder.summary` turns them into the per-layer
totals and self times.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

def _bandwidths(args, kwargs, result, owner) -> dict:
    return {"bandwidths": len(args[0] if args else kwargs["bandwidths"])}


def _one_bandwidth(args, kwargs, result, owner) -> dict:
    return {"bandwidths": 1}


def _fit(args, kwargs, result, owner) -> dict:
    return {"calls": 1}


def _removed(args, kwargs, result, owner) -> dict:
    return {"rows": len(args[1] if len(args) > 1 else kwargs["removed"])}


def _updated(args, kwargs, result, owner) -> dict:
    return {"rows": len(args[1] if len(args) > 1 else kwargs["positions"])}


def _checked(args, kwargs, result, owner) -> dict:
    return {"groups": len(result), "accepted": int(sum(bool(ok) for ok in result))}


def _posterior_groups(args, kwargs, result, owner) -> dict:
    return {"groups": len(args[2] if len(args) > 2 else kwargs["groups"])}


def _grouped_groups(args, kwargs, result, owner) -> dict:
    return {"groups": len(args[2] if len(args) > 2 else kwargs["offsets"])}


def _mondrian(args, kwargs, result, owner) -> dict:
    statistics = owner.statistics
    return {
        "split_attempts": statistics.n_split_attempts,
        "rejected_splits": statistics.n_rejected_splits,
    }


def _none(args, kwargs, result, owner) -> dict:
    return {}


_APPEND = "repro.knowledge.backend:FactoredPriorBackend.append_rows"

# (layer, metric, "module:qualname", counters(args, kwargs, result, owner) -> dict);
# ``owner`` is ``self`` for methods (None for functions) and ``args`` exclude it.
PROBES: tuple[tuple[str, str, str, Callable], ...] = (
    ("knowledge", "knowledge.fit", "repro.knowledge.backend:FactoredPriorBackend.fit", _fit),
    ("knowledge", "knowledge.contract", "repro.knowledge.backend:FactoredPriorBackend.matrices", _bandwidths),
    ("knowledge", "knowledge.contract", "repro.knowledge.backend:FactoredPriorBackend.matrix_for_codes", _one_bandwidth),
    ("knowledge", "knowledge.contract", "repro.knowledge.prior:KernelPriorEstimator.prior_for_table", _one_bandwidth),
    ("knowledge", "knowledge.contract", "repro.knowledge.prior:BatchedKernelPriorEstimator.prior_for_table", _bandwidths),
    ("knowledge", "knowledge.delta", _APPEND, _none),
    ("knowledge", "knowledge.delta", "repro.knowledge.backend:FactoredPriorBackend.remove_rows", _removed),
    ("knowledge", "knowledge.delta", "repro.knowledge.backend:FactoredPriorBackend.update_rows", _updated),
    ("privacy", "privacy.check", "repro.privacy.models:*.is_satisfied_batch", _checked),
    ("privacy", "privacy.risk", "repro.privacy.disclosure:attack_result", _none),
    ("inference", "inference.posterior", "repro.inference.omega:posterior_for_groups", _posterior_groups),
    ("inference", "inference.posterior", "repro.inference.omega:grouped_posterior", _grouped_groups),
    ("anonymize", "anonymize.partition", "repro.anonymize.mondrian:MondrianAnonymizer.partition", _mondrian),
    ("anonymize", "anonymize.partition", "repro.anonymize.mondrian:MondrianAnonymizer.partition_tree", _mondrian),
    ("anonymize", "anonymize.partition", "repro.anonymize.mondrian:MondrianAnonymizer.partition_forest", _mondrian),
    ("audit", "audit.prepare", "repro.audit.engine:SkylineAuditEngine.prepare", _none),
    ("audit", "audit.adversary", "repro.audit.engine:SkylineAuditEngine.audit", _none),
    ("audit", "audit.incremental", "repro.audit.engine:SkylineAuditEngine.audit_incremental", _none),
    ("stream", "stream.op", "repro.stream.publisher:IncrementalPublisher.append", _none),
    ("stream", "stream.op", "repro.stream.publisher:IncrementalPublisher.delete", _none),
    ("stream", "stream.op", "repro.stream.publisher:IncrementalPublisher.update", _none),
    ("stream", "stream.store_add", "repro.stream.store:ReleaseStore.add", _none),
)

class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        # span: [metric, layer, start, end, parent index or -1, thread id]
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.enabled = True

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded (set-up and checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def span(self, metric: str, layer: str):
        """Context manager recording one span; yields whether it is outermost."""
        return _Span(self, metric, layer)

    def count(self, metric: str, values: dict) -> None:
        with self._lock:
            for key, value in values.items():
                self.counters[f"{metric}.{key}"] += value

    # -- results ----------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Totals per metric (outermost spans only) and self time per layer."""
        spans = list(self.spans)
        child_time = [0.0] * len(spans)
        for metric, layer, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (metric, layer, start, end, parent, _) in enumerate(spans):
            duration = end - start
            out[f"{layer}.self_s"] += duration - child_time[index]
            if not self._has_ancestor(spans, parent, metric):
                out[f"{metric}_s"] += duration
                out[f"{metric}.spans"] += 1
        out.update(self.counters)
        return dict(out)

    @staticmethod
    def _has_ancestor(spans, parent: int, metric: str) -> bool:
        while parent >= 0:
            if spans[parent][0] == metric:
                return True
            parent = spans[parent][4]
        return False

    def dump(self, path: Path) -> None:
        """Write every span (times relative to the first) as JSON."""
        origin = min((span[2] for span in self.spans), default=0.0)
        payload = {
            "fields": ["metric", "layer", "start_s", "end_s", "parent", "thread"],
            "spans": [
                [m, l, round(s - origin, 9), round(e - origin, 9), p, t]
                for m, l, s, e, p, t in self.spans
            ],
            "counters": dict(self.counters),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


class _Span:
    __slots__ = ("recorder", "metric", "layer", "index")

    def __init__(self, recorder: Recorder, metric: str, layer: str):
        self.recorder = recorder
        self.metric = metric
        self.layer = layer

    def __enter__(self) -> bool:
        recorder = self.recorder
        stack = recorder._stack()
        parent = stack[-1] if stack else -1
        spans = recorder.spans
        outermost = not recorder._has_ancestor(spans, parent, self.metric)
        record = [self.metric, self.layer, time.perf_counter(), 0.0, parent, threading.get_ident()]
        with recorder._lock:
            self.index = len(spans)
            spans.append(record)
        stack.append(self.index)
        return outermost

    def __exit__(self, *exc) -> None:
        self.recorder.spans[self.index][3] = time.perf_counter()
        self.recorder._stack().pop()


def _resolve(target: str) -> list[tuple[Any, str, Any]]:
    """``[(owner, attribute, original)]`` for one probe target."""
    module_name, qualname = target.split(":")
    module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    if qualname.startswith("*."):
        name = qualname[2:]
        found = []
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module_name and name in cls.__dict__:
                found.append((cls, name, cls.__dict__[name]))
        return found
    if "." in qualname:
        class_name, name = qualname.split(".")
        cls = getattr(module, class_name)
        return [(cls, name, cls.__dict__[name])]
    return [(module, qualname, getattr(module, qualname))]


def _wrap(recorder: Recorder, layer: str, metric: str, counters: Callable, original, method: bool, appended: bool):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return original(*args, **kwargs)
        owner = args[0] if method else None
        call_args = args[1:] if method else args
        # FactoredPriorBackend.append_rows gets the grown table; the rows it
        # folds in are the difference to the fitted one.
        fitted_rows = owner.table.n_rows if appended and owner.table is not None else 0
        with recorder.span(metric, layer) as outermost:
            result = original(*args, **kwargs)
        if outermost:
            if appended:
                values = {"rows": call_args[0].n_rows - fitted_rows}
            else:
                values = counters(call_args, kwargs, result, owner)
            recorder.count(metric, values)
        return result

    return wrapper


def _wrap_chunks(recorder: Recorder, original):
    @functools.wraps(original)
    def iter_chunks(*args, **kwargs):
        for chunk in original(*args, **kwargs):
            if recorder.enabled:
                recorder.count("data", {"chunks": 1})
            yield chunk

    return iter_chunks


def install(recorder: Recorder) -> None:
    """Wrap every probe target in place (call once, before the workload runs)."""
    import repro  # noqa: F401  (loads every layer, so name bindings exist)
    import repro.data.source as source
    import repro.stream  # noqa: F401

    for layer, metric, target, counters in PROBES:
        for owner, name, original in _resolve(target):
            method = inspect.isclass(owner)
            wrapped = _wrap(recorder, layer, metric, counters, original, method, target == _APPEND)
            if method:
                setattr(owner, name, wrapped)
                continue
            # A function is bound by name in every module that imported it.
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and getattr(module, name, None) is original:
                    setattr(module, name, wrapped)
    for name in ("InMemoryTableSource", "CsvTableSource", "NpzTableSource"):
        cls = getattr(source, name)
        cls.iter_chunks = _wrap_chunks(recorder, cls.__dict__["iter_chunks"])
