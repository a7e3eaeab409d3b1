"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

It checks that every workload emits every metric BENCHMARK.json declares,
with its unit, in both the untraced and the traced run; that a deliberately
wrong reference makes the batch-publish correctness check fail; and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5
TINY = workloads.TINY


@pytest.fixture
def tiny_reference(tmp_path, monkeypatch) -> Path:
    """A reference recorded from the program at the tiny batch size."""
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(workloads, "REFERENCE", tmp_path / "reference.json")
    workloads.record_reference(TINY.batch_rows, [workloads.batch_data_seed(SEED)], tmp_path)
    return workloads.REFERENCE


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, tiny_reference):
    outcome, report = run.measure(workload, SEED, 2.0, trace, TINY)
    line = run.result_line(outcome, trace)

    assert outcome["failures"] == []
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())
    assert report.lines and all(entry["unit"] and entry["n"] for entry in report.lines)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda entry: entry["audit"][0].update(worst_case_risk=entry["audit"][0]["worst_case_risk"] + 1e-9),
        lambda entry: entry["audit"][-1].update(vulnerable_tuples=entry["audit"][-1]["vulnerable_tuples"] + 1),
        lambda entry: entry.update(digest="0" * 64),
    ],
    ids=["risk", "vulnerable", "digest"],
)
def test_a_wrong_reference_fails_the_batch_check(corrupt, tiny_reference):
    reference = json.loads(tiny_reference.read_text())
    for entry in reference.values():
        corrupt(entry)
    tiny_reference.write_text(json.dumps(reference))

    outcome, _ = run.measure("batch-publish", SEED, 0.1, False, TINY)
    line = run.result_line(outcome, False)

    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-publish", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
