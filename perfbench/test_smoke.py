"""Smoke test of the benchmark itself, at 1/100 scale.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

A few cycles per workload must pass every check and print every named
metric with its unit; a wrong expected count must surface as a failed
operation and a non-zero exit; and without the program's sources the
command must fail without printing a result.
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
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = run.BENCHMARK
SMALL = ("--seed", "1", "--seconds", "1")


@pytest.fixture(autouse=True)
def small_scale(monkeypatch):
    monkeypatch.setattr(run, "DIVISOR", 100)


def run_main(capsys, *argv: str) -> tuple[int, str, dict]:
    code = run.main(list(argv))
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_run_passes_and_names_every_metric(capsys, workload):
    code, out, result = run_main(capsys, "--workload", workload, *SMALL)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    check_metrics(result, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[0] for line in out.splitlines() if line.strip()}
    cls = WORKLOADS[workload]
    for name in (*cls.ops, *cls.composites, "setup_s", "peak_rss_mb",
                 "failed_frac"):
        assert name in printed


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer(capsys, workload):
    code, out, result = run_main(
        capsys, "--workload", workload, "--trace", "1", *SMALL
    )
    assert code == 0
    assert result["correct"] is True
    check_metrics(result, BENCHMARK["per_layer"])
    assert result["metrics"]["findings"]["value"] > 0
    assert "obs.trace_overhead_frac" in out


def test_wrong_expected_count_fails_the_run(capsys, monkeypatch):
    from repro.datagen.orggen import GeneratedOrg

    original = GeneratedOrg.expected_counts

    def off_by_one(self):
        counts = original(self)
        counts["standalone_users"] += 1
        return counts

    monkeypatch.setattr(GeneratedOrg, "expected_counts", off_by_one)
    code, _, result = run_main(capsys, "--workload", "audit", *SMALL)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "audit",
         *SMALL],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
