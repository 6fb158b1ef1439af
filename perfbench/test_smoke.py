"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Chains are cut to a few iterations (``--smoke``), so this checks the
plumbing, not the figures.
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
sys.path.insert(0, str(HERE))

from worker import TRACE_POINTS  # noqa: E402
from workloads import (HEART_COMPLETE_ROWS, HEART_MISSING_ROWS,  # noqa: E402
                       HEART_POPULATION_SEED, WORKLOADS, heart_path,
                       write_heart_file)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_worker(workload: str, trace: int, seed: int = 3) -> dict:
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    if workload == "heart30":
        write_heart_file(heart_path(workdir), HEART_POPULATION_SEED)
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "study", "--workload",
         workload, "--seed", str(seed), "--workdir", str(workdir),
         "--replicates", "2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_names_the_registered_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result = run_bench(workload, trace)
    assert result["correct"] is True
    assert result["attempted"] == 2 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_stays_in_its_own_process(workload):
    plain = run_worker(workload, trace=0)
    traced = run_worker(workload, trace=1)
    assert plain["wrapped"] == []
    assert "layers" not in plain
    traced_names = {f"{module}.{attr}" for module, attr, _ in TRACE_POINTS}
    assert traced_names <= set(traced["wrapped"])
    # tracing observes the fits without changing them
    assert plain["summaries"] == traced["summaries"]
    assert plain["fits"] == traced["fits"]


def test_same_seed_gives_identical_results():
    first = run_worker("study2", trace=0, seed=11)
    second = run_worker("study2", trace=0, seed=11)
    assert json.dumps(first["summaries"]) == json.dumps(second["summaries"])
    assert first["fits"] == second["fits"]
    other = run_worker("study2", trace=0, seed=12)
    assert json.dumps(other["summaries"]) != json.dumps(first["summaries"])


def test_heart_file_has_complete_and_missing_rows(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from poismoe import load_heart_dataset

    path = write_heart_file(tmp_path / "heart.csv", seed=5)
    lines = path.read_text().splitlines()
    assert len(lines) == HEART_COMPLETE_ROWS + HEART_MISSING_ROWS
    assert sum("?" in line for line in lines) == HEART_MISSING_ROWS
    assert load_heart_dataset(path).n == HEART_COMPLETE_ROWS
    again = write_heart_file(tmp_path / "again.csv", seed=5)
    assert again.read_text() == path.read_text()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
