"""Smoke tests of the comparison tools under ``tools/``: a checkout
compared with itself must report no difference."""
import subprocess
import sys
from pathlib import Path

import pytest

import poismoe as pm
from poismoe.pipeline import METHODS

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tiny_study(tmp_path_factory):
    """A two-replicate study1 config with short chains."""
    path = tmp_path_factory.mktemp("tools") / "study.json"
    pm.save_config(pm.StudyConfig(
        mode="simulation", design=pm.study_presets("study1", n=60),
        replicates=2, seed=1,
        sem=pm.SemOptions(epsilon=1e-6, max_iters=10, burn_in=2,
                          n_restarts=1)), path)
    return path


def run_tool(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), *map(str, args)],
        capture_output=True, text=True, timeout=170)


def test_fit_compare_of_a_checkout_with_itself_reads_all_identical(
        tiny_study):
    done = run_tool("fit_compare.py", tiny_study, ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    pairs = [line for line in lines if line.split()[1] in METHODS]
    assert len(pairs) == 6
    for line in pairs:
        assert line.split()[2] == "=", line
    assert "byte-identical: 6" in lines
    assert lines[-1].endswith("bit-identical")


def test_fit_compare_summary_of_a_checkout_with_itself_reads_the_same(
        tiny_study):
    done = run_tool("fit_compare.py", tiny_study, ROOT, ROOT, "--summary")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    rows = [line for line in lines[lines.index(
        "method block M L U (base | new)") + 1:] if " | " in line]
    assert [row.split()[0] for row in rows] == [
        method for method in METHODS for _ in pm.replication.BLOCKS]
    for row in rows:
        base, new = row.split(" | ")
        assert base.split()[2:] == new.split()
    chains = [line.split() for line in lines if line.startswith("chains ")]
    assert {fields[1] for fields in chains} == set(METHODS)
    for _, method, end, base, new in chains:
        assert base == new and int(base) > 0
    for method in METHODS:  # one chain per replicate and restart
        assert sum(int(fields[3]) for fields in chains
                   if fields[1] == method) == 2


def test_gate_replay_of_a_checkout_with_itself_reports_no_difference(
        tiny_study):
    done = run_tool("gate_replay.py", tiny_study, ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    header, *rows, verdict = done.stdout.strip().splitlines()
    assert verdict.endswith(": yes")
    assert [row.split()[0] for row in rows] == ["ml", "ridge", "lt"]
    for row in rows:
        fields = dict(zip(header.split(), row.split()))
        assert int(fields["calls"]) > 0
        assert fields["identical"] == fields["calls"]
        for key in ("steps", "trials", "capped"):
            base, new = fields[key].split("->")
            assert base == new
        for key in ("f_gap", "f_gap_capped", "coef_gap", "prob_gap"):
            assert float(fields[key]) == 0.0
