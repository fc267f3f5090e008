"""Tiny-corpus smoke tests of the benchmark.

    python3 -m pytest perfbench/tests -q

Each test runs ``perfbench/run.py`` as a harness would, on corpora cut
to a fraction of their size with ``--scale``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import corpora  # noqa: E402
from gpgl.datasets import load_tudataset  # noqa: E402
from gpgl.graph import connected_components  # noqa: E402

WORKLOADS = ("mol-export", "dense-layout", "train-cv")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, list[dict]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--scale", "0.1"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc.returncode, [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_end_to_end_metric(workload):
    code, lines = _run(workload, seed=0, trace=0)
    assert code == 0
    result = lines[-1]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "environment" in lines[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_repeats_its_counts(workload):
    runs = [_run(workload, seed=1, trace=1) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for code, lines in runs:
        assert code == 0
        assert lines[-1]["correct"]
        assert {k: v["unit"] for k, v in lines[-1]["metrics"].items()} == expected
        assert lines[-1]["metrics"]["trace.recompose_mismatches"]["value"] == 0
    counts = [next(ln["counts"] for ln in lines if "counts" in ln) for _, lines in runs]
    assert counts[0] == counts[1]
    digests = [{r["digest"] for ln in lines if "repetitions" in ln for r in ln["repetitions"]} for _, lines in runs]
    assert digests[0] == digests[1] and len(digests[0]) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run("mol-export", seed=0, trace=0, cwd=tmp_path)
    assert code != 0 and lines == []


def test_corpora_are_seeded_and_stratified(tmp_path):
    mols = corpora.molecules(5, 20)
    assert mols == corpora.molecules(5, 20) and mols != corpora.molecules(6, 20)
    # Sizes follow from the count and the range, not from the seed.
    assert sorted(n for n, *_ in mols) == sorted(n for n, *_ in corpora.molecules(6, 20))
    egos = [corpora.ego_networks(seed, 20) for seed in (5, 6)]
    assert egos[0] != egos[1]
    assert [sorted((n, len(e)) for n, e, *_ in ego) for ego in egos] == 2 * [sorted((n, len(e)) for n, e, *_ in egos[0])]
    ds = load_tudataset(corpora.write_tu(tmp_path, "M", mols))
    comps = [len(connected_components(g)) for g in ds.graphs]
    assert comps.count(2) == 2 and set(comps) == {1, 2}
    assert sorted(ds.labels.tolist()) == [0] * 10 + [1] * 10
