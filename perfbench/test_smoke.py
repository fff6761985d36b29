"""Smoke test of the benchmark itself, at tiny sizes:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import FUNCTIONS
from workloads import Corpus, Derand, Randomized, Search

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "derand": Derand(sizes=(6, 8), fixed=False),
    "search": Search(sizes=(8, 10)),
    "randomized": Randomized(n=10),
    "corpus": Corpus(max_n=5),
}


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics(name):
    res = run.run(name, seed=1, seconds=0.2, trace=False, workload=TINY[name])
    assert res["failures"] == []
    assert res["attempted"] >= 1
    assert res["units"] == _declared("end_to_end")
    assert set(res["metrics"]) == set(_declared("end_to_end"))
    assert all(v > 0 for v in res["metrics"].values())
    line = json.loads(run.result_line(res))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0


def _assert_unwrapped():
    """Every traced name in every matchiso module is its home function."""
    for layer, names in FUNCTIONS.items():
        home = sys.modules[f"matchiso.{layer}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            assert not hasattr(original, "__perfbench_wrapped__"), f"{layer}.{fn_name}"
            assert original.__module__ == f"matchiso.{layer}"
            for key, ns in sys.modules.items():
                if key == "matchiso" or key.startswith("matchiso."):
                    for attr, value in vars(ns).items():
                        if getattr(value, "__name__", None) == fn_name and callable(value):
                            assert value is original, f"{key}.{attr}"


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_restores_and_separates_layers(name):
    res = run.run(name, seed=2, seconds=0.2, trace=True, workload=TINY[name])
    assert res["failures"] == []
    assert res["units"] == _declared("per_layer")
    metrics = res["metrics"]
    _assert_unwrapped()
    faces_calls = sum(v for k, v in metrics.items() if k.startswith("faces.") and k.endswith(".calls"))
    small_calls = sum(v for k, v in metrics.items() if k.startswith("smallgraphs.") and k.endswith(".calls"))
    assert (faces_calls > 0) == (name == "derand")
    assert (small_calls > 0) == (name == "corpus")
    assert metrics["trace.ops"] == res["attempted"]


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
