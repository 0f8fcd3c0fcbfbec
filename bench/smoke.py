"""Smoke tests of the benchmark itself (not part of the library suite).

    python3 -m pytest -q bench/smoke.py

The name keeps pytest's discovery from collecting this file; pass it by name.

Runs every workload at tiny size, traced and untraced, and checks that every
metric BENCHMARK.json names is emitted with its unit and that no unit failed.
It also checks that a wrong or missing report digest, or a unit that raises,
is counted as a failed unit.  The two q = 121 verdict workloads keep their
real unit size, so this takes a few minutes.
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402


def _copy_tree(dest: Path) -> Path:
    """A checkout of the library and the benchmark that a test may break."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "bench", ignore=ignore)
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def _result(res: subprocess.CompletedProcess) -> dict:
    return json.loads(res.stdout.strip().splitlines()[-1])


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_matches_the_metric_tables():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric(workload):
    for trace, specs in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        res = _run(ROOT, workload, trace)
        assert res.returncode == 0, res.stderr[-2000:]
        out = _result(res)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert {k: v["unit"] for k, v in out["metrics"].items()} == {
            m["name"]: m["unit"] for m in specs}
        record = json.loads((HERE / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
        assert record["failed_ratio"] == 0
        if trace:
            t = record["trace"]
            self_sum = sum(row["self_s"] for row in t["functions"].values())
            assert self_sum + t["outside_s"] == pytest.approx(t["wall_s"], rel=1e-9, abs=1e-6)
        else:
            assert all(v["value"] > 0 for v in out["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = _run(tmp_path, "sweep", 0)
    assert res.returncode != 0
    assert res.stdout.strip() == ""


@pytest.mark.parametrize("corruption", ["changed", "missing"])
def test_wrong_digest_fails_the_unit(tmp_path, corruption):
    import workloads

    key = workloads.build("sweep", 3, True, 1).units[0].key  # the first unit always runs
    q, index, k = key.split(":")
    tree = _copy_tree(tmp_path)
    path = tree / "bench" / "digests.json"
    table = json.loads(path.read_text())
    row = table["sweep"][q][int(index)]
    start = 8 * (int(k) - 3)
    if corruption == "changed":
        flipped = "".join("0" if c != "0" else "1" for c in row[start:start + 8])
        table["sweep"][q][int(index)] = row[:start] + flipped + row[start + 8:]
        expect = "!= recorded"
    else:
        table["sweep"][q][int(index)] = row[:start]
        expect = "no recorded digest"
    path.write_text(json.dumps(table))

    res = _run(tree, "sweep", 0)
    assert res.returncode == 0, res.stderr[-2000:]  # other units completed and were measured
    out = _result(res)
    assert out["correct"] is False and out["failed"] >= 1
    record = json.loads((tree / "bench" / "out" / "sweep-seed3-trace0.json").read_text())
    assert any(f["key"] == key and expect in " ".join(f["problems"])
               for f in record["failures"])


def test_unit_that_raises_fails_the_run(tmp_path):
    tree = _copy_tree(tmp_path)
    with open(tree / "src" / "ellnmds" / "extendability.py", "a") as fh:
        fh.write("\n\ndef verify_main_theorem(*args, **kwargs):\n"
                 "    raise RuntimeError('injected failure')\n")
    res = _run(tree, "witness-k6", 0)
    assert res.returncode == 1
    out = _result(res)
    assert out["correct"] is False
    assert out["attempted"] >= 1 and out["failed"] == out["attempted"]
    assert set(out["metrics"]) == set(run.END_TO_END)
    record = json.loads((tree / "bench" / "out" / "witness-k6-seed3-trace0.json").read_text())
    assert record["failed_ratio"] == 1
    assert "injected failure" in record["failures"][0]["problems"][0]


def test_self_times_add_up_with_worker_threads():
    import tracing

    tr = tracing.Tracer()
    outer = ["outer", 0.0, 10.0, None, None]
    a = ["a", 1.0, 5.0, outer, None]      # two worker spans overlapping in time
    b = ["b", 2.0, 6.0, outer, None]
    inner = ["inner", 3.0, 4.0, a, None]
    tr.spans = [outer, a, b, inner]
    own, outside = tr.attribute(-1.0, 12.0)
    assert outside == pytest.approx(3.0)
    assert sum(own) + outside == pytest.approx(13.0)
    # [2,3) and [4,5) split between a and b; [3,4) split between inner and b
    assert own == pytest.approx([1.0 + 4.0, 1.0 + 0.5 + 0.5, 0.5 + 0.5 + 0.5 + 1.0, 0.5])
