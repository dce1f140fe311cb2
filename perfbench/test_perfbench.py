"""Self-test of the benchmark at its smallest inputs.

    python3 -m pytest perfbench/test_perfbench.py

Every metric named in ``BENCHMARK.json`` must print with its unit on every
workload, the outputs must check out, two runs at one seed must give the
same exact counts, and the benchmark must refuse to run without the
program's source.
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
SPEC = json.loads((HERE / "layers.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
UNITS = {trace: {m["name"]: m["unit"] for m in BENCH[section]}
         for trace, section in ((0, "end_to_end"), (1, "per_layer"))}
SEED = 7
REPEATED = {
    0: ("wire_bytes", "supersteps", "vtx_imbalance"),
    1: ("mesh.elements_final", "store.bytes_written"),
}

sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 0.5):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace),
         "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def results():
    """Two smoke runs per workload and trace mode, at one seed."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            for rep in (0, 1):
                done = run(workload, trace)
                assert done.returncode == 0, done.stderr
                out[workload, trace, rep] = json.loads(
                    done.stdout.strip().splitlines()[-1])
    return out


def test_layer_table_covers_every_per_layer_metric():
    assert "setup_s" in UNITS[0]
    table = {name for row in SPEC["table"] for name in row["metrics"]}
    assert table == set(UNITS[1])
    assert set(SPEC["exact"]) <= set(UNITS[0]) | set(UNITS[1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_prints_with_unit(results, workload, trace):
    result = results[workload, trace, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == UNITS[trace])
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_exact_counts_repeat_at_one_seed(results, workload, trace):
    first = results[workload, trace, 0]["metrics"]
    second = results[workload, trace, 1]["metrics"]
    for name in REPEATED[trace]:
        assert first[name]["value"] == second[name]["value"], name


def test_layers_are_exercised_where_the_table_says(results):
    per_layer = {w: results[w, 1, 0]["metrics"] for w in WORKLOADS}
    for name in ("partition.ghost_s", "partition.dadapt_s",
                 "store.load_at_s", "partitioners.hypergraph_s"):
        assert per_layer["pipeline"][name]["value"] > 0, name
        assert per_layer["halo"][name]["value"] == 0, name
    assert per_layer["churn"]["partition.migrate.relink_s"]["value"] > 0
    assert per_layer["halo"]["partition.migrate_s"]["value"] == 0
    assert per_layer["halo"]["partition.sync_s"]["value"] > 0
    assert per_layer["churn"]["partition.sync_s"]["value"] == 0
    for metrics in per_layer.values():
        assert 0 < metrics["obs.span_coverage_pct"]["value"] <= 100


def test_compare_flags_a_changed_exact_count(tmp_path, results):
    def record(result):
        return {"stamp": {"workload": "halo", "trace": 0, "seed": SEED,
                          "scale": "smoke", "inputs": {}},
                "result": result}

    base = results["halo", 0, 0]
    changed = json.loads(json.dumps(base))
    changed["metrics"]["wire_bytes"]["value"] += 1
    old, same, new = (tmp_path / f"{n}.json" for n in ("old", "same", "new"))
    old.write_text(json.dumps({"runs": [record(base)]}))
    same.write_text(json.dumps({"runs": [record(base)]}))
    new.write_text(json.dumps({"runs": [record(changed)]}))
    assert compare.main([str(old), str(same)]) == 0
    assert compare.main([str(old), str(new)]) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work"))
    done = run("halo", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
