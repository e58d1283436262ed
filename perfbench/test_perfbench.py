"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They run each workload for a minimal length, check that every metric
named in BENCHMARK.json is printed with its unit, and check that the
correctness gate catches a perturbed reference.
"""

import copy
import json
import shutil
import subprocess
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

import tracing
import workloads

ROOT = workloads.ROOT
RUN = ["python3", "perfbench/run.py"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=900
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def units(entries) -> dict:
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_end_to_end(workload):
    done = run_benchmark("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == units(BENCHMARK["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert "value check against the stored reference for seed 1" in done.stdout
    assert "failed_ratio" in done.stdout


def test_smoke_traced_run():
    done = run_benchmark(
        "--workload", "study_table1", "--seed", "1", "--seconds", "1", "--trace", "1"
    )
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] and result["failed"] == 0
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == units(BENCHMARK["per_layer"])
    absent = {name: e["absent"] for name, e in result["metrics"].items() if "absent" in e}
    assert not absent


def test_benchmark_json_matches_the_traced_metrics():
    listed = [(e["name"], e["unit"], e["better"]) for e in BENCHMARK["per_layer"]]
    assert listed == tracing.per_layer_spec()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def reference_results(workload, seed="1"):
    stored = workloads.load_refs(workload)[seed]
    return [(j, copy.deepcopy(stored[str(j)]), None) for j in range(workload.pool)]


def perturb(out: dict, rel: float) -> None:
    """Change the first leaf of an output: floats by ``rel``, integers by one."""
    key = next(iter(out))
    if isinstance(out[key], dict):
        perturb(out[key], rel)
    elif isinstance(out[key], float):
        out[key] *= 1.0 + rel
    else:
        out[key] += 1


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS.values()), ids=lambda w: w.name)
def test_perturbed_reference_trips_the_gate(workload):
    refs = workloads.load_refs(workload)
    results = reference_results(workload)
    assert workloads.gate(workload, 1, results, refs)[0] == {}
    perturb(results[-1][1], 1e-6)
    failed, _ = workloads.gate(workload, 1, results, refs)
    assert list(failed) == [results[-1][0]]


def test_gate_tolerance_is_relative_1e8_for_floats():
    workload = workloads.WORKLOADS["test_long_grid"]
    refs = workloads.load_refs(workload)
    for rel, ok in ((3e-10, True), (1e-7, False)):
        results = reference_results(workload, "2")
        perturb(results[0][1], rel)
        assert (workloads.gate(workload, 2, results, refs)[0] == {}) is ok


def test_gate_says_when_no_reference_exists():
    workload = workloads.WORKLOADS["study_table1"]
    results = reference_results(workload)
    failed, note = workloads.gate(workload, 987654, results, workloads.load_refs(workload))
    assert failed == {} and "skipped" in note


def test_missing_function_is_reported_absent():
    assert workloads.use_source_tree()
    import mfdglht

    lib = SimpleNamespace(
        **{name: getattr(mfdglht, name) for name in dir(mfdglht) if not name.startswith("_")}
    )
    del lib.ustat_within_fast
    lib.k4_hat = lambda only_one_argument: None
    workload = workloads.WORKLOADS["study_table1"]
    state = workload.setup(lib, 1, None)
    tr = tracing.Tracer(lib)
    out, error, issues = tracing.traced_op(workload, tr, state, 0)
    assert error is None and issues == []
    assert out == workloads.load_refs(workload)["1"]["0"]
    metrics = tracing.layer_metrics(workload.name, tr, {"overhead_ratio": 1.0})
    within = metrics["study_table1.dof.within_ms"]
    assert within["value"] is None and "ustat_within_fast is not exported" in within["absent"]
    k4 = metrics["study_table1.dof.k4_ms"]
    assert k4["value"] is None and "k4_hat rejects the replayed call" in k4["absent"]
    assert metrics["study_table1.dof.combine_self_ms"]["value"] is None
    assert metrics["study_table1.dof.cross_ms"]["value"] > 0
    assert metrics["study_table1.glht.build_ms"]["value"] > 0


def test_without_sources_exits_nonzero():
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(
            ROOT / "perfbench", Path(tmp) / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        done = run_benchmark(
            "--workload", "study_table1", "--seed", "1", "--seconds", "1", "--trace", "0",
            cwd=tmp,
        )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
