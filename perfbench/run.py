"""Benchmark for mfdglht's studies and single tests, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload study_table1 --seed 1 --seconds 45 --trace 0

Workloads, each one process running a closed loop (the next op starts
when the previous one returns):

  study_table1    size_power_study with 50 reps of Table 1's model2_n3 setting
  test_long_grid  run_glht on one CSV-loaded dataset, n=(40,40,60,60), m=1000

``--trace 0`` measures the named workload end to end. Set-up (import,
ingestion and the warm-up op) is timed in this process and in fresh
child processes, and ``setup_s`` is the median. A few more untimed ops
run before the timed phase starts. ``--trace 1`` is the
separate traced run: for every workload it measures untraced ops, then
traced ops that replay the entry point's public calls in spans, and
reports per-layer metrics named ``<workload>.<layer>.<metric>``.

Every op's output goes through the correctness gate in ``workloads.py``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its unit, the sample counts and the environment.
Spans and the full result are written under ``.perfbench_work/results``.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pin import pin_environment

DROPPED_ENV = pin_environment()

import numpy as np  # noqa: E402  (numpy must load after the BLAS pin)

import envinfo  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    FLOAT_RTOL, WORKLOADS, compare, gate, load_refs, run_op, timed_setup,
)

# (name, unit, better) of the end-to-end metrics, reported for every workload
E2E_METRICS = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p90", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_SAMPLES = 3  # this process's set-up plus fresh child processes
WARMUP_OPS = 2  # untimed ops after the set-up's warm-up op, before timing starts
MIN_TRACED_OPS = 3
WORK = workloads.ROOT / ".perfbench_work"
CHILD = workloads.HERE / "child.py"
CHILD_TIMEOUT_S = 170


def child(role: str, workload, seed: int, workdir) -> dict:
    done = subprocess.run(
        [sys.executable, str(CHILD), role, workload.name, str(seed), str(workdir)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {role} {workload.name} failed:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def closed_loop(fn, first_j: int, seconds: float, min_ops: int = 1):
    """Call fn(j) back to back until ``seconds`` pass and ``min_ops`` ran.

    Returns ([(j, seconds taken, result)], wall seconds of the loop).
    """
    records = []
    start = time.perf_counter()
    j = first_j
    while True:
        t0 = time.perf_counter()
        result = fn(j)
        records.append((j, time.perf_counter() - t0, result))
        j += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(records) >= min_ops:
            return records, elapsed


def fail_all(failed: dict, results, problems: list[str]) -> None:
    for j, _, _ in results:
        failed.setdefault(j, "; ".join(problems))


def end_to_end(workload, seed: int, seconds: float, workdir) -> dict:
    facts = child("prepare", workload, seed, workdir)
    lib, state, first, setup_s = timed_setup(workload, seed, workdir)
    input_problems = workload.verify_inputs(state, facts)

    warm, _ = closed_loop(lambda j: run_op(workload, state, j), 1, 0.0, WARMUP_OPS)
    gc.collect()
    cpu0 = cpu_seconds()
    records, elapsed = closed_loop(
        lambda j: run_op(workload, state, j), 1 + len(warm), seconds
    )
    cpu = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = [(0, *first)] + [(j, out, err) for j, _, (out, err) in warm + records]
    failed, note = gate(workload, seed, results, load_refs(workload))
    if input_problems:
        fail_all(failed, results, input_problems)
    # Cross-check op 0 against a replay of the public calls its entry point makes.
    out, err, issues = tracing.traced_op(workload, tracing.Tracer(lib), state, 0)
    if err is None and first[0] is not None and compare(first[0], out, FLOAT_RTOL):
        issues.append("a rerun of op 0 differs from the warm-up op")
    if err is not None or issues:
        failed[0] = "; ".join([err] if err else issues)

    setups = [setup_s]
    for k in range(1, SETUP_SAMPLES):
        probe = child("setup", workload, seed, workdir)
        setups.append(probe["setup_s"])
        if probe["error"] is not None:
            failed[f"set-up probe {k}"] = probe["error"]
    lat_ms = np.array([dt for _, dt, _ in records]) * 1e3
    ops = len(records)
    values = {
        "ops_per_s": ops / elapsed,
        "latency_ms_p50": float(np.percentile(lat_ms, 50)),
        "latency_ms_p90": float(np.percentile(lat_ms, 90)),
        "cpu_ms_per_op": 1e3 * cpu / ops,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = int(np.sum(lat_ms > values["latency_ms_p90"]))
    notes = {
        "latency_ms_p50": f"n={ops} timed ops; the {1 + WARMUP_OPS} warm-up ops are excluded",
        "latency_ms_p90": f"n={ops}, {beyond} beyond"
        + ("" if beyond >= 10 else "; fewer than 10 samples beyond it"),
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        "cpu_ms_per_op": "process user+sys CPU over the timed ops",
    }
    units = {name: unit for name, unit, _ in E2E_METRICS}
    return {
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
        "notes": notes,
        "attempted": len(results) + SETUP_SAMPLES - 1,
        "failed": failed,
        "reference": note,
    }


def traced_run(seed: int, seconds: float, workdir, spans_path) -> dict:
    share = seconds / (2 * len(WORKLOADS))
    metrics, failed_all, attempted, notes = {}, {}, 0, {}
    with open(spans_path, "w", encoding="utf-8") as spans_fh:
        for workload in WORKLOADS.values():
            wdir = workdir / workload.name
            wdir.mkdir()
            facts = child("prepare", workload, seed, wdir)
            lib, state, first, _ = timed_setup(workload, seed, wdir)
            input_problems = workload.verify_inputs(state, facts)

            plain, plain_s = closed_loop(lambda j: run_op(workload, state, j), 1, share)
            tr = tracing.Tracer(lib)
            traced, traced_s = closed_loop(
                lambda j: tracing.traced_op(workload, tr, state, j),
                1 + len(plain),
                share,
                MIN_TRACED_OPS,
            )
            results = [(0, *first)] + [(j, out, err) for j, _, (out, err) in plain]
            results += [(j, out, err) for j, _, (out, err, _) in traced]
            failed, notes[workload.name] = gate(workload, seed, results, load_refs(workload))
            for j, _, (_, _, issues) in traced:
                if issues:
                    failed[j] = "; ".join(issues)
            if input_problems:
                fail_all(failed, results, input_problems)
            layer_facts = {
                "load_csv_s": getattr(state, "load_csv_s", None),
                "overhead_ratio": (len(traced) / traced_s) / (len(plain) / plain_s),
            }
            metrics.update(tracing.layer_metrics(workload.name, tr, layer_facts))
            tr.write(spans_fh, workload.name)
            attempted += len(results)
            failed_all.update({f"{workload.name}:{j}": why for j, why in failed.items()})
            del state, tr
    return {
        "metrics": metrics,
        "notes": {},
        "attempted": attempted,
        "failed": failed_all,
        "reference": "; ".join(f"{name}: {note}" for name, note in notes.items()),
    }


def report(title: str, result: dict, env: dict) -> None:
    print(title)
    for name, entry in result["metrics"].items():
        value = entry["value"]
        shown = f"{value:.6g}" if value is not None else f"absent ({entry['absent']})"
        note = result["notes"].get(name)
        print(f"  {name:44s} {shown} {entry['unit']}" + (f"  [{note}]" if note else ""))
    failed = len(result["failed"])
    print(f"  {'failed_ratio':44s} {failed / result['attempted']:.6g} ratio"
          f"  [{failed} of {result['attempted']} ops]")
    print(f"correctness: {result['reference']}")
    for where, why in sorted(result["failed"].items(), key=str)[:20]:
        print(f"  failed op {where}: {why}")
    print("environment: " + json.dumps(env))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not workloads.use_source_tree():
        print(f"error: no mfdglht sources under {workloads.SRC}", file=sys.stderr)
        return 2

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix="inputs-") as tmp:
        workdir = Path(tmp)
        if args.trace:
            stem = f"trace-seed{args.seed}"
            spans_path = results_dir / f"{stem}.spans.jsonl"
            result = traced_run(args.seed, args.seconds, workdir, spans_path)
            title = f"traced run, every workload, seed {args.seed}, {args.seconds:g} s"
        else:
            stem = f"{args.workload}-seed{args.seed}"
            result = end_to_end(WORKLOADS[args.workload], args.seed, args.seconds, workdir)
            title = f"{args.workload}, seed {args.seed}, {args.seconds:g} s"
    env = envinfo.environment(args.seed, DROPPED_ENV)
    (results_dir / f"{stem}.json").write_text(
        json.dumps({**result, "failed": {str(k): v for k, v in result["failed"].items()},
                    "environment": env}, indent=1)
    )
    report(title, result, env)
    print(json.dumps({
        "correct": not result["failed"],
        "attempted": result["attempted"],
        "failed": len(result["failed"]),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
