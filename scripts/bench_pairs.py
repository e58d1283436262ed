"""Paired base/change runs of the benchmark, summarized in one BENCH_*.json file.

Run from the repository root:

    python3 scripts/bench_pairs.py --base HEAD --pairs 10 --out BENCH_7.json

The base side is the committed tree of ``--base``, unpacked by ``git
archive`` into a temporary directory; the change side is the working tree.
Each pair runs ``perfbench/run.py --trace 0`` once on each side, in fresh
processes, with the same seed (``--first-seed`` plus the pair's index);
which side runs first alternates from pair to pair. Every workload in
BENCHMARK.json is run for ``--pairs`` pairs at its ``run_seconds``.

For each workload and end-to-end metric the file holds both sides' runs,
their median and quartiles, how many pairs each side won (ties count for
neither), and whether the medians differ by more than the base's
interquartile range. It also holds every run's failed-op count and the
environment block perfbench printed for the first run.

Each side also makes one ``--trace 1`` run, at seed 2 and the benchmark's
``run_seconds``; the file keeps its per-layer metrics and failed-op count
under ``traced``.

Each side also counts, under cProfile, the function calls of two runs
after a warm-up of each (``CALLS`` below): one ``run_glht`` on
``gen_sample(SimConfig(n="n3", model=2), [1, 2])`` and one 50-rep study of
Table 1's model2_n3 setting. The counts are exact and free of timing noise;
the file keeps them under ``calls``.

Each side's line counts of ``src/mfdglht/*.py``, per file and in total, are
kept under ``src_lines``, so a change's size comes from the same file as
its timings. The sorted public names of the ``mfdglht`` package that are
not modules are kept under ``exports``, so the file also shows a change to
the API.

Each side's start-up cost is kept under ``import``: ``IMPORT`` below runs
in ``FRESH_RUNS`` fresh processes per side, the sides alternating, with
BLAS pinned to one thread. The file keeps the median wall time of
``import mfdglht`` and the median ``ru_maxrss`` right after it, each with
its runs, and the sorted third-party top-level modules loaded by the
import and one ``run_glht``: those absent at interpreter start whose file
lies in a site-packages directory.

Each side's CSV ingestion is kept under ``ingest``: the change side writes
the long-grid dataset of the benchmark's ``test_long_grid`` workload
(``LONG_GRID`` below, 1.2 million rows) once, and ``INGEST`` reads it with
``load_csv`` in ``FRESH_RUNS`` fresh processes per side, alternating as
above. The file keeps the median wall time of ``load_csv`` and the median
``ru_maxrss`` right after it, each with its runs.

Last, each side runs the Tier-1 test suite once (``TIER1`` below, with the
side's ``src`` first on ``PYTHONPATH``); the file keeps its wall time, its
exit code and its passed/skipped/failed counts under ``tier1``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ENV_PREFIX = "environment: "
RUN_TIMEOUT_S = 900
TRACE_SEED = 2
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALLS = """
import cProfile, dataclasses, json, pstats, sys
sys.path.insert(0, sys.argv[1])
import mfdglht as lib
cfg = lib.SimConfig(n="n3", model=2)
ds, spec = lib.gen_sample(cfg, [1, 2]), cfg.contrast_spec()
table1 = lib.load_config_file(sys.argv[1] + "/mfdglht/configs/table1_s1.json")
study = dataclasses.replace(next(c for c in table1 if c.label == "model2_n3"), reps=50)
runs = {"run_glht_n3": lambda: lib.run_glht(ds, spec),
        "study_model2_n3_50_reps": lambda: lib.size_power_study(study)}
counts = {}
for name, run in runs.items():
    run()
    profile = cProfile.Profile()
    profile.runcall(run)
    counts[name] = pstats.Stats(profile).total_calls
print(json.dumps(counts))
"""
FRESH_RUNS = 7
IMPORT = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
at_start = {name.split(".")[0] for name in sys.modules}
started = time.perf_counter()
import mfdglht as lib
import_s = time.perf_counter() - started
maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
cfg = lib.SimConfig(n="n3", model=2)
lib.run_glht(lib.gen_sample(cfg, [1, 2]), cfg.contrast_spec())
loaded = {name.split(".")[0] for name in sys.modules} - at_start
third_party = sorted(name for name in loaded - {"mfdglht"} if not name.startswith("_")
                     and "-packages" in (getattr(sys.modules[name], "__file__", None) or ""))
print(json.dumps({"import_s": import_s, "maxrss_kb": maxrss_kb, "third_party": third_party}))
"""
LONG_GRID = """
import sys
sys.path.insert(0, sys.argv[1])
import mfdglht as lib
cfg = lib.SimConfig(n=(40, 40, 60, 60), p=6, m=1000, scenario="S2", model=3, rho=0.5)
lib.write_csv(lib.gen_sample(cfg, [1, 2]), sys.argv[2])
"""
INGEST = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import mfdglht as lib
started = time.perf_counter()
lib.load_csv(sys.argv[2])
load_s = time.perf_counter() - started
maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"load_s": load_s, "maxrss_kb": maxrss_kb}))
"""
EXPORTS = """
import json, sys, types
sys.path.insert(0, sys.argv[1])
import mfdglht
print(json.dumps(sorted(name for name in dir(mfdglht) if not name.startswith("_")
                        and not isinstance(getattr(mfdglht, name), types.ModuleType))))
"""


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def unpack(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``, with no link to this repository."""
    archive = dest / "tree.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(archive), rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run; its result line and environment block. A ``trace=1`` run
    covers every workload, whichever ``workload`` names."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[len(ENV_PREFIX):]) for line in lines
               if line.startswith(ENV_PREFIX))
    return {**json.loads(lines[-1]), "environment": env}


def run_tier1(checkout: Path) -> dict:
    """One Tier-1 run of ``checkout``'s tests: wall time, exit code and counts."""
    pythonpath = os.pathsep.join(filter(None, [str(checkout / "src"),
                                               os.environ.get("PYTHONPATH")]))
    started = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=checkout, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    wall_s = time.perf_counter() - started
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    counts = {word: int(count) for count, word in
              re.findall(r"(\d+) (passed|skipped|failed)", summary)}
    return {"wall_s": round(wall_s, 1), "returncode": done.returncode, "summary": summary,
            **{word: counts.get(word, 0) for word in ("passed", "skipped", "failed")}}


def count_calls(checkout: Path) -> dict:
    """cProfile call counts of ``CALLS``'s two runs on ``checkout``'s library."""
    done = subprocess.run([sys.executable, "-c", CALLS, str(checkout / "src")],
                          capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S)
    return json.loads(done.stdout)


def fresh_runs(sides: dict, script: str, *args: str) -> dict:
    """The JSON line ``script`` prints in ``FRESH_RUNS`` fresh processes per
    side, the sides alternating, with BLAS pinned to one thread. The script
    gets the side's ``src`` and then ``args`` as its arguments."""
    env = {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}}
    runs = {side: [] for side in sides}
    for i in range(FRESH_RUNS):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            done = subprocess.run([sys.executable, "-c", script, str(sides[side] / "src"), *args],
                                  capture_output=True, text=True, check=True,
                                  timeout=RUN_TIMEOUT_S, env=env)
            runs[side].append(json.loads(done.stdout))
    return runs


def import_costs(sides: dict) -> dict:
    """``IMPORT``'s start-up cost of each side."""
    return {side: {"runs": FRESH_RUNS,
                   "import_s": spread([r["import_s"] for r in rs]),
                   "maxrss_mb": spread([r["maxrss_kb"] / 1024 for r in rs]),
                   "third_party_modules": rs[-1]["third_party"]}
            for side, rs in fresh_runs(sides, IMPORT).items()}


def ingest_costs(sides: dict, workdir: Path) -> dict:
    """``INGEST``'s cost of reading the long-grid CSV on each side."""
    path = workdir / "long_grid.csv"
    subprocess.run([sys.executable, "-c", LONG_GRID, str(sides["change"] / "src"), str(path)],
                   check=True, timeout=RUN_TIMEOUT_S)
    with path.open(encoding="utf-8") as lines:
        rows = sum(1 for _ in lines) - 1
    result = {"rows": rows, "file_mb": path.stat().st_size / 2**20}
    for side, rs in fresh_runs(sides, INGEST, str(path)).items():
        result[side] = {"runs": FRESH_RUNS,
                        "load_csv_s": spread([r["load_s"] for r in rs]),
                        "maxrss_mb": spread([r["maxrss_kb"] / 1024 for r in rs])}
    path.unlink()
    return result


def exports(checkout: Path) -> list:
    """The sorted public names of ``checkout``'s package that are not modules."""
    done = subprocess.run([sys.executable, "-c", EXPORTS, str(checkout / "src")],
                          capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S)
    return json.loads(done.stdout)


def src_lines(checkout: Path) -> dict:
    """Line counts of ``checkout``'s library modules, per file and in total."""
    files = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((checkout / "src" / "mfdglht").glob("*.py"))}
    return {"total": sum(files.values()), "files": files}


def spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": values}


def summarize(metrics: list[dict], runs: dict) -> dict:
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        gains = [sign * (c - b) for b, c in zip(base, change)]
        entry = {"unit": metric["unit"], "better": metric["better"],
                 "base": spread(base), "change": spread(change),
                 "change_wins": sum(g > 0 for g in gains),
                 "base_wins": sum(g < 0 for g in gains)}
        diff = entry["change"]["median"] - entry["base"]["median"]
        entry["median_change_ratio"] = entry["change"]["median"] / entry["base"]["median"]
        entry["medians_differ_by_more_than_base_iqr"] = bool(
            abs(diff) > entry["base"]["q3"] - entry["base"]["q1"]
        )
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    base_rev = git("rev-parse", args.base)

    result = {
        "base": base_rev,
        "change": {"head": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain"))},
        "command": "perfbench/run.py --trace 0 (pairs), --trace 1 (traced)",
        "seconds": seconds,
        "pairs": args.pairs,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        unpack(base_rev, Path(tmp))
        sides = {"base": Path(tmp) / "tree", "change": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {"base": [], "change": []}
            order_log = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    started = time.time()
                    runs[side].append(run_once(sides[side], workload, seed, seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{time.time() - started:.0f} s", file=sys.stderr, flush=True)
                order_log.append({"seed": seed, "first": order[0]})
            result.setdefault("environment", runs["base"][0]["environment"])
            result["workloads"][workload] = {
                "pairs": order_log,
                "failed_ops": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
                "attempted_ops": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
                "metrics": summarize(bench["end_to_end"], runs),
            }
        result["traced"] = {"seed": TRACE_SEED}
        for side, checkout in sides.items():
            traced = run_once(checkout, bench["workloads"][0]["name"], TRACE_SEED, seconds, 1)
            print(f"traced {side} done", file=sys.stderr, flush=True)
            result["traced"][side] = {key: traced[key]
                                      for key in ("attempted", "failed", "metrics")}
        result["calls"] = {side: count_calls(checkout) for side, checkout in sides.items()}
        result["src_lines"] = {side: src_lines(checkout) for side, checkout in sides.items()}
        result["exports"] = {side: exports(checkout) for side, checkout in sides.items()}
        result["import"] = import_costs(sides)
        result["ingest"] = ingest_costs(sides, Path(tmp))
        print("ingest done", file=sys.stderr, flush=True)
        result["tier1"] = {"command": "PYTHONPATH=src python " + " ".join(TIER1)}
        for side, checkout in sides.items():
            result["tier1"][side] = run_tier1(checkout)
            print(f"tier1 {side}: {result['tier1'][side]['summary']}", file=sys.stderr,
                  flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
