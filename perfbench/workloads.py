"""The benchmark's workloads: inputs, set-up, one op, and output checks.

Every workload drives mfdglht only through functions its package exports,
with their default arguments; it never passes ``backend=`` or
``threads=``. Inputs derive from the workload seed alone, so one seed
gives the same inputs on every machine.

An op is one call into the workload's public entry point. Op ``j`` uses
op seed ``j % pool``, so ops that share a slot must return the same
results, within the reference tolerance. That determinism check and each
workload's invariants run at every seed. At the seeds stored under
``refs/`` the results must also match the references.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"

SEED_TAG = 20250403  # keeps the benchmark's streams apart from the library's own seeds
STATISTICS = ("mfw", "mflh", "mfp")
FLOAT_RTOL = 1e-8


def use_source_tree() -> bool:
    """Put the checkout's ``src`` first on the import path; False if it is missing."""
    if not (SRC / "mfdglht" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def derive_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([SEED_TAG, seed, *path]).generate_state(1)[0])


def digest(arrays) -> str:
    sha = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        sha.update(repr(arr.shape).encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


class Workload:
    """One closed-loop client calling ``entry`` once per op."""

    name = ""
    entry = ""
    pool = 1

    def prepare(self, lib, seed: int, workdir: Path) -> dict:
        """Write the inputs into ``workdir`` (runs in a child process)."""
        return {}

    def setup(self, lib, seed: int, workdir: Path) -> SimpleNamespace:
        """Ingest the inputs; this is part of the measured set-up."""
        raise NotImplementedError

    def verify_inputs(self, state, facts: dict) -> list[str]:
        return []

    def call_args(self, state, j: int) -> tuple[tuple, dict]:
        raise NotImplementedError

    def summarize(self, result) -> dict:
        raise NotImplementedError

    def invariants(self, out: dict) -> list[str]:
        return []

    def op(self, state, j: int) -> dict:
        args, kwargs = self.call_args(state, j)
        return self.summarize(getattr(state.lib, self.entry)(*args, **kwargs))


class StudyTable1(Workload):
    """The paper's Table 1 traffic: data generation and per-call overhead dominate."""

    name = "study_table1"
    entry = "size_power_study"
    pool = 16
    reps = 50

    def setup(self, lib, seed, workdir):
        configs = lib.load_config_file(SRC / "mfdglht" / "configs" / "table1_s1.json")
        base = next(cfg for cfg in configs if cfg.label == "model2_n3")
        return SimpleNamespace(lib=lib, seed=seed, base=base)

    def call_args(self, state, j):
        cfg = dataclasses.replace(
            state.base, reps=self.reps, seed=derive_seed(state.seed, j % self.pool)
        )
        return (cfg,), {}

    def summarize(self, result):
        return {
            "rejections": {name: int(result.rejections[name]) for name in STATISTICS},
            "errored": int(result.errored),
            "completed": int(result.completed),
        }

    def invariants(self, out):
        problems = []
        if out["completed"] + out["errored"] != self.reps:
            problems.append(f"completed + errored != {self.reps}")
        for name, count in out["rejections"].items():
            if not 0 <= count <= out["completed"]:
                problems.append(f"{name} rejections {count} outside [0, completed]")
        return problems


class LongGrid(Workload):
    """One CLI-style test on densely sampled curves: Grams over m and CSV ingestion dominate."""

    name = "test_long_grid"
    entry = "run_glht"
    n = (40, 40, 60, 60)
    m = 1000
    contrast = (1.0, -3.0, 0.0, 2.0)

    def prepare(self, lib, seed, workdir):
        cfg = lib.SimConfig(n=self.n, p=6, m=self.m, scenario="S2", model=3, rho=0.5)
        ds = lib.gen_sample(cfg, [SEED_TAG, seed])
        lib.write_csv(ds, str(workdir / "data.csv"))
        rows = [f"1,{col},{value!r}" for col, value in enumerate(self.contrast, start=1)]
        (workdir / "contrast.csv").write_text("row,col,value\n" + "\n".join(rows) + "\n")
        return {"digest": digest(g.values for g in ds.groups)}

    def setup(self, lib, seed, workdir):
        start = time.perf_counter()
        ds = lib.load_csv(workdir / "data.csv")
        load_csv_s = time.perf_counter() - start
        spec = lib.ContrastSpec(lib.load_contrast_csv(workdir / "contrast.csv"))
        return SimpleNamespace(lib=lib, seed=seed, ds=ds, spec=spec, load_csv_s=load_csv_s)

    def verify_inputs(self, state, facts):
        if digest(g.values for g in state.ds.groups) != facts["digest"]:
            return ["load_csv returned other values than the generated dataset"]
        return []

    def call_args(self, state, j):
        return (state.ds, state.spec), {}

    def summarize(self, report):
        return {
            "d_b": float(report.dof.d_b),
            "d_e": float(report.dof.d_e),
            "p_values": {name: float(report.p_values[name]) for name in STATISTICS},
        }

    def invariants(self, out):
        problems = [
            f"{name} = {out[name]!r} is not finite and positive"
            for name in ("d_b", "d_e")
            if not (math.isfinite(out[name]) and out[name] > 0)
        ]
        problems += [
            f"p-value {name} = {value!r} outside [0, 1]"
            for name, value in out["p_values"].items()
            if not 0.0 <= value <= 1.0
        ]
        return problems


WORKLOADS = {wl.name: wl for wl in (StudyTable1(), LongGrid())}


def run_op(workload: Workload, state, j: int):
    """Run op ``j``; return (output, None) or (None, error text)."""
    try:
        return workload.op(state, j), None
    except Exception as exc:  # a failed op is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def timed_setup(workload: Workload, seed: int, workdir: Path):
    """Import mfdglht, ingest the inputs and run op 0 as the warm-up.

    Returns (lib, state, (output, error) of op 0, seconds from the import
    to the end of op 0).
    """
    start = time.perf_counter()
    lib = importlib.import_module("mfdglht")
    state = workload.setup(lib, seed, workdir)
    first = run_op(workload, state, 0)
    return lib, state, first, time.perf_counter() - start


def compare(ref, out, rtol: float, where: str = "") -> list[str]:
    """Differences between a stored reference and an output.

    Integers must match exactly; floats within ``rtol`` relative.
    """
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(ref) != set(out):
            return [f"{where or 'output'}: keys differ from the reference"]
        return [
            problem
            for key in ref
            for problem in compare(ref[key], out[key], rtol, f"{where}.{key}".lstrip("."))
        ]
    if isinstance(ref, float):
        if abs(out - ref) <= rtol * abs(ref):
            return []
        return [f"{where} = {out!r}, reference {ref!r} (rtol {rtol:g})"]
    if out != ref:
        return [f"{where} = {out!r}, reference {ref!r}"]
    return []


def load_refs(workload: Workload) -> dict:
    path = REFS / f"{workload.name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["seeds"]


def gate(workload: Workload, seed: int, results, refs: dict):
    """Check every op's result.

    ``results`` holds (j, output, error) triples. Returns ({j: reason} for
    every failed op, a one-line note on the reference check).
    """
    failed: dict[int, str] = {}
    seed_refs = refs.get(str(seed))
    first_in_slot: dict[int, tuple[int, dict]] = {}
    for j, out, error in results:
        if error is not None:
            failed[j] = error
            continue
        slot = j % workload.pool
        problems = workload.invariants(out)
        if slot in first_in_slot and compare(first_in_slot[slot][1], out, FLOAT_RTOL):
            problems.append(f"differs from op {first_in_slot[slot][0]} with the same op seed")
        first_in_slot.setdefault(slot, (j, out))
        if seed_refs is not None:
            problems += compare(seed_refs[str(slot)], out, FLOAT_RTOL)
        if problems:
            failed[j] = "; ".join(problems)
    if seed_refs is None:
        note = f"value check skipped: no stored reference for seed {seed}"
    else:
        note = f"value check against the stored reference for seed {seed}"
    return failed, note
