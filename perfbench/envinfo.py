"""The environment a result was measured in."""

from __future__ import annotations

import importlib
import importlib.util
import os
import platform
import subprocess

import numpy as np

from pin import BLAS_THREAD_VARS
from workloads import ROOT


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
    }


def _numba() -> str | bool:
    if importlib.util.find_spec("numba") is None:
        return False
    try:
        return importlib.import_module("numba").__version__
    except ImportError:
        return False


def _git() -> dict:
    def git(*args) -> str:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
        if done.returncode != 0:
            raise OSError(done.stderr.strip())
        return done.stdout.strip()

    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != os.path.realpath(ROOT):
            return {"commit": None, "dirty": None, "note": "not a git checkout"}
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None, "note": "not a git checkout"}


def environment(seed: int, dropped_env: list[str]) -> dict:
    """Versions, BLAS and its thread pin, cores, numba, git state and the seed.

    Call it after measuring: it may import numba.
    """
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_thread_pin": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "dropped_env": dropped_env,
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "numba": _numba(),
        "git": _git(),
        "seed": seed,
    }
