"""The library runs on numpy alone: scipy serves only as a test oracle.

A fresh process imports the package, runs one test, a small study and the
CLI's ``test`` command, and must not have loaded scipy; the sources must
not name it either.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

RUN = """
import sys
import mfdglht as lib
from mfdglht import cli

cfg = lib.SimConfig(n=(5, 5, 5, 5), rho=0.5, model=2, reps=5, seed=3)
ds = lib.gen_sample(cfg, [3, 0])
lib.run_glht(ds, cfg.contrast_spec())
lib.size_power_study(cfg)
data, contrast, out = sys.argv[1:4]
with open(data, "w", encoding="utf-8") as fh:
    lib.write_csv(ds, fh)
with open(contrast, "w", encoding="utf-8") as fh:
    fh.write("row,col,value\\n1,1,1\\n1,4,-1\\n2,2,1\\n2,4,-1\\n3,3,1\\n3,4,-1\\n")
assert cli.main(["test", "--data", data, "--contrast", contrast, "--out", out]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_a_run_never_imports_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    paths = [str(tmp_path / name) for name in ("data.csv", "contrast.csv", "report.json")]
    done = subprocess.run([sys.executable, "-c", RUN, *paths], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "report.json").is_file()


def test_sources_do_not_name_scipy():
    named = [str(path.relative_to(ROOT)) for path in sorted(SRC.rglob("*"))
             if path.is_file() and b"scipy" in path.read_bytes()]
    assert named == []
