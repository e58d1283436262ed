"""Regenerate the stored references of the correctness gate.

    python3 perfbench/make_refs.py

For each workload and each seed in ``REF_SEEDS`` this writes the output
of one op per op-seed slot to ``refs/<workload>.json``. Seed 1 is the
default seed; seed 2 is held out: no tuning of the benchmark used it.
Regenerate only when a change to the library is meant to change results,
and say so in the change.
"""

import json
import sys
import tempfile
from pathlib import Path

from pin import pin_environment

pin_environment()

import workloads  # noqa: E402  (numpy must load after the BLAS pin)

REF_SEEDS = (1, 2)


def main() -> int:
    if not workloads.use_source_tree():
        print(f"error: no mfdglht sources under {workloads.SRC}", file=sys.stderr)
        return 2
    import mfdglht

    work = workloads.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    workloads.REFS.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        seeds = {}
        for seed in REF_SEEDS:
            with tempfile.TemporaryDirectory(dir=work, prefix="refs-") as tmp:
                workload.prepare(mfdglht, seed, Path(tmp))
                state = workload.setup(mfdglht, seed, Path(tmp))
                seeds[str(seed)] = {
                    str(slot): workload.op(state, slot) for slot in range(workload.pool)
                }
        path = workloads.REFS / f"{workload.name}.json"
        path.write_text(json.dumps({"workload": workload.name, "seeds": seeds}, indent=1) + "\n")
        print(f"wrote {path.relative_to(workloads.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
