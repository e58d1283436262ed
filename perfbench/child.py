"""Child processes of the benchmark.

    python3 perfbench/child.py prepare <workload> <seed> <dir>
        Generate the workload's inputs from the seed into <dir>.
    python3 perfbench/child.py setup <workload> <seed> <dir>
        Time one set-up in a fresh process: import mfdglht, ingest the
        inputs from <dir> and run the warm-up op.

Each prints one JSON object as its last line. ``run.py`` starts them;
generating inputs outside the measured process keeps the generator out of
its set-up time and peak memory.
"""

import json
import sys
from pathlib import Path

from pin import pin_environment

pin_environment()

import workloads  # noqa: E402  (numpy must load after the BLAS pin)


def main(argv: list[str]) -> int:
    role, name, seed, workdir = argv
    if not workloads.use_source_tree():
        print(f"error: no mfdglht sources under {workloads.SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name]
    if role == "prepare":
        import mfdglht

        facts = workload.prepare(mfdglht, int(seed), Path(workdir))
        print(json.dumps(facts))
        return 0
    if role == "setup":
        _, _, (_, error), setup_s = workloads.timed_setup(workload, int(seed), Path(workdir))
        print(json.dumps({"setup_s": setup_s, "error": error}))
        return 0
    print(f"error: unknown role {role!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
