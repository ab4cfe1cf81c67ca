"""Regenerate ``reference.json``: the expected output values of every workload.

Usage (from the repository root):

    python3 benchmarks/make_reference.py SIZE [WORKLOAD ...]

Runs one untraced iteration per workload (default: all) and program seed
(0 to 15) at SIZE (smoke or full) and stores the values ``run.py`` compares
against. All full-size workloads take about ten minutes on two cores. Only
regenerate when a change is meant to alter the games' results.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(size: str, names: list[str]) -> int:
    data = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    work = run.WORK / "reference"
    for name in names or list(run.WORKLOADS):
        workload = run.WORKLOADS[name][size]
        values = {}
        for pseed in range(run.SEED_POOL):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            run.make_inputs(workload, pseed, work)
            it = run.run_iteration(workload, pseed, work, False, 0, None)
            if it.failures:
                print(f"{size} {name} seed {pseed}: {it.failures}", file=sys.stderr)
                return 1
            values[str(pseed)] = it.values
            print(f"{size} {name} seed {pseed}: {it.run_s:.1f} s", flush=True)
        data.setdefault(size, {})[name] = values
    shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
