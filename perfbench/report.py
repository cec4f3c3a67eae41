"""Print every end-to-end metric of every workload, with unit and sample count.

Run from the root of a checkout:

    python3 perfbench/report.py --seed 1

Runs ``run.py`` once per workload, one after the other, each in its own
process and for the ``run_seconds`` that ``BENCHMARK.json`` sets, and prints
each run's metric table.  Exits 1 if a run fails or reports an incorrect
output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for name in workloads.NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{name}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
