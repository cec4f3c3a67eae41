"""Regenerate ``pins.json``, the partition outputs the conjugacy checks compare against.

Run from the root of a checkout:

    python3 perfbench/pin.py            # rewrite pins.json
    python3 perfbench/pin.py octiles    # print workloads.N_OCTILE_EDGES
    python3 perfbench/pin.py pool       # rewrite pool.json (a few minutes)

Every pinned label sequence comes from an exact model IET, never from the
float map being checked: m2 and m4 for the cyclic orders 21 and 40, and for
order 60 the model of f4's 60-arrow path completed to a cyclic datum.  The
script also runs each conjugacy partition command and refuses to write pins
its output disagrees with.

``pool`` makes the multi-realize pool: ``workloads.POOL_PER_OCTILE``
stratified draws per octile of N, from ``workloads.POOL_SEED``, each run once
through ``realize`` and checked.  A draw that fails is kept with its failure
and becomes a known defect of the workload.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def model_labels(T, r):
    """Labels ``cli partition`` gives the order-r partition of an exact IET."""
    from gietlab.combinatorics import sigma_and_cyclicity
    from gietlab.giet import dynamical_partition
    from gietlab.thurston import build_reference

    partition = dynamical_partition(T, r)
    path = T.rauzy_path(r).path
    if not sigma_and_cyclicity(path.target)[1]:
        return [f"{a.letter}{a.index}" for a in partition.atoms]
    ref = build_reference(path)
    return [ref.class_of_atom(a.letter, a.index).name for a in partition.atoms]


def empty_multi_realize():
    """A multi-realize source with an empty pool, for drawing paths."""
    workdir = ROOT / ".perfbench" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.MultiRealize(workdir, 0, pool=[])


def octile_edges(draws=40_000, seed=20171016):
    """Octile edges of N over unstratified multi-realize draws."""
    source = empty_multi_realize()
    rng = random.Random(seed)
    sizes = [source.draw_path(rng)[2] for _ in range(draws)]
    return tuple(round(q) for q in statistics.quantiles(sizes, n=8))


def make_pool():
    from gietlab import cli

    source = empty_multi_realize()
    pool = source.stratified_draws(random.Random(workloads.POOL_SEED),
                                   workloads.POOL_PER_OCTILE)
    for i, entry in enumerate(pool):
        command = source.pool_command(f"pool-{i}", entry)
        outcome = checks.check(command, checks.execute(cli.main, command), {})
        if outcome.wrong:
            print(f"pool-{i}: wrong output: {outcome.failure}", file=sys.stderr)
            return 1
        entry["failure"] = outcome.failure
        print(f"pool-{i} d={entry['d']} N={entry['N']} {outcome.seconds:.3f} s "
              f"{outcome.failure or 'ok'}", file=sys.stderr)
    workloads.POOL_FILE.write_text(
        "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in pool) + "\n]\n")
    return 0


def main() -> int:
    if sys.argv[1:] == ["octiles"]:
        print(octile_edges())
        return 0
    if sys.argv[1:] == ["pool"]:
        return make_pool()
    from gietlab import cli, fileio
    from gietlab.combinatorics import rauzy_class
    from gietlab.thurston import build_reference

    workdir = ROOT / ".perfbench" / "pin"
    source = workloads.set_up("conjugacy", workdir, 0)
    models = {
        "f2@21": fileio.load_map(str(workdir / "m2.json")),
        "m2@21": fileio.load_map(str(workdir / "m2.json")),
        "f4@40": fileio.load_map(str(workdir / "m4.json")),
    }
    f4 = fileio.load_map(str(workdir / "f4.json"))
    path60 = f4.rauzy_path(60).path
    models["f4@60"] = build_reference(
        workloads.completed(path60, rauzy_class(path60.source))).base_iet
    sources = {"f2@21": "m2", "m2@21": "m2", "f4@40": "m4", "f4@60": "model of f4's path"}

    pins = {}
    for key, T in models.items():
        labels = model_labels(T, int(key.split("@")[1]))
        pins[key] = {"atoms": len(labels), "labels": checks.label_digest(labels),
                     "source": sources[key]}
    for command in source.pass_commands(0):
        if command.kind == "partition":
            outcome = checks.check(command, checks.execute(cli.main, command), pins)
            if outcome.failure:
                print(f"{command.label}: {outcome.failure}", file=sys.stderr)
                return 1
    (HERE / "pins.json").write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
