"""The three benchmark workloads: inputs, commands and what each command must produce.

A workload writes its input documents into a work directory once (the set-up)
and then hands out passes.  A pass is a list of ``Command`` objects, each one
``gietlab`` argument list plus the data its check needs.  Every pass is a
function of the workload seed and the pass index only, so the same seed gives
the same commands on every machine.

``gietlab`` is imported inside the set-up functions, never at module level:
the harness drops the package from ``sys.modules`` before each set-up round,
so import time is part of the measured set-up.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Octile edges of the reference-point count N of a multi-realize draw (after
# completion to a cyclic target), from 40 000 unstratified draws:
# ``python3 perfbench/pin.py octiles`` recomputes them.  N depends only on the
# path, never on the solver.
N_OCTILE_EDGES = (69, 98, 129, 170, 229, 318, 479)
DRAWS_PER_OCTILE = 5  # 8 octiles x 5 = the 40 drawn paths of a pass
# The multi-realize draws come from a pool of stratified draws made once with
# a fixed seed and each run once through ``realize``: ``python3
# perfbench/pin.py pool`` remakes it.  Draws that failed there are the pool's
# known defects; they run outside the timed loop (see ``known_defects``).
POOL_FILE = Path(__file__).resolve().parent / "pool.json"
POOL_PER_OCTILE = 20
POOL_SEED = 5586

MULTI_DATA = {4: "A B C D / D C B A", 5: "A B C D E / E D C B A"}
WORKED_EXAMPLE = "bbbtb"
PINNED_STRADDLE = "tttbbbtbbbbbbbbtttttbt"


@dataclass
class Command:
    """One ``gietlab`` invocation and what its output is checked against.

    ``kind`` is the subcommand.  ``output`` is the ``-o`` document the check
    reads.  ``expect`` holds the check data: for ``realize`` the seed document
    and the target kinds, for ``partition`` the key of its pinned values.
    ``info`` is recorded in the run record (kinds, N and order).
    """

    label: str
    kind: str
    argv: list
    output: str | None = None
    expect: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def _known_defect(command: Command, failure: str) -> Command:
    """``command`` marked as an input the program is known to fail on."""
    command.info["known_failure"] = failure
    return command


def _smooth_seed(datum_text, lengths, ks):
    from gietlab.branches import SmoothParam
    from gietlab.combinatorics import parse_datum_text
    from gietlab.giet import giet_from_branches

    datum = parse_datum_text(datum_text)
    return giet_from_branches(
        datum, lengths, lengths, lambda a, dom, rng: SmoothParam(dom, rng, k=ks.get(a, 0.0))
    )


def _write(doc, path: Path) -> str:
    from gietlab import fileio

    fileio.dump(doc, str(path))
    return str(path)


def _write_giet(g, path: Path) -> str:
    from gietlab import fileio

    return _write(fileio.giet_document(g), path)


def _return_total(path) -> int:
    from gietlab.combinatorics import return_times

    return return_times(path)[1]


def completed(path, cls):
    """The path realize actually solves: completed to a cyclic target if needed."""
    from gietlab.combinatorics import find_cyclic, find_path, sigma_and_cyclicity

    if sigma_and_cyclicity(path.target)[1]:
        return path
    return path.concat(find_path(cls, path.target, find_cyclic(cls)))


def _realize(label, seed_file, kinds, n, workdir: Path) -> Command:
    out = str(workdir / f"{label}.json")
    return Command(
        label=label,
        kind="realize",
        argv=["realize", seed_file, kinds, "-o", out],
        output=out,
        expect={"seed_file": seed_file, "kinds": kinds},
        info={"kinds": kinds, "N": n, "order": len(kinds)},
    )


class FibRealize:
    """``realize`` on the 2-letter Fibonacci paths at depths 12 to 15."""

    name = "fib-realize"
    depths = (12, 13, 14, 15)

    def __init__(self, workdir: Path, seed: int):
        from gietlab.combinatorics import parse_datum_text
        from gietlab.exact_iet import ExactIET

        g = _smooth_seed("A B / B A", [0.5, 0.5], {"A": 2.0, "B": -1.5})
        seed_file = _write_giet(g, workdir / "fib-seed.json")
        model = ExactIET.from_lengths(
            parse_datum_text("A B / B A"), [Fraction(2584, 6765), Fraction(4181, 6765)]
        )
        self.commands = []
        for depth in self.depths:
            path = model.rauzy_path(depth).path
            self.commands.append(
                _realize(f"fib-{depth}", seed_file, path.kinds, _return_total(path), workdir)
            )

    known_defects = ()

    def pass_commands(self, index: int) -> list:
        return self.commands


class MultiRealize:
    """``realize`` on 40 drawn 4- and 5-letter paths plus two pinned cases.

    Each draw picks the datum (equal odds), a length uniform in 12..22 and
    kinds uniform over t/b.  The pool (``POOL_FILE``) holds
    ``POOL_PER_OCTILE`` such draws for every octile of N; a pass takes
    ``DRAWS_PER_OCTILE`` of each octile's draws that ``realize`` handled when
    the pool was made, so every pass has the same mix of sizes and the seed
    changes which paths are run, and in what order, not how large they are.

    ``known_defects`` holds the inputs the program is known to fail on: the
    pinned straddle case and the pool's failed draws.
    """

    name = "multi-realize"

    def __init__(self, workdir: Path, seed: int, pool=None):
        from gietlab.combinatorics import RauzyPath, find_path, parse_datum_text, rauzy_class

        self.workdir = workdir
        self.seed = seed
        self.data, self.classes, self.seed_files = {}, {}, {}
        for d, text in MULTI_DATA.items():
            self.data[d] = parse_datum_text(text)
            self.classes[d] = rauzy_class(self.data[d])
            g = _smooth_seed(text, [1.0 / d] * d, {"A": 1.5})
            self.seed_files[d] = _write_giet(g, workdir / f"multi-seed{d}.json")
        worked = _smooth_seed(MULTI_DATA[4], [6 / 11, 2 / 11, 1 / 11, 2 / 11], {"A": 2.0})
        worked_file = _write_giet(worked, workdir / "multi-worked.json")

        d4, cls4 = self.data[4], self.classes[4]
        p5 = RauzyPath.from_kinds(d4, WORKED_EXAMPLE)
        back = find_path(cls4, p5.target, d4)
        loop = p5
        while len(loop) < 15:
            loop = loop.concat(back).concat(p5)
        straddle = RauzyPath.from_kinds(d4, PINNED_STRADDLE)
        self.pinned = [
            _realize("pinned-worked", worked_file, WORKED_EXAMPLE,
                     _return_total(completed(p5, cls4)), workdir),
            _realize("pinned-loop", worked_file, loop.kinds, _return_total(loop), workdir),
        ]
        self.known_defects = [_known_defect(
            _realize("pinned-straddle", self.seed_files[4], PINNED_STRADDLE,
                     _return_total(completed(straddle, cls4)), workdir),
            "raised AssertionError: interval straddles a breakpoint")]
        if pool is None:
            pool = json.loads(POOL_FILE.read_text())
        self.octiles = [[] for _ in range(len(N_OCTILE_EDGES) + 1)]
        for i, entry in enumerate(pool):
            command = self.pool_command(f"pool-{i}", entry)
            if entry["failure"] is None:
                self.octiles[bisect_left(N_OCTILE_EDGES, entry["N"])].append(command)
            else:
                self.known_defects.append(_known_defect(command, entry["failure"]))
        self._passes = {}

    def pool_command(self, label, entry) -> Command:
        return _realize(label, self.seed_files[entry["d"]], entry["kinds"], entry["N"],
                        self.workdir)

    def draw_path(self, rng):
        """One unstratified draw: the letter count, the kinds and the N of the path."""
        from gietlab.combinatorics import RauzyPath

        d = rng.choice(sorted(MULTI_DATA))
        length = rng.randint(12, 22)
        kinds = "".join(rng.choice("tb") for _ in range(length))
        path = RauzyPath.from_kinds(self.data[d], kinds)
        return d, kinds, _return_total(completed(path, self.classes[d]))

    def stratified_draws(self, rng, per_octile) -> list:
        """Unstratified draws, kept until every octile of N holds ``per_octile``."""
        held = [0] * (len(N_OCTILE_EDGES) + 1)
        kept = []
        while len(kept) < per_octile * len(held):
            d, kinds, n = self.draw_path(rng)
            octile = bisect_left(N_OCTILE_EDGES, n)
            if held[octile] < per_octile:
                held[octile] += 1
                kept.append({"d": d, "kinds": kinds, "N": n})
        return kept

    def _draw(self, index: int) -> list:
        # each octile is dealt out in a seeded order, so the passes of a run
        # go through the pool before any draw repeats
        rng = random.Random(f"multi-realize:{self.seed}")
        drawn = []
        for octile in self.octiles:
            order = rng.sample(octile, len(octile))
            first = index * DRAWS_PER_OCTILE
            drawn += [order[i % len(order)] for i in range(first, first + DRAWS_PER_OCTILE)]
        random.Random(f"multi-realize:{self.seed}:{index}").shuffle(drawn)
        return self.pinned + drawn

    def pass_commands(self, index: int) -> list:
        if index not in self._passes:
            self._passes = {index: self._draw(index)}
        return self._passes[index]


class Conjugacy:
    """``partition`` and ``semiconj`` on two fixed GIETs and their model IETs."""

    name = "conjugacy"

    def __init__(self, workdir: Path, seed: int):
        from gietlab import fileio
        from gietlab.thurston import build_reference

        g = (math.sqrt(5) - 1) / 2
        f2 = _smooth_seed("A B / B A", [1 - g, g], {"A": 2.0, "B": -1.5})
        raw = [math.sqrt(p) for p in (2, 3, 5, 7)]
        f4 = _smooth_seed(MULTI_DATA[4], [x / sum(raw) for x in raw], {"A": 1.0, "C": -0.7})
        files, refs = {}, {}
        for name, f, order in (("f2", f2, 21), ("f4", f4, 40)):
            files[name] = _write_giet(f, workdir / f"{name}.json")
            refs[name] = build_reference(f.rauzy_path(order).path)
            files["m" + name[1]] = _write(
                fileio.iet_document(refs[name].base_iet), workdir / f"m{name[1]}.json"
            )
        self.commands = [
            self._partition(workdir, "f2", files["f2"], 21, refs["f2"].N),
            self._partition(workdir, "m2", files["m2"], 21, refs["f2"].N),
            self._semiconj(files, "2", 21, refs["f2"].N, seed),
            self._partition(workdir, "f4", files["f4"], 40, refs["f4"].N),
            self._semiconj(files, "4", 40, refs["f4"].N, seed),
            self._partition(workdir, "f4", files["f4"], 60, None),
        ]

    @staticmethod
    def _partition(workdir, name, doc_file, order, n):
        label = f"partition-{name}-r{order}"
        out = str(workdir / f"{label}.json")
        return Command(
            label=label,
            kind="partition",
            argv=["partition", doc_file, "-r", str(order), "-o", out,
                  "--svg", str(workdir / f"{label}.svg")],
            output=out,
            expect={"pin": f"{name}@{order}"},
            info={"map": name, "N": n, "order": order},
        )

    @staticmethod
    def _semiconj(files, d, order, n, seed):
        return Command(
            label=f"semiconj-f{d}-m{d}-r{order}",
            kind="semiconj",
            argv=["semiconj", files[f"f{d}"], files[f"m{d}"], "-r", str(order),
                  "--spot-check", "32", "--seed", str(seed)],
            info={"maps": f"f{d} m{d}", "N": n, "order": order},
        )

    known_defects = ()

    def pass_commands(self, index: int) -> list:
        return self.commands


WORKLOADS = {cls.name: cls for cls in (FibRealize, MultiRealize, Conjugacy)}
NAMES = tuple(WORKLOADS)


def set_up(name: str, workdir: Path, seed: int):
    """Write the inputs of workload ``name`` and return its pass source."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](workdir, seed)
