"""Spans around the public functions of each ``gietlab`` layer, for the traced run.

The wrappers are installed from outside, by rebinding every name under which
``gietlab`` code looks a function up: a function imported with
``from .giet import dynamical_partition`` is a separate global in each module
that imports it, and each one must be replaced or its calls are missed.
Methods are rebound on their class.  Per-point branch ``eval`` is left alone:
it runs millions of times per pass.

A span is ``[command, id, parent, name, start, end, attrs]``.  Spans stay in
memory until the run ends.  Nothing is recorded outside a command, so the
output checks between commands add no spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

CMD, ID, PARENT, NAME, START, END, ATTRS = range(7)


class Recorder:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.command = None
        self._stack = []
        self._deepest = None  # (steps, induced map) of the longest float induction
        self.max_depth = 0
        self._undo = []

    def _open(self, name):
        parent = self._stack[-1][ID] if self._stack else None
        span = [self.command, len(self.spans), parent, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span):
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def command_span(self, command_id, name):
        """Root span of one command; the branch depth is measured after it ends."""
        self.command = command_id
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self.command = None
            if self._deepest is not None:
                self.max_depth = max(self.max_depth, branch_depth_of(self._deepest[1]))
                self._deepest = None

    def span(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.command is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[ATTRS] = attrs(self, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.command is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def note_induction(self, result):
        steps = len(result.path)
        if self._deepest is None or steps > self._deepest[0]:
            self._deepest = (steps, result.map)

    def install(self):
        """Rebind every traced function in every loaded ``gietlab`` module."""
        from gietlab import branches, combinatorics, exact_iet, fileio, full_family
        from gietlab import giet, semiconjugacy, svg, thurston

        def float_induction(rec, args, result):
            rec.note_induction(result)
            return {"steps": len(result.path), "tie": result.tie, "kinds": result.path.kinds}

        plan = [
            (thurston, "solve", "thurston.solve",
             lambda rec, args, r: {"status": r.status, "target": args[1].path.kinds}),
            (thurston, "step", "thurston.step", None),
            (thurston, "build_reference", "thurston.build_reference",
             lambda rec, args, r: {"points": r.N}),
            (full_family, "apply", "full_family.apply", None),
            (giet.Giet, "rauzy_path", "giet.rauzy_path", float_induction),
            (giet, "dynamical_partition", "giet.dynamical_partition",
             lambda rec, args, r: {"atoms": len(r.atoms)}),
            (exact_iet.ExactIET, "rauzy_path", "exact_iet.rauzy_path",
             lambda rec, args, r: {"steps": len(r.path)}),
            (branches.Chain, "inverse", "branches.chain_inverse", None),
            (combinatorics, "rauzy_class", "combinatorics.rauzy_class", None),
            (combinatorics, "find_path", "combinatorics.find_path", None),
            (combinatorics, "path_matrix", "combinatorics.path_matrix", None),
            (semiconjugacy, "build_semiconjugacy", "semiconjugacy.build",
             lambda rec, args, r: {"nodes": len(r.nodes)}),
            (semiconjugacy, "residual", "semiconjugacy.residual",
             lambda rec, args, r: {"samples": residual_samples(*args)}),
            (fileio, "load_map", "fileio.load", None),
            (fileio, "giet_from_document", "fileio.load", None),
            (fileio, "dump", "fileio.dump", None),
            (svg, "render_partition", "svg.render", None),
        ]
        for owner, attr, name, attrs in plan:
            self._rebind(getattr(owner, attr), self.span(name, getattr(owner, attr), attrs))
        self._rebind(exact_iet.ExactIET.eval,
                     self.counter("exact_iet.eval.calls", exact_iet.ExactIET.eval))

    def _rebind(self, original, replacement):
        homes = [m for n, m in sys.modules.items() if n == "gietlab" or n.startswith("gietlab.")]
        homes += [v for m in list(homes) for v in vars(m).values() if isinstance(v, type)]
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is original:
                    setattr(home, key, replacement)
                    self._undo.append((home, key, original))

    def uninstall(self):
        for home, key, original in reversed(self._undo):
            setattr(home, key, original)
        self._undo.clear()


def residual_samples(h, f, T, sample_count=128) -> int:
    """Number of points ``semiconjugacy.residual`` evaluates.

    ``residual`` does not expose its sample set, so this rebuilds it the same
    way: keep it in step with ``semiconjugacy.residual``.
    """
    xs = {0.5 * (x0 + x1) for (x0, _), (x1, _) in zip(h.nodes, h.nodes[1:])}
    xs.update((i + 0.5) / sample_count for i in range(sample_count))
    return len(xs)


def branch_depth_of(g) -> int:
    """Deepest nesting of branch wrappers over the letters of a GIET."""
    memo = {}

    def depth(b):
        key = id(b)
        if key not in memo:
            children = [v for v in vars(b).values() if hasattr(v, "eval")]
            for v in vars(b).values():
                if isinstance(v, tuple):
                    children += [p for p in v if hasattr(p, "eval")]
            memo[key] = 1 + max((depth(c) for c in children), default=0)
        return memo[key]

    return max(depth(b) for b in g.branches.values())


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s[START]
        for lo, hi in sorted(children.get(s[ID], ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[ID]] = (s[END] - s[START]) - covered
    return out


def layer_metrics(spans, counts, max_depth, passes) -> dict:
    """Per-layer metrics per pass: ``_s`` names are self time, the rest counts."""
    own = self_times(spans)
    by_id = {s[ID]: s for s in spans}
    time, calls = defaultdict(float), Counter()
    steps, ties, atoms, points, nodes, samples = Counter(), 0, 0, 0, 0, 0
    checks = hits = solves_failed = 0
    for s in spans:
        name, attrs = s[NAME], s[ATTRS]
        time[name] += own[s[ID]]
        calls[name] += 1
        if attrs is None:  # no attributes kept, or the call raised
            continue
        if name in ("giet.rauzy_path", "exact_iet.rauzy_path"):
            steps[name] += attrs["steps"]
        if name == "giet.rauzy_path":
            ties += attrs["tie"]
            parent = by_id.get(s[PARENT])
            if parent is not None and parent[NAME] == "thurston.solve":
                checks += 1
                hits += attrs["kinds"] == (parent[ATTRS] or {}).get("target")
                time["thurston.path_check"] += own[s[ID]]
        elif name == "thurston.solve":
            solves_failed += attrs["status"] != "realized"
        elif name == "thurston.build_reference":
            points += attrs["points"]
        elif name == "giet.dynamical_partition":
            atoms += attrs["atoms"]
        elif name == "semiconjugacy.build":
            nodes += attrs["nodes"]
        elif name == "semiconjugacy.residual":
            samples += attrs["samples"]

    def per_pass(x):
        return x / passes

    return {
        "thurston.path_check_s": per_pass(time["thurston.path_check"]),
        "thurston.path_check.calls": per_pass(checks),
        "thurston.path_check.hit_ratio": hits / checks if checks else 0.0,
        "giet.rauzy_path_s": per_pass(time["giet.rauzy_path"]),
        "giet.rauzy_path.steps": per_pass(steps["giet.rauzy_path"]),
        "giet.rauzy_path.ties": per_pass(ties),
        "branches.chain_inverse_s": per_pass(time["branches.chain_inverse"]),
        "branches.chain_inverse.calls": per_pass(calls["branches.chain_inverse"]),
        "branches.max_depth": max_depth,
        "thurston.solve.failed": per_pass(solves_failed),
        "thurston.solve_s": per_pass(time["thurston.solve"]),
        "thurston.step_s": per_pass(time["thurston.step"]),
        "thurston.step.calls": per_pass(calls["thurston.step"]),
        "full_family.apply_s": per_pass(time["full_family.apply"]),
        "full_family.apply.calls": per_pass(calls["full_family.apply"]),
        "thurston.build_reference_s": per_pass(time["thurston.build_reference"]),
        "thurston.reference_points": per_pass(points),
        "giet.dynamical_partition_s": per_pass(time["giet.dynamical_partition"]),
        "giet.dynamical_partition.atoms": per_pass(atoms),
        "exact_iet.rauzy_path_s": per_pass(time["exact_iet.rauzy_path"]),
        "exact_iet.rauzy_path.steps": per_pass(steps["exact_iet.rauzy_path"]),
        "exact_iet.eval.calls": per_pass(counts["exact_iet.eval.calls"]),
        "combinatorics.rauzy_class_s": per_pass(time["combinatorics.rauzy_class"]),
        "combinatorics.rauzy_class.calls": per_pass(calls["combinatorics.rauzy_class"]),
        "combinatorics.find_path_s": per_pass(time["combinatorics.find_path"]),
        "combinatorics.path_matrix_s": per_pass(time["combinatorics.path_matrix"]),
        "combinatorics.path_matrix.calls": per_pass(calls["combinatorics.path_matrix"]),
        "semiconjugacy.build_s": per_pass(time["semiconjugacy.build"]),
        "semiconjugacy.nodes": per_pass(nodes),
        "semiconjugacy.residual_s": per_pass(time["semiconjugacy.residual"]),
        "semiconjugacy.residual.samples": per_pass(samples),
        "fileio.load_s": per_pass(time["fileio.load"]),
        "fileio.dump_s": per_pass(time["fileio.dump"]),
        "svg.render_s": per_pass(time["svg.render"]),
    }


# Spans (and counters) each workload must produce, or its traced run fails.
_REALIZE = {
    "cli.realize", "fileio.load", "fileio.dump", "combinatorics.rauzy_class",
    "combinatorics.path_matrix", "thurston.build_reference", "exact_iet.rauzy_path",
    "thurston.solve", "thurston.step", "full_family.apply", "giet.rauzy_path",
    "thurston.path_check", "branches.chain_inverse", "giet.dynamical_partition",
    "exact_iet.eval.calls",
}
EXPECTED = {
    "fib-realize": _REALIZE,
    "multi-realize": _REALIZE | {"combinatorics.find_path"},
    "conjugacy": {
        "cli.partition", "cli.semiconj", "fileio.load", "fileio.dump", "svg.render",
        "giet.rauzy_path", "exact_iet.rauzy_path", "branches.chain_inverse",
        "thurston.build_reference", "combinatorics.path_matrix", "giet.dynamical_partition",
        "semiconjugacy.build", "semiconjugacy.residual", "exact_iet.eval.calls",
    },
}


def missing_layers(workload, spans, counts) -> list:
    """Expected span or counter names that the traced run never produced."""
    seen = {s[NAME] for s in spans} | {name for name, n in counts.items() if n}
    by_id = {s[ID]: s for s in spans}
    if any(s[NAME] == "giet.rauzy_path" and s[PARENT] is not None
           and by_id[s[PARENT]][NAME] == "thurston.solve" for s in spans):
        seen.add("thurston.path_check")
    return sorted(EXPECTED[workload] - seen)
