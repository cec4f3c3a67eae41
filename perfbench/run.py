"""Benchmark of the ``gietlab`` commands realize, partition and semiconj.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fib-realize --seed 1 --seconds 30 --trace 0

Each workload runs in this one process and thread, as a closed loop with one
caller: ``gietlab.cli.main(argv)`` is called on the generated inputs, and
each command starts after the previous one has finished and been checked.
The run sets up ``SETUP_ROUNDS`` times (fresh import plus input generation)
and reports the median, then runs the workload's passes command by command
until the next command is expected to end after ``--seconds``; the first
pass always completes.

The speed of a shared machine can drift by a third for minutes at a time,
so the gated times are scaled to a reference speed: a fixed probe of
pure-Python work is timed around every set-up round and before every
command, and a time is multiplied by ``PROBE_REF_S`` over the probe's time.
The unscaled times are printed beside them.

Inputs the program is known to fail on (a workload's ``known_defects``) run
once after the timed loop.  They count in ``fail_ratio`` and are listed, but
not in the result line's ``attempted`` and ``failed``, which cover the timed
commands only.

``--trace 0`` prints every metric the run measured, then, as its last line,
the JSON result with the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes over the same commands,
checks that both produce the same outputs and that every expected layer
shows up, and reports the per-layer metrics instead.  Run records, outputs
and spans go to ``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks  # the benchmark's own modules sit beside this file
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 7
P90_MIN_SAMPLES = 100
PROBE_REF_S = 0.002  # the probe's time at the speed the scaled metrics are given at
PROBES_PER_SAMPLE = 10


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe() -> float:
    """Time one slice of fixed pure-Python work that uses no ``gietlab`` code."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    x = 0.0
    for i in range(3000):
        x = x * 0.999 + i**0.5
    return perf_counter() - t0


def probe_mean() -> float:
    """Mean of ``PROBES_PER_SAMPLE`` probe times: higher when the machine runs slower."""
    return statistics.fmean(probe() for _ in range(PROBES_PER_SAMPLE))


def set_up_once(name, workdir, seed):
    """One set-up round: drop ``gietlab`` from the import cache, import it, make the inputs.

    Returns the round's time, the mean probe time around it, and the pass source.
    """
    for module in [m for m in sys.modules if m == "gietlab" or m.startswith("gietlab.")]:
        del sys.modules[module]
    gc.collect()
    before = probe_mean()
    t0 = perf_counter()
    import gietlab.cli  # noqa: F401

    source = workloads.set_up(name, workdir, seed)
    seconds = perf_counter() - t0
    return seconds, (before + probe_mean()) / 2, source


def run_one(main, command, pins, recorder=None, command_id=None):
    if recorder is None:
        outcome = checks.execute(main, command)
    else:
        with recorder.command_span(command_id, f"cli.{command.kind}"):
            outcome = checks.execute(main, command)
    return checks.check(command, outcome, pins)


def run_pass(main, commands, pins, recorder=None, pass_index=0):
    return [run_one(main, c, pins, recorder, f"{pass_index}:{i}") for i, c in enumerate(commands)]


def measure(source, main, pins, seconds):
    """Untraced passes, command by command, until the next command is expected
    to end after ``seconds``.  The first pass always completes; the last one
    may be cut short.  Returns ``(commands, outcomes)`` per pass, and the
    probe times taken before each command."""
    start, last, runs, index, probes = perf_counter(), {}, [], 0, []
    while True:
        commands, outcomes = source.pass_commands(index), []
        runs.append((commands, outcomes))
        for command in commands:
            if index:
                done = [o.seconds for _, ran in runs for o in ran]
                guess = last.get(tuple(command.argv), statistics.fmean(done))
                if perf_counter() - start + guess > seconds:
                    return runs, probes
            probes.append(probe_mean())
            outcomes.append(run_one(main, command, pins))
            last[tuple(command.argv)] = outcomes[-1].seconds
        index += 1


def measure_traced(source, main, pins, seconds):
    """Pairs of passes over the same commands, untraced then traced, until the
    next pair is expected to end after ``seconds``.  Returns the
    ``(commands, untraced, traced)`` triples and the recorder."""
    recorder = spans.Recorder()
    runs, start = [], perf_counter()
    while True:
        commands = source.pass_commands(len(runs))
        plain = run_pass(main, commands, pins)
        recorder.install()
        try:
            traced = run_pass(main, commands, pins, recorder, len(runs))
        finally:
            recorder.uninstall()
        runs.append((commands, plain, traced))
        elapsed = perf_counter() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs, recorder


def metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def pass_seconds(outcomes, kind=None):
    return sum(o.seconds for o in outcomes if kind is None or o.kind == kind)


def run_known_defects(source, main, pins):
    """Run each known-defect input once, untimed and untraced."""
    return [run_one(main, c, pins) for c in source.known_defects]


def end_to_end(runs, setup_rounds, probes, known=()):
    """Every end-to-end metric this workload produces, with unit and sample count.

    ``setup_rounds`` holds ``(seconds, probe seconds)`` per set-up round,
    ``probes`` the probe times taken between commands, and ``known`` the
    outcomes of the known-defect inputs.  Per-pass sums use the passes that
    completed; per-command figures use every timed command.
    """
    outcomes = [o for _, ran in runs for o in ran]
    passes = [ran for commands, ran in runs if len(ran) == len(commands)]
    by_command = defaultdict(list)
    for commands, ran in runs:
        for command, outcome in zip(commands, ran):
            by_command[tuple(command.argv)].append(outcome.seconds)
    # each distinct command counts once, however often it ran
    gmean = statistics.geometric_mean(statistics.geometric_mean(v) for v in by_command.values())
    n_setup = len(setup_rounds)
    out = {
        "setup_s": metric(statistics.median(t * PROBE_REF_S / p for t, p in setup_rounds),
                          "s", n_setup),
        "cmd_gmean_s": metric(gmean * PROBE_REF_S / statistics.fmean(probes), "s", len(outcomes)),
        "setup_unscaled_s": metric(statistics.median(t for t, _ in setup_rounds), "s", n_setup),
        "cmd_gmean_unscaled_s": metric(gmean, "s", len(outcomes)),
        "probe_s": metric(statistics.fmean(probes), "s", len(probes)),
        "wall_s": metric(statistics.median(pass_seconds(p) for p in passes), "s", len(passes)),
    }
    for kind in ("realize", "partition", "semiconj"):
        if any(o.kind == kind for o in outcomes):
            values = [pass_seconds(p, kind) for p in passes]
            out[f"{kind}_s"] = metric(statistics.median(values), "s", len(values))
    realize = sorted(o.seconds for o in outcomes if o.kind == "realize")
    if realize:
        out["realize_cmd_p50_s"] = metric(statistics.median(realize), "s", len(realize))
    if len(realize) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(realize, n=10)[-1]
        out["realize_cmd_p90_s"] = metric(p90, "s", len(realize))
    executed = outcomes + list(known)
    failed = sum(o.failure is not None for o in executed)
    out["fail_ratio"] = metric(failed / len(executed), "ratio", len(executed))
    if known:
        out["known_defects.failed"] = metric(
            sum(o.failure is not None for o in known), "count", len(known))
    out["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    residuals = [o.result["residual"] for o in outcomes if "residual" in o.result]
    if residuals:
        out["residual_max"] = metric(max(residuals), "1", len(residuals))
    if realize:
        per_pass = [sum(o.result.get("iterations", 0) for o in p) for p in passes]
        out["thurston.solve.iterations"] = metric(
            statistics.median(per_pass), "count", len(per_pass))
    return out


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def per_layer(workload, runs, recorder):
    """Per-layer metrics of the traced passes, and the problems the traced run found."""
    problems = []
    for commands, plain, traced in runs:
        for a, b in zip(plain, traced):
            reason = checks.same_output(a, b)
            if reason:
                problems.append(f"traced run differs: {reason}")
    missing = spans.missing_layers(workload, recorder.spans, recorder.counts)
    if missing:
        problems.append(f"layers never traced: {', '.join(missing)}")
    n = len(runs)
    values = spans.layer_metrics(recorder.spans, recorder.counts, recorder.max_depth, n)
    out = {name: metric(value, layer_unit(name), n) for name, value in values.items()}
    iterations = [sum(o.result.get("iterations", 0) for o in traced) for _, _, traced in runs]
    out["thurston.solve.iterations"] = metric(statistics.median(iterations), "count", n)
    overhead = [pass_seconds(t) - pass_seconds(p) for _, p, t in runs]
    out["trace.overhead_s"] = metric(statistics.median(overhead), "s", n)
    return out, problems


def git_commit():
    # the ceiling keeps git from taking the commit of a repository around the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def command_record(command, outcome):
    return {"label": command.label, "kind": command.kind, **command.info,
            "seconds": outcome.seconds, "failure": outcome.failure}


def run_record(args, setup_rounds, runs, known, table, problems):
    return {
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_rounds": [{"seconds": t, "probe_s": p} for t, p in setup_rounds],
        "passes": [[command_record(c, o) for c, o in zip(run[0], run[1])] for run in runs],
        "known_defects": [command_record(c, o) for c, o in known],
        "metrics": table,
        "problems": problems,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        die("refusing to run under python -O: gietlab still validates with assert")
    if not (SRC / "gietlab" / "cli.py").is_file():
        die(f"no gietlab sources at {SRC}")
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        pins = json.loads((HERE / "pins.json").read_text())
    except (OSError, ValueError) as exc:
        die(f"cannot read the benchmark's files: {exc}")
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    setup_rounds = []
    for _ in range(SETUP_ROUNDS):
        seconds, probe_s, source = set_up_once(args.workload, workdir, args.seed)
        setup_rounds.append((seconds, probe_s))
    cli = sys.modules["gietlab.cli"]
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        die(f"gietlab was imported from {cli.__file__}, not from {SRC}")

    if args.trace:
        runs, recorder = measure_traced(source, cli.main, pins, args.seconds)
    else:
        runs, probes = measure(source, cli.main, pins, args.seconds)
    known = list(zip(source.known_defects, run_known_defects(source, cli.main, pins)))
    outcomes = [o for run in runs for ran in run[1:] for o in ran]
    problems = [f"{o.label}: {o.failure}" for o in outcomes + [o for _, o in known] if o.wrong]
    if args.trace:
        table, trace_problems = per_layer(args.workload, runs, recorder)
        problems += trace_problems
        wanted = declared["per_layer"]
        with open(workdir / "spans.jsonl", "w") as fh:
            for s in recorder.spans:
                fh.write(json.dumps(s) + "\n")
    else:
        table = end_to_end(runs, setup_rounds, probes, [o for _, o in known])
        wanted = declared["end_to_end"]

    record = run_record(args, setup_rounds, runs, known, table, problems)
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}  seed {args.seed}  {len(runs)} passes  "
          f"{len(outcomes)} commands  trace {args.trace}")
    for name, m in table.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} n={m['n']}")
    for o in outcomes:
        if o.failure:
            print(f"  failed {o.label}: {o.failure}")
    for c, o in known:
        print(f"  known defect {c.label} ({c.info['kinds']}): {o.failure or 'no longer fails'}")
    for problem in problems:
        print(f"  PROBLEM {problem}")

    metrics = {}
    for spec in wanted:
        m = table.get(spec["name"])
        if m is None or m["unit"] != spec["unit"] or not math.isfinite(m["value"]):
            die(f"metric {spec['name']} is missing or not in {spec['unit']}: {m}")
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    # attempted and failed cover the timed commands; the known defects are listed above
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.failure is not None for o in outcomes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
