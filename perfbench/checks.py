"""Running one command and checking what it produced.

A command fails when ``main`` raises, exits with a nonzero code, or produces
an output that does not check out.  The last kind is a wrong answer, not a
refusal: it also makes the run incorrect.  Checks run outside the timed
region.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


class WrongOutput(Exception):
    """A command exited 0 but its output is not what it must be."""


@dataclass
class Outcome:
    label: str
    kind: str
    seconds: float
    rc: int | None
    error: str | None
    stdout: str
    stderr: str
    result: dict = field(default_factory=dict)
    failure: str | None = None
    wrong: bool = False


def execute(main, command) -> Outcome:
    """Run ``main(command.argv)`` with its output captured; only the call is timed."""
    if command.output:
        Path(command.output).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(command.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            error = f"{type(exc).__name__}: {exc}"
            err.write(traceback.format_exc())
        seconds = perf_counter() - t0
    return Outcome(command.label, command.kind, seconds, rc, error, out.getvalue(), err.getvalue())


def label_digest(labels) -> str:
    return hashlib.sha256("\n".join(labels).encode()).hexdigest()


def _check_realize(command, outcome, pins):
    from gietlab import fileio
    from gietlab.thurston import GietFamily

    with open(command.output) as fh:
        doc = json.load(fh)
    if doc["status"] != "realized" or doc["certificate"] is not True:
        raise WrongOutput(
            f"status {doc['status']!r}, certificate {doc['certificate']!r} with exit code 0"
        )
    kinds = command.expect["kinds"]
    seed = fileio.load_map(command.expect["seed_file"])
    achieved = GietFamily(seed).at(doc["tau"]).rauzy_path(len(kinds)).path.kinds
    if achieved != kinds:
        raise WrongOutput(f"re-induction from the reported tau gives {achieved!r}, not {kinds!r}")
    return {"iterations": doc["iterations"], "tau": doc["tau"]}


def _check_partition(command, outcome, pins):
    data = Path(command.output).read_bytes()
    atoms = json.loads(data)["atoms"]
    digest = label_digest(atom["label"] for atom in atoms)
    pin = pins[command.expect["pin"]]
    if len(atoms) != pin["atoms"]:
        raise WrongOutput(f"{len(atoms)} atoms, pinned {pin['atoms']}")
    if digest != pin["labels"]:
        raise WrongOutput(f"labels differ from the pinned {pin['source']} labels")
    return {"atoms": len(atoms), "document": hashlib.sha256(data).hexdigest()}


def _check_semiconj(command, outcome, pins):
    match = re.search(r"^residual: (\S+)$", outcome.stdout, re.M)
    if match is None:
        raise WrongOutput("no residual line")
    value = float(match.group(1))
    if not math.isfinite(value):
        raise WrongOutput(f"residual {value}")
    return {"residual": value, "stdout": hashlib.sha256(outcome.stdout.encode()).hexdigest()}


CHECKS = {"realize": _check_realize, "partition": _check_partition, "semiconj": _check_semiconj}


def check(command, outcome: Outcome, pins: dict) -> Outcome:
    """Fill in ``result``, ``failure`` and ``wrong`` of an executed command."""
    if outcome.error is not None:
        outcome.failure = f"raised {outcome.error}"
    elif outcome.rc != 0:
        last = outcome.stderr.strip().splitlines()[-1:] or [""]
        outcome.failure = f"exit code {outcome.rc}: {last[0]}"
    else:
        try:
            outcome.result = CHECKS[command.kind](command, outcome, pins)
        except Exception as exc:  # whatever breaks on reading the output, the output is wrong
            outcome.failure = f"wrong output: {type(exc).__name__}: {exc}"
            outcome.wrong = True
    return outcome


def same_output(a: Outcome, b: Outcome) -> str | None:
    """Why two runs of one command differ, or None when they agree."""
    if (a.rc, a.error) != (b.rc, b.error):
        return f"{a.label}: exit {a.rc}/{a.error} vs {b.rc}/{b.error}"
    if a.result != b.result:
        return f"{a.label}: outputs differ"
    return None
