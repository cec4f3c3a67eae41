"""The traced benchmark's layers, reached by a traced ``realize``.

``perfbench/spans.py`` wraps the library's functions by name, and a traced
``fib-realize`` run fails when an expected layer produces no span.  This test
imports ``spans`` read only, traces one ``realize`` of the Fibonacci path of
depth 12 with the ``fib-realize`` seed, and checks that every expected layer
was reached and that uninstalling restores the library.  So a renamed or
bypassed layer fails here before it reaches the benchmark.  It writes
nothing under ``perfbench/``.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gietlab import branches, cli, fileio, thurston
from gietlab.branches import SmoothParam
from gietlab.combinatorics import parse_datum
from gietlab.exact_iet import ExactIET
from gietlab.giet import giet_from_branches

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
D2 = parse_datum("A B", "B A")


def tree_state(root):
    return {p: p.stat().st_mtime_ns for p in root.rglob("*")}


@pytest.fixture
def spans(monkeypatch):
    """``perfbench/spans.py`` imported without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    yield spans
    sys.modules.pop("spans", None)


def test_traced_realize_reaches_every_fib_realize_layer(spans, tmp_path):
    before = tree_state(PERFBENCH)
    step, inverse = thurston.step, vars(branches.Chain)["inverse"]
    seed = giet_from_branches(
        D2, [0.5, 0.5], [0.5, 0.5],
        lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else -1.5),
    )
    seed_path = tmp_path / "fib-seed.json"
    fileio.dump(fileio.giet_document(seed), str(seed_path))
    model = ExactIET.from_lengths(D2, [Fraction(2584, 6765), Fraction(4181, 6765)])
    kinds = model.rauzy_path(12).path.kinds
    recorder = spans.Recorder()
    recorder.install()
    try:
        with recorder.command_span(0, "cli.realize"):
            code = cli.main(["realize", str(seed_path), kinds, "-o", str(tmp_path / "out.json")])
    finally:
        recorder.uninstall()
    assert code == 0
    assert spans.missing_layers("fib-realize", recorder.spans, recorder.counts) == []
    assert thurston.step is step and vars(branches.Chain)["inverse"] is inverse
    assert tree_state(PERFBENCH) == before
