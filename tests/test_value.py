"""The package's value classes behave as the dataclasses they replaced, and
importing the command line loads none of ``dataclasses``, ``inspect`` and
``typing``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import Degeneration
import gietlab
from gietlab.branches import Affine, Chain, PiecewiseLinear, SmoothParam, Translation
from gietlab.combinatorics import CombinatorialDatum, IntMatrix, RauzyArrow, RauzyPath
from gietlab.exact_iet import ExactIET
from gietlab.giet import DynamicalPartition, Giet
from gietlab.thurston import RealizeResult, RefConfig, SolveReport


def test_importing_the_command_line_loads_no_dataclasses_inspect_or_typing():
    src = str(Path(gietlab.__file__).resolve().parents[1])
    code = ("import sys, gietlab.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


D2 = "CombinatorialDatum(top=('A', 'B'), bottom=('B', 'A'))"
T = "Translation(domain=(0.0, 0.5), range_=(0.5, 1.0))"
A = "Affine(domain=(0.5, 1.0), range_=(0.0, 0.5))"
ARROW = f"RauzyArrow(source={D2}, kind='t', winner='B', loser='A', target={D2})"
PATH = f"RauzyPath(source={D2}, arrows=({ARROW},))"


def datum():
    return CombinatorialDatum(("A", "B"), ("B", "A"))


def arrow():
    return RauzyArrow(datum(), "t", "B", "A", datum())


def giet():
    return Giet(datum(), 1.0, {"A": Translation((0.0, 0.5), (0.5, 1.0)),
                               "B": Affine((0.5, 1.0), (0.0, 0.5))})


def ref():
    path = RauzyPath(datum(), (arrow(),))
    model = ExactIET(datum(), (1, 2))
    return RefConfig(path=path, N=3, h={"A": 0, "B": 1}, grid=model, crit_pos={"A": 0, "B": 1},
                     orbit=(0, 2, 1))


def report():
    return SolveReport("realized", {"A": 0.5, "B": 0.5}, (0.0, 0.5), 2, [(1, 0.25)])


# (how to make two equal values, what the dataclass ``repr`` printed, and
# whether the class is frozen and hashable, frozen with a dict field, or mutable)
CASES = {
    "Translation": (
        # the shift is not compared
        (lambda: Translation((0.0, 0.5), (0.5, 1.0)),
         lambda: Translation((0.0, 0.5), (0.5, 1.0), 0.5 + 1e-17)),
        T, "hashable"),
    "Affine": ((lambda: Affine((0.5, 1.0), (0.0, 0.5)),) * 2, A, "hashable"),
    "PiecewiseLinear": (
        (lambda: PiecewiseLinear(((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))),) * 2,
        "PiecewiseLinear(nodes=((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)))", "hashable"),
    "SmoothParam": (
        (lambda: SmoothParam((0.0, 0.5), (0.5, 1.0), 2.0),) * 2,
        "SmoothParam(domain=(0.0, 0.5), range_=(0.5, 1.0), k=2.0)", "hashable"),
    "Chain": (
        (lambda: Chain((Translation((0.0, 0.5), (0.5, 1.0)), Affine((0.5, 1.0), (0.0, 0.5)))),
         lambda: Chain((Chain((Translation((0.0, 0.5), (0.5, 1.0)),)),
                        Affine((0.5, 1.0), (0.0, 0.5))))),
        f"Chain(parts=({T}, {A}), domain=(0.0, 0.5), range_=(0.0, 0.5))", "hashable"),
    "CombinatorialDatum": ((datum,) * 2, D2, "hashable"),
    "RauzyArrow": ((arrow,) * 2, ARROW, "hashable"),
    "RauzyPath": ((lambda: RauzyPath(datum(), (arrow(),)),) * 2, PATH, "hashable"),
    "IntMatrix": (
        (lambda: IntMatrix(("A", "B"), ((1, 1), (0, 1))),) * 2,
        "IntMatrix(alphabet=('A', 'B'), rows=((1, 1), (0, 1)))", "hashable"),
    "ExactIET": (
        (lambda: ExactIET(datum(), (1, 2)),) * 2,
        f"ExactIET(datum={D2}, lengths=(1, 2))", "hashable"),
    "DynamicalPartition": (
        (lambda: DynamicalPartition(1, ((0, 2, "A", 0), (2, 3, "B", 0)),
                                    RauzyPath(datum(), (arrow(),))),) * 2,
        f"DynamicalPartition(order=1, atoms=((0, 2, 'A', 0), (2, 3, 'B', 0)), path={PATH})",
        "hashable"),
    "Giet": (
        (giet,) * 2,
        f"Giet(datum={D2}, length=1.0, branches={{'A': {T}, 'B': {A}}})", "frozen"),
    "Degeneration": (
        (lambda: Degeneration(datum(), datum(), giet(), {"C": (0.5, 0.5)}),) * 2,
        f"Degeneration(datum={D2}, reduced_datum={D2}, regular=Giet(datum={D2}, length=1.0, "
        f"branches={{'A': {T}, 'B': {A}}}), singular={{'C': (0.5, 0.5)}})", "frozen"),
    "RefConfig": (
        (ref,) * 2,
        f"RefConfig(path={PATH}, N=3, h={{'A': 0, 'B': 1}}, "
        f"grid=ExactIET(datum={D2}, lengths=(1, 2)), crit_pos={{'A': 0, 'B': 1}}, "
        "orbit=(0, 2, 1))", "frozen"),
    "SolveReport": (
        (report,) * 2,
        "SolveReport(status='realized', tau={'A': 0.5, 'B': 0.5}, config=(0.0, 0.5), "
        "iterations=2, deltas=[(1, 0.25)], map=None, faces=(), newton_steps=0, induction=None)",
        "mutable"),
    "RealizeResult": (
        (lambda: RealizeResult(True, report(), None, 0),) * 2,
        "RealizeResult(certificate=True, report=SolveReport("
        "status='realized', tau={'A': 0.5, 'B': 0.5}, config=(0.0, 0.5), iterations=2, "
        "deltas=[(1, 0.25)], map=None, faces=(), newton_steps=0, induction=None), ref=None, "
        "appended=0, certificate_error=None)", "mutable"),
}


@pytest.mark.parametrize("name", CASES)
def test_value_classes_compare_hash_print_and_freeze_as_dataclasses(name):
    (make_a, make_b), text, kind = CASES[name]
    a, b = make_a(), make_b()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != (a,) and (a == object()) is False
    assert repr(a) == repr(b) == text
    field = type(a)._fields[0]
    if kind == "mutable":
        assert type(a).__hash__ is None
        setattr(a, field, "changed")
        assert getattr(a, field) == "changed" and a != b
        return
    if kind == "hashable":
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(a, field)
    assert a == b
