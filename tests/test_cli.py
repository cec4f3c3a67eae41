import ast
import doctest
import html
import json
import math
import os
import random
import re
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import pytest

import gietlab
from conftest import breaking_step, exchanged_cells, shrinking_circle_map, unit_iet
from gietlab import cli, fileio, semiconjugacy, svg, thurston
from gietlab.branches import Affine, Chain, PiecewiseLinear, SmoothParam
from gietlab.cli import build_parser, main
from gietlab.errors import GietlabError, InductionFailed
from gietlab.combinatorics import parse_datum, sigma_and_cyclicity
from gietlab.exact_iet import ExactIET
from gietlab.giet import (
    Atom,
    DynamicalPartition,
    Giet,
    dynamical_partition,
    giet_from_branches,
    giet_from_iet,
)
from gietlab.semiconjugacy import build_semiconjugacy, residual
from gietlab.thurston import MAX_REFERENCE_POINTS, build_reference, in_model_order

D2 = parse_datum("A B", "B A")
D4 = parse_datum("A B C D", "D C B A")
FIG_LABELS = ["A0", "A3", "C1", "B1", "C3", "A1", "B0", "C2", "C0", "D0", "A2"]


def model_iet():
    return ExactIET.from_lengths(
        D4,
        {"A": Fraction(6, 11), "B": Fraction(2, 11), "C": Fraction(1, 11), "D": Fraction(2, 11)},
    )


def write_model_iet(tmp_path):
    path = tmp_path / "model.json"
    fileio.dump(fileio.iet_document(model_iet()), str(path))
    return str(path)


def write_seed_family(tmp_path, datum=D4):
    lam = [6 / 11, 2 / 11, 1 / 11, 2 / 11] if datum.d == 4 else [0.5, 0.5]
    seed = giet_from_branches(
        datum, lam, lam, lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else 0.0)
    )
    path = tmp_path / "seed.json"
    fileio.dump(fileio.giet_document(seed), str(path))
    return str(path)


def test_class_listing(capsys):
    assert main(["class", "A B / B A"]) == 0
    assert capsys.readouterr().out.strip() == "A B / B A"
    assert main(["class", "A B C D / D C B A"]) == 0
    out = capsys.readouterr().out
    assert "A B D C / D A C B" in out
    assert len(out.strip().splitlines()) == 7


def test_class_malformed_input(capsys):
    assert main(["class", "A B / A B C"]) == 1
    assert "error" in capsys.readouterr().err


def test_rauzy_errors_exit_one(capsys):
    assert main(["class", "A B / A B"]) == 1
    assert "seed A B / A B is not admissible" in capsys.readouterr().err
    assert main(["path", "A / A", "t"]) == 1
    assert "at least two letters, A / A has 1" in capsys.readouterr().err


def test_cyclic(capsys):
    assert main(["cyclic", "A B C D / D C B A"]) == 0
    assert capsys.readouterr().out.strip() == "A B D C / D A C B"


def test_path_worked_example(capsys):
    assert main(["path", "A B C D / D C B A", "bbbtb"]) == 0
    out = capsys.readouterr().out
    assert "N: 11" in out
    assert "q: A=3 B=2 C=2 D=4" in out
    assert "target: A B D C / D A C B" in out
    assert "target cyclic: True" in out


def test_path_bad_kind_string(capsys):
    assert main(["path", "A B / B A", "tx"]) == 1


@pytest.mark.parametrize("datum, kinds", [("A B C / A C B", "tt"), ("A B / A B", "tb")],
                         ids=["prefix-A", "identity"])
def test_path_refuses_a_datum_that_is_not_admissible(capsys, datum, kinds):
    # no arrow leaves the datum: no arrows, matrix or N are printed for it,
    # and the error names the datum the user wrote
    assert main(["path", datum, kinds]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: datum {datum} is not admissible: no Rauzy arrow leaves it\n"


def test_realize_bad_kind_string_is_one_error_naming_the_kind(tmp_path, capsys):
    assert main(["realize", write_seed_family(tmp_path), "tbx"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
    assert "kind must be 't' or 'b', got 'x'" in err, err


def test_induct(tmp_path, capsys):
    iet = write_model_iet(tmp_path)
    assert main(["induct", iet, "-r", "5"]) == 0
    out = capsys.readouterr().out
    assert "kinds: bbbtb" in out
    assert "winners: A A A D B" in out
    assert "length A = 1/11" in out


def test_induct_reports_tie(tmp_path, capsys):
    doc = fileio.iet_document(ExactIET.from_lengths(D2, ["1/2", "1/2"]))
    path = tmp_path / "tie.json"
    fileio.dump(doc, str(path))
    assert main(["induct", str(path), "-r", "3"]) == 0
    assert "tie after 0 steps" in capsys.readouterr().out


def test_partition_document_and_svg(tmp_path, capsys):
    iet = write_model_iet(tmp_path)
    out_doc = tmp_path / "partition.json"
    out_svg = tmp_path / "partition.svg"
    assert main(["partition", iet, "-r", "5", "-o", str(out_doc), "--svg", str(out_svg)]) == 0
    doc = json.loads(out_doc.read_text())
    assert [a["label"] for a in doc["atoms"]] == FIG_LABELS
    assert [Fraction(a["left"]) for a in doc["atoms"]] == [Fraction(k, 11) for k in range(11)]
    assert all(Fraction(a["right"]) - Fraction(a["left"]) == Fraction(1, 11) for a in doc["atoms"])
    svg_text = out_svg.read_text()
    for name in FIG_LABELS:
        assert f">{name}</text>" in svg_text
    # labels appear in figure order inside the svg
    positions = [svg_text.index(f">{name}</text>") for name in FIG_LABELS]
    assert positions == sorted(positions)


@pytest.mark.parametrize("write, order", [(write_model_iet, 5), (write_seed_family, 16)],
                         ids=["exact-iet", "float-giet"])
def test_render_of_a_written_partition_is_its_svg_figure(tmp_path, write, order):
    doc, figure, rendered = (tmp_path / name for name in ("p.json", "p.svg", "r.svg"))
    argv = ["partition", write(tmp_path), "-r", str(order), "-o", str(doc), "--svg", str(figure)]
    assert main(argv) == 0
    assert main(["render", str(doc), "-o", str(rendered)]) == 0
    assert len(json.loads(doc.read_text())["atoms"]) > 10
    assert rendered.read_bytes() == figure.read_bytes()


def test_partition_order_zero_labels(tmp_path, capsys):
    iet = write_model_iet(tmp_path)
    assert main(["partition", iet, "-r", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [a["letter"] + str(a["index"]) for a in doc["atoms"]] == ["A0", "B0", "C0", "D0"]


def test_realize_iet_like_family(tmp_path, capsys):
    iet_doc = fileio.giet_document(giet_from_iet(model_iet()))
    family = tmp_path / "family.json"
    fileio.dump(iet_doc, str(family))
    assert main(["realize", str(family), "bbbtb"]) == 0
    out = capsys.readouterr().out
    assert "status: realized" in out
    assert "certificate: true" in out
    for token in ("tau A = 0.5454545454", "tau B = 0.1818181818",
                  "tau C = 0.0909090909", "tau D = 0.1818181818"):
        assert token in out


def test_optimized_python_prints_what_a_normal_run_prints(tmp_path):
    # ``python -O`` strips every ``assert``: no answer may depend on one
    src = str(Path(gietlab.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    seed, iet = write_seed_family(tmp_path), write_model_iet(tmp_path)
    for args in (["realize", seed, "bbbtb"], ["partition", iet, "-r", "5"]):
        normal, optimized = (
            subprocess.run([sys.executable, *flags, "-m", "gietlab.cli", *args],
                           capture_output=True, text=True, env=env, timeout=120)
            for flags in ([], ["-O"])
        )
        assert normal.returncode == optimized.returncode == 0, optimized.stderr
        assert normal.stdout and optimized.stdout == normal.stdout


def test_realize_nonlinear_family(tmp_path, capsys):
    family = write_seed_family(tmp_path)
    report = tmp_path / "report.json"
    assert main(["realize", family, "bbbtb", "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["status"] == "realized" and doc["certificate"] is True


def test_realize_without_a_partition_gives_a_false_certificate(tmp_path, capsys, monkeypatch):
    # a realized map whose partition straddles a breakpoint still gets a
    # verdict: certificate false, the reason on stderr, exit 0
    def straddling(m, r, induction=None, cells=None):
        raise InductionFailed("interval [0.79, 0.80) straddles the right end of letter B")

    monkeypatch.setattr(gietlab.thurston, "dynamical_partition", straddling)
    report = tmp_path / "report.json"
    assert main(["realize", write_seed_family(tmp_path), "bbbtb", "-o", str(report)]) == 0
    out, err = capsys.readouterr()
    assert "status: realized\n" in out and "certificate: false\n" in out
    assert err == ("no partition of the realized map: "
                   "interval [0.79, 0.80) straddles the right end of letter B\n")
    assert json.loads(report.read_text())["certificate"] is False


def test_realize_failure_exit_code(tmp_path, capsys):
    family = write_seed_family(tmp_path, D2)
    # the path takes three Newton steps, so two are too few
    assert main(["realize", family, "tb" * 6, "--max-iter", "2"]) == 4
    err = capsys.readouterr().err
    assert "status 'max_iter' after 2 updates\n" in err and "partial path" in err
    report = tmp_path / "report.json"
    assert main(["realize", family, "tb" * 6, "--max-iter", "3", "-o", str(report)]) == 0
    assert "iterations: 3\nnewton steps: 3\n" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["iterations"] == doc["newton_steps"] == len(doc["deltas"]) == 3


@pytest.mark.parametrize("value", ["-1", "1000001"])
def test_realize_max_iter_out_of_range_is_an_error(tmp_path, capsys, value):
    family = write_seed_family(tmp_path, D2)
    assert main(["realize", family, "tb" * 6, "--max-iter", value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "--max-iter" in err and value in err


def test_realize_with_max_iter_0_checks_the_reference_map(tmp_path, capsys):
    family = write_seed_family(tmp_path, D2)
    assert main(["realize", family, "tb", "--max-iter", "0"]) == 0
    assert "iterations: 0" in capsys.readouterr().out
    assert main(["realize", family, "tb" * 6, "--max-iter", "0"]) == 4
    assert "status 'max_iter'" in capsys.readouterr().err


def test_usage_errors_exit_with_code_1(tmp_path, capsys):
    family = write_seed_family(tmp_path, D2)
    for argv in (
        ["realize", family, "tb", "--bogus"],
        ["realize", family, "tb", "--tol", "1e-6"],  # the solver tolerances are constants
        ["realize", family],
        ["nosuchcommand"],
    ):
        assert main(argv) == 1, argv
        assert "usage:" in capsys.readouterr().err
    assert main(["realize", "--help"]) == 0
    assert "--max-iter" in capsys.readouterr().out


def test_realize_boundary_stop_has_no_partial_path(tmp_path, capsys, monkeypatch):
    # a boundary parameter may have a zero entry, where no family map exists
    monkeypatch.setattr(gietlab.thurston, "EPS_DEG", 0.5)  # the model's B, C, D entries are faces
    assert main(["realize", write_seed_family(tmp_path), "bbbtb"]) == 4
    err = capsys.readouterr().err
    assert "status 'boundary'" in err and "partial path" not in err
    # no update was taken, and the message names the faces the solver reached
    assert err == "error: solver stopped with status 'boundary' after 0 updates at faces A0, C1, B1\n"


def test_realize_stops_at_a_boundary_when_the_order_breaks(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gietlab.thurston, "step", breaking_step(3))
    seed = giet_from_branches(
        D2, [0.5, 0.5], [0.5, 0.5],
        lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else -1.5),
    )
    seed_path = tmp_path / "fib-seed.json"
    fileio.dump(fileio.giet_document(seed), str(seed_path))
    model = ExactIET.from_lengths(D2, [Fraction(2584, 6765), Fraction(4181, 6765)])
    kinds = model.rauzy_path(13).path.kinds
    assert main(["realize", str(seed_path), kinds]) == 4
    err = capsys.readouterr().err
    assert "status 'boundary'" in err
    partial = re.search(r"partial path at the final parameter: '([tb]*)'", err).group(1)
    assert len(partial) == 13 and partial != kinds


def test_semiconj_command(tmp_path, capsys):
    iet = write_model_iet(tmp_path)
    giet_doc = fileio.giet_document(giet_from_iet(model_iet()))
    giet_path = tmp_path / "g.json"
    fileio.dump(giet_doc, str(giet_path))
    argv = ["semiconj", str(giet_path), iet, "-r", "5", "--spot-check", "16", "--seed", "0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "residual:" in out and "spot-check" in out
    # the spot check is the defect |h(f(x)) - T(h(x))| at 16 seeded points,
    # T through its float copy as in ``residual``
    f, T = giet_from_iet(model_iet()), model_iet()
    h = build_semiconjugacy(f, T, 5)
    rng = random.Random(0)
    xs = [rng.random() for _ in range(16)]
    worst = max(abs(h.eval(float(f.eval(x))) - f.eval(h.eval(x))) for x in xs)
    assert out.splitlines()[-1].endswith(f"seed 0): {worst:.6e}")


def write_semiconj_inputs(tmp_path):
    giet_path = tmp_path / "g.json"
    fileio.dump(fileio.giet_document(giet_from_iet(model_iet())), str(giet_path))
    return [str(giet_path), write_model_iet(tmp_path)]


@pytest.mark.parametrize("option", ["--samples", "--spot-check"])
def test_semiconj_negative_count_is_an_error(tmp_path, capsys, option):
    """A count below 0 or above the cap of ``--max-iter`` is refused before
    any list of that length is built."""
    inputs = write_semiconj_inputs(tmp_path)
    for value in ("-3", str(10**6 + 1)):
        assert main(["semiconj", *inputs, "-r", "5", option, value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and option in err and value in err


def test_semiconj_with_no_uniform_samples(tmp_path, capsys):
    argv = ["semiconj", *write_semiconj_inputs(tmp_path), "-r", "5", "--samples", "0"]
    assert main(argv) == 0
    f, T = giet_from_iet(model_iet()), model_iet()
    h = build_semiconjugacy(f, T, 5)
    # only the midpoints of h's cells are sampled
    assert capsys.readouterr().out.splitlines()[-1] == f"residual: {residual(h, f, T, 0):.6e}"


def test_render_giet_and_roundtrip(tmp_path):
    family = write_seed_family(tmp_path)
    out_svg = tmp_path / "giet.svg"
    assert main(["render", family, "-o", str(out_svg)]) == 0
    text = out_svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 4  # one monotone arc per letter
    # documents written by the library parse back to the same object
    g = fileio.load_map(family)
    again = fileio.giet_from_document(json.loads(json.dumps(fileio.giet_document(g))))
    assert again == g


def test_render_of_an_iet_draws_its_float_copy(tmp_path):
    out_svg = tmp_path / "iet.svg"
    assert main(["render", write_model_iet(tmp_path), "-o", str(out_svg)]) == 0
    g = giet_from_iet(model_iet())
    assert out_svg.read_text() == svg.render_giet(g)
    # the same figure as the copy's document, read back, gives
    again = fileio.giet_from_document(fileio.giet_document(g))
    assert svg.render_giet(again) == svg.render_giet(g)
    # at a total of 4.3e9 the float copy's rounded ends are more than
    # EPS_BRANCH apart; the map still draws, and its document loads back
    # because ``check_intervals`` scales its tolerance by the length
    big = {"kind": "iet", "datum": "A B / B A", "lengths": {"A": "10000000001/3", "B": 1e9}}
    path = tmp_path / "big.json"
    fileio.dump(big, str(path))
    assert main(["render", str(path), "-o", str(out_svg)]) == 0
    assert out_svg.read_text().count("<polyline") == 2


def test_bounded_chain_records_round_trip():
    pl = PiecewiseLinear(((0.2, 0.0), (0.3, 0.4), (0.6, 1.0)))
    chain = Chain((Affine((0.0, 0.4), (0.2, 0.6)), pl), (0.1, 0.3), (0.125, 0.75))
    rec = json.loads(json.dumps(fileio.branch_record(chain)))
    assert rec["domain"] == [0.1, 0.3] and rec["range"] == [0.125, 0.75]
    assert fileio.branch_from_record(rec) == chain


BOUNDS = {"domain": [0.0, 0.5], "range": [0.5, 1.0]}


@pytest.mark.parametrize("record, message", [
    ({"kind": "chain", "parts": [], **BOUNDS}, "a chain needs at least one part"),
    ({"kind": "chain", "parts": 5}, "field 'parts' must be a list of branch records, got 5"),
    ({"kind": "chain", "parts": [1]}, "a branch record must be a JSON object, got int"),
    ({"kind": "chain", "parts": ["pl"], **BOUNDS}, "a branch record must be a JSON object, got str"),
    ({"kind": "chain", "parts": [[]], **BOUNDS}, "a branch record must be a JSON object, got list"),
    (BOUNDS, "is missing the key 'kind'"),
    ({"kind": "chain", "parts": [{"kind": "translation", "domain": [0.0, 0.5]}]},
     "is missing the key 'range'"),
    # only the kinds ``branch_record`` writes load: no window or composite
    # record, a chain carries its bounds and a smooth branch its k
    ({"kind": "window", "base": {"kind": "affine", **BOUNDS}, **BOUNDS},
     "unknown branch kind 'window'"),
    ({"kind": "composite", "inner": {}, "core": {}, "outer": {}},
     "unknown branch kind 'composite'"),
    ({"kind": "chain", "parts": [{"kind": "affine", **BOUNDS}]}, "is missing the key 'domain'"),
    ({"kind": "smooth", **BOUNDS}, "is missing the key 'k'"),
    # nor a chain in a chain, so no record nests deeper than that
    ({"kind": "chain", "parts": [{"kind": "chain", "parts": [{"kind": "affine", **BOUNDS}], **BOUNDS}],
      **BOUNDS}, "unknown branch kind 'chain' in a chain"),
])
def test_nested_branch_records_are_checked(tmp_path, capsys, record, message):
    doc = seed_document()
    doc["branches"]["A"] = record
    code, err = run_partition_on(tmp_path, capsys, json.dumps(doc))
    assert code == 1
    assert err.startswith("error:") and "branch 'A'" in err and message in err, err


def test_library_holds_no_assert():
    # ``python -O`` strips ``assert``: every check in the library is a raise
    package = Path(gietlab.__file__).parent
    found = [
        f"{source.name}:{node.lineno}"
        for source in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(source.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def names_read(tree, attributes=False):
    """Every name a module loads, in its code or in its doctests; with
    ``attributes``, every attribute name it loads instead.  A name that is
    only assigned, such as a loop variable, is not read."""
    kind, field = (ast.Attribute, "attr") if attributes else (ast.Name, "id")
    names = {getattr(node, field) for node in ast.walk(tree)
             if isinstance(node, kind) and isinstance(node.ctx, ast.Load)}
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, documented) and ast.get_docstring(node):
            for example in doctest.DocTestParser().get_examples(ast.get_docstring(node)):
                names |= names_read(ast.parse(example.source), attributes)
    return names


def test_library_has_no_unused_import():
    package = Path(gietlab.__file__).parent
    unused = []
    for source in sorted(package.glob("*.py")):
        if source.name == "__init__.py":  # it imports to re-export
            continue
        tree = ast.parse(source.read_text())
        read = names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{source.name}:{node.lineno} {name}")
    assert unused == []


# the definitions no code of the program reads, each kept for its reason
KEPT_UNREAD = {}


def definitions(tree, module):
    """``(dotted name, name, is a method)`` of each module-level function and
    class of a module, and of each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def test_library_defines_only_what_the_program_reads():
    """Every function and class of the library is loaded as a name or an
    attribute, and every public method as an attribute, by some code or
    doctest of the library or of the benchmark harness (``perfbench/``),
    but those in ``KEPT_UNREAD``.  A definition that only the tests read is
    a test helper."""
    package = Path(gietlab.__file__).parent
    harness = Path(__file__).resolve().parents[1] / "perfbench"
    trees = {source: ast.parse(source.read_text()) for source in sorted(package.glob("*.py"))}
    names, attributes = set(), set()
    for tree in [*trees.values(), *(ast.parse(p.read_text()) for p in harness.rglob("*.py"))]:
        names |= names_read(tree)
        attributes |= names_read(tree, attributes=True)
    unread = [
        dotted
        for source, tree in trees.items()
        for dotted, name, method in definitions(tree, source.stem)
        if name not in attributes and (method or name not in names)
    ]
    assert sorted(unread) == sorted(KEPT_UNREAD)


def test_every_error_class_is_caught_somewhere():
    """A failure gets a class of its own only where some code of the library
    branches on it: every class of ``errors.py`` is named in an ``except``
    clause, and any other failure is raised as ``GietlabError`` itself."""
    package = Path(gietlab.__file__).parent
    defined = {node.name for node in ast.parse((package / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    caught = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
    assert sorted(defined - caught) == []


def test_missing_document_keys_are_errors(tmp_path, capsys):
    iet = tmp_path / "iet.json"
    iet.write_text('{"kind": "iet", "datum": "A B / B A"}')
    assert main(["induct", str(iet), "-r", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "iet" in err and "'lengths'" in err
    giet = tmp_path / "giet.json"
    giet.write_text('{"kind": "giet", "datum": "A B / B A", "top": {"A": 0, "B": 0.5}}')
    assert main(["partition", str(giet), "-r", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "giet" in err and "'bottom'" in err


def run_partition_on(tmp_path, capsys, text):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    code = main(["partition", str(doc), "-r", "2"])
    return code, capsys.readouterr().err


def test_document_that_is_a_list_is_an_error(tmp_path, capsys):
    code, err = run_partition_on(tmp_path, capsys, "[1, 2]")
    assert code == 1
    assert err.startswith("error:") and "'iet' or 'giet' document" in err and "list" in err


@pytest.mark.parametrize("content", [b"{", b"\x89PNG\r\n\x1a\n\xff", b"[" * 10**5 + b"]" * 10**5],
                         ids=["truncated", "binary", "nested too deep"])
def test_file_that_is_not_json_is_an_error_naming_it(tmp_path, capsys, content):
    # ``json.load`` raises a ``ValueError`` or a ``RecursionError``, which
    # ``main`` does not catch: the reader makes it a typed error naming the file
    doc = tmp_path / "doc.json"
    doc.write_bytes(content)
    assert main(["partition", str(doc), "-r", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith(f"error: cannot read {doc} as JSON: ")


def test_iet_lengths_that_are_a_list_are_an_error(tmp_path, capsys):
    code, err = run_partition_on(
        tmp_path, capsys, '{"kind": "iet", "datum": "A B / B A", "lengths": [1, 2]}'
    )
    assert code == 1
    assert err.startswith("error:") and "iet document" in err and "'lengths'" in err


def test_iet_length_with_zero_denominator_is_an_error(tmp_path, capsys):
    code, err = run_partition_on(
        tmp_path, capsys, '{"kind": "iet", "datum": "A B / B A", "lengths": {"A": "1/0", "B": 1}}'
    )
    assert code == 1
    assert err.startswith("error:") and "iet document" in err and "'lengths'" in err
    assert "'A'" in err


@pytest.mark.parametrize("length, shown", [
    ("1e400", "got inf"),  # json reads an overflowing number as infinity
    ("[1]", "got [1]"),
    ("true", "got True"),  # a boolean is not the number 1
])
def test_iet_length_that_is_not_a_finite_number_is_an_error(tmp_path, capsys, length, shown):
    code, err = run_partition_on(
        tmp_path, capsys, f'{{"kind": "iet", "datum": "A B / B A", "lengths": {{"A": {length}, "B": 1}}}}'
    )
    assert code == 1
    assert err.startswith("error:") and "iet document field 'lengths': letter 'A'" in err
    assert "must be a finite number or a 'p/q' string" in err and shown in err


def test_iet_length_of_a_letter_outside_the_datum_is_an_error(tmp_path, capsys):
    code, err = run_partition_on(
        tmp_path, capsys, '{"kind": "iet", "datum": "A B / B A", "lengths": {"A": 1, "B": 2, "C": 3}}'
    )
    assert code == 1
    assert err.startswith("error:")
    assert "iet document field 'lengths': letter 'C' is not in the datum" in err


@pytest.mark.parametrize("length", ["0", "-1", '"-1/2"'])
def test_iet_length_that_is_not_positive_is_an_error(tmp_path, capsys, length):
    code, err = run_partition_on(
        tmp_path, capsys, f'{{"kind": "iet", "datum": "A B / B A", "lengths": {{"A": 1, "B": {length}}}}}'
    )
    assert code == 1
    assert err.startswith("error:")
    assert "iet document field 'lengths': letter 'B' must be positive" in err


@pytest.mark.parametrize("k", ["1e400", "-1e400", "NaN"])
def test_giet_number_that_is_not_finite_is_an_error(tmp_path, capsys, k):
    # json reads 1e400 as infinity; the branch would evaluate to NaN and the
    # partition document would hold NaN, which is not JSON
    doc = seed_document()
    doc["branches"]["A"]["k"] = "K"
    source = tmp_path / "doc.json"
    source.write_text(json.dumps(doc).replace('"K"', k))
    out = tmp_path / "partition.json"
    assert main(["partition", str(source), "-r", "2", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "branch 'A'" in err
    assert "field 'k' must be a finite number" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["partition", "render", "realize"])
def test_smooth_k_whose_exponential_overflows_is_an_error(tmp_path, capsys, command):
    # math.expm1(k) overflows above k = log(max float) = 709.78...
    argvs = {"partition": ["-r", "2"], "render": ["-o", str(tmp_path / "f.svg")],
             "realize": ["tbt"]}
    for k, rejected in ((710, True), (1000, True), (709, False), (-1000, False)):
        doc = seed_document()
        doc["branches"]["A"]["k"] = k
        path = write_doc(tmp_path, doc)
        rc = main([command, path, *argvs[command]])
        out, err = capsys.readouterr()
        if not rejected:  # it loads; what the command makes of it is its own matter
            assert fileio.giet_from_document(doc).branches["A"].k == k
            assert rc == 0 or err.startswith("error:"), err
            continue
        assert rc == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "branch 'A': k must be at most about 709.78" in err and str(k) in err


def test_non_admissible_datum_is_an_error_not_a_tie(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text('{"kind": "iet", "datum": "A B / A B", "lengths": {"A": 1, "B": 2}}')
    for command in ("partition", "induct"):
        assert main([command, str(doc), "-r", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "A B / A B is not admissible" in captured.err
        assert "tie" not in captured.out + captured.err


def test_pl_branch_with_decreasing_nodes_is_an_error(tmp_path, capsys):
    doc = {
        "kind": "giet",
        "datum": "A B / B A",
        "top": {"A": 0.0, "B": 0.5},
        "bottom": {"B": 0.0, "A": 0.5},
        "branches": {
            "A": {"kind": "pl", "nodes": [[0.0, 0.5], [0.3, 0.6], [0.2, 0.7], [0.5, 1.0]]},
            "B": {"kind": "translation", "domain": [0.5, 1.0], "range": [0.0, 0.5]},
        },
    }
    code, err = run_partition_on(tmp_path, capsys, json.dumps(doc))
    assert code == 1
    assert err.startswith("error:") and "branch 'A'" in err and "must increase" in err


@pytest.mark.parametrize("datum, shown", [("null", "None"), ("5", "5"), ('{"A": "B"}', "{'A': 'B'}")],
                         ids=["null", "number", "object"])
def test_datum_that_is_not_a_string_is_an_error(tmp_path, capsys, datum, shown):
    iet = {"kind": "iet", "datum": "D", "lengths": {"A": 1, "B": 2}}
    for kind, doc in (("iet", iet), ("giet", {**seed_document(), "datum": "D"})):
        code, err = run_partition_on(tmp_path, capsys, json.dumps(doc).replace('"D"', datum))
        assert code == 1
        assert err == f"error: {kind} document field 'datum' must be a string, got {shown}\n"


def test_pl_branch_whose_nodes_are_not_a_list_is_an_error(tmp_path, capsys):
    doc = seed_document()
    doc["branches"]["A"] = {"kind": "pl", "nodes": True}
    code, err = run_partition_on(tmp_path, capsys, json.dumps(doc))
    assert code == 1
    assert err == ("error: giet document branch 'A': field 'nodes' must be a list of "
                   "[x, y] pairs, got True\n")


def translation_document(length):
    """``A B / B A`` on ``[0, length)`` with two translation branches."""
    half = length / 2
    return {"kind": "giet", "datum": "A B / B A", "length": length,
            "top": {"A": 0, "B": half}, "bottom": {"A": half, "B": 0},
            "branches": {"A": {"kind": "translation", "domain": [0, half], "range": [half, length]},
                         "B": {"kind": "translation", "domain": [half, length], "range": [0, half]}}}


@pytest.mark.parametrize("doc, command, named", [
    ({"kind": "iet", "datum": "A B / B A", "lengths": {"A": "1e400", "B": 1}},
     ["partition", "-r", "5", "-o", "partition.json", "--svg"],
     "total length 1e400 is too large for a float"),
    ({"kind": "iet", "datum": "A B / B A", "lengths": {"A": 1e308, "B": 1e308}},
     ["render", "-o"], "total length 2e308 is too large for a float"),
    ({"kind": "iet", "datum": "A B / B A", "lengths": {"A": 1e306, "B": 1e306}},
     ["render", "-o"], "total length 2e+306 is too long to draw"),
    ({"kind": "partition", "total": 1e306, "atoms": [{"left": 0, "right": 1e306, "label": "A0"}]},
     ["render", "-o"], "total length 1e+306 is too long to draw"),
    (translation_document(1e306), ["render", "-o"], "total length 1e+306 is too long to draw"),
], ids=["iet-1e400-partition", "iet-1e308", "iet-1e306", "partition-1e306", "giet-1e306"])
def test_a_map_too_large_for_a_float_figure_is_an_error(tmp_path, monkeypatch, capsys, doc,
                                                        command, named):
    monkeypatch.chdir(tmp_path)
    name, *options = command
    code = main([name, write_doc(tmp_path, doc), *options, "figure.svg"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and named in err and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == ["doc.json"]  # no document and no figure


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def seed_document(length=1.0):
    """The 2-letter smooth seed family, scaled to act on ``[0, length)``."""
    seed = giet_from_branches(D2, [0.5, 0.5], [0.5, 0.5], lambda a, d, r: SmoothParam(d, r, k=1.0))
    doc = fileio.giet_document(seed)
    doc["length"] = length
    for key in ("top", "bottom"):
        doc[key] = {a: v * length for a, v in doc[key].items()}
    for rec in doc["branches"].values():
        rec["domain"] = [v * length for v in rec["domain"]]
        rec["range"] = [v * length for v in rec["range"]]
    return doc


def test_giet_document_with_length_two_is_an_error(tmp_path, capsys):
    # the intervals still tile [0, 1): B's branch ends at 1, its interval at 2
    doc = seed_document()
    doc["length"] = 2.0
    assert main(["realize", write_doc(tmp_path, doc), "tbt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "branch 'B' domain [0.5, 1.0) ends at 1.0, not at the total length 2.0" in err, err


def test_realize_on_a_map_of_length_two_is_an_error(tmp_path, capsys):
    # a consistent document on [0, 2) loads, but its family cannot be built
    assert main(["realize", write_doc(tmp_path, seed_document(2.0)), "tbt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unit-interval" in err and "length 2.0" in err


def test_giet_breakpoint_off_its_branch_is_an_error(tmp_path, capsys):
    doc = seed_document()
    doc["top"]["B"] = 0.7  # the branches still tile [0, 1): B's starts at 0.5
    path = write_doc(tmp_path, doc)
    message = "giet document field 'top' letter 'B' is 0.7, but branch 'B' starts at 0.5"
    for argv in (["realize", path, "tbt"], ["partition", path, "-r", "2"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and err.count("\n") == 1, err


def test_float_copy_of_an_iet_with_a_large_total_loads_back():
    T = ExactIET.from_lengths(
        D2, {"A": Fraction(10000000001, 3), "B": Fraction(10**9)}
    )
    g = giet_from_iet(T)
    assert fileio.giet_from_document(fileio.giet_document(g)) == g


def test_unit_giet_breakpoint_off_by_1e_11_is_an_error(tmp_path, capsys):
    doc = seed_document()
    doc["top"]["B"] += 1e-11  # ten times the unit tolerance
    code, err = run_partition_on(tmp_path, capsys, json.dumps(doc))
    assert code == 1
    message = "giet document field 'top' letter 'B' is 0.50000000001, but branch 'B' starts at 0.5"
    assert err.startswith("error:") and message in err and err.count("\n") == 1, err


@pytest.mark.parametrize("key", ["top", "bottom"])
def test_giet_row_within_the_tolerance_of_its_branch_loads(tmp_path, capsys, key):
    # the rows repeat the branch bounds, which the map is read from
    start = {"top": "branch 'B' starts at 0.5", "bottom": "the range of branch 'B' starts at 0.0"}
    for off, loads in ((2e-13, True), (-2e-13, True), (1e-11, False), (-1e-11, False)):
        doc = seed_document()
        doc[key]["B"] += off
        code = main(["render", write_doc(tmp_path, doc), "-o", str(tmp_path / "g.svg")])
        err = capsys.readouterr().err
        if loads:
            assert code == 0 and err == "", err
            g = fileio.giet_from_document(doc)
            assert g == fileio.giet_from_document(seed_document())
            assert g.top_breaks == {"A": 0.0, "B": 0.5} and g.bottom_breaks == {"A": 0.5, "B": 0.0}
        else:
            assert code == 1 and err.count("\n") == 1, err
            value = doc[key]["B"]
            assert f"error: giet document field {key!r} letter 'B' is {value}, but {start[key]}" in err


def test_giet_rows_that_do_not_tile_are_errors(tmp_path, capsys):
    cases = [
        ("bottom", {"B": 0.1, "A": 0.5},
         "giet document field 'bottom' letter 'B' is 0.1, but the range of branch 'B' starts at 0.0"),
        ("top", {"A": 0.0, "B": 1.5},
         "giet document field 'top' letter 'B' is 1.5, but branch 'B' starts at 0.5"),
        ("top", {"A": 0.0}, "field 'top': letter 'B' is missing"),
        ("branches", {"A": {}, "B": {}, "C": {}}, "field 'branches': letter 'C' is not in"),
        ("top", {"A": 0.0, "B": [0.5]}, "field 'top' letter 'B' must be a number"),
        ("length", True, "field 'length' must be a number, got True"),  # not the number 1
    ]
    for key, value, message in cases:
        doc = seed_document()
        doc[key] = value
        code, err = run_partition_on(tmp_path, capsys, json.dumps(doc))
        assert code == 1
        assert err.startswith("error:") and message in err and err.count("\n") == 1, err


def test_branch_bounds_that_are_not_two_numbers_are_errors(tmp_path, capsys):
    for bounds, message in (
        (["x", 0.5], "field 'domain' must be a number, got 'x'"),
        ([0.0], "field 'domain' must be a list of two numbers, got [0.0]"),
    ):
        doc = seed_document()
        doc["branches"]["A"]["domain"] = bounds
        code, err = run_partition_on(tmp_path, capsys, json.dumps(doc))
        assert code == 1
        assert err.startswith("error:") and "branch 'A'" in err and message in err, err


def test_partition_labels_are_escaped_in_svg():
    doc = {"kind": "partition", "order": 1, "total": 1.0, "atoms": [
        {"left": 0.0, "right": 0.5, "letter": "A", "index": 0, "label": "<A&0>"},
        {"left": 0.5, "right": 1.0, "letter": "B", "index": 0, "label": "B0"},
    ]}
    text = svg.render_partition(*fileio.partition_from_document(doc))
    assert ">&lt;A&amp;0&gt;</text>" in text
    assert "<A&0>" not in text


def partition_document(p, total, labels=None):
    """The partition document as a dict, built as the library built it before
    it wrote the JSON text straight from the atoms: the reference for
    the joined ``fileio.partition_pieces``."""
    num = float if isinstance(total, float) else fileio._num_out
    names = labels or [f"{atom.letter}{atom.index}" for atom in p.atoms]
    atoms = [
        {"left": num(lo), "right": num(hi), "letter": letter, "index": index, "label": name}
        for (lo, hi, letter, index), name in zip(p.atoms, names)
    ]
    return {"kind": "partition", "order": p.order, "total": fileio._num_out(total), "atoms": atoms}


def class_labels(p):
    """The reference-class names ``partition`` gives the atoms of ``p``, or
    None when its path does not end at a cyclic datum."""
    if not sigma_and_cyclicity(p.path.target)[1]:
        return None
    ref = build_reference(p.path)
    return [ref.class_of_atom(atom.letter, atom.index).name for atom in p.atoms]


def smooth_giet(datum, raw_lengths, ks):
    """The smooth GIET with lengths proportional to ``raw_lengths`` on both rows."""
    lengths = [x / sum(raw_lengths) for x in raw_lengths]
    return giet_from_branches(
        datum, lengths, lengths, lambda a, d, r: SmoothParam(d, r, k=ks.get(a, 0.0))
    )


def partition_maps():
    """The conjugacy maps f2 and f4, f2's model m2 and a map whose letters
    JSON escapes, each with an order whose path ends at a cyclic datum."""
    golden = (math.sqrt(5) - 1) / 2
    f2 = smooth_giet(D2, [1 - golden, golden], {"A": 2.0, "B": -1.5})
    f4 = smooth_giet(D4, [math.sqrt(p) for p in (2, 3, 5, 7)], {"A": 1.0, "C": -0.7})
    m2 = build_reference(f2.rauzy_path(21).path).base_iet
    odd = unit_iet(parse_datum('é " \\', '\\ " é'), [2584, 4181, 3235])
    return {"f4@40": (f4, 40), "f2@21": (f2, 21), "m2@21": (m2, 21), "escaped letters": (odd, 13)}


def test_partition_pieces_join_to_the_sorted_json_dump_of_the_document(tmp_path, capsys):
    cases = {**partition_maps(), "order 0": (model_iet(), 0)}
    f4 = cases["f4@40"][0]
    texts = {}
    for name, (m, r) in cases.items():
        p = dynamical_partition(m, r)
        labels = class_labels(p)
        names = [f"{atom.letter}{atom.index}" for atom in p.atoms]
        for given in (labels, None):
            text = "".join(fileio.partition_pieces(p, m.total, given or names))
            assert text == json.dumps(partition_document(p, m.total, given), sort_keys=True), name
        # the command writes the text with the class names
        texts[name] = text = "".join(fileio.partition_pieces(p, m.total, labels or names))
        path = tmp_path / "map.json"
        doc = fileio.iet_document(m) if isinstance(m, ExactIET) else fileio.giet_document(m)
        fileio.dump(doc, str(path))
        assert main(["partition", str(path), "-r", str(r)]) == 0
        assert capsys.readouterr().out == text + "\n", name
    # the cases cover class names, exact endpoints and escaped letters and labels
    for name in ("f2@21", "escaped letters"):
        atoms = json.loads(texts[name])["atoms"]
        assert any(a["label"] != f"{a['letter']}{a['index']}" for a in atoms), name
    assert '"left": "0/1"' in texts["m2@21"]
    assert '"letter": "\\u00e9"' in texts["escaped letters"]
    assert '"label": "\\u00e90"' in texts["escaped letters"]
    assert '"letter": "\\""' in texts["escaped letters"]
    assert '"letter": "\\\\"' in texts["escaped letters"]
    # equal neighbouring ends that print apart: 0.0, then -0.0
    atoms = (Atom(-0.5, 0.0, "A", 0), Atom(-0.0, 0.5, "B", 0))
    p = DynamicalPartition(0, atoms, dynamical_partition(f4, 0).path)
    text = "".join(fileio.partition_pieces(p, 1.0, ["x", "y"]))
    assert text == json.dumps(partition_document(p, 1.0, ["x", "y"]), sort_keys=True)
    assert '"left": -0.0' in text


def fraction_partition_outputs(T, r):
    """The partition text and figure of ``T`` made from its ``Fraction``
    partition, as ``partition`` made them before it read an exact map on
    its integer grid: each end written as its ``"p/q"`` and drawn at its
    ``float``."""
    p = dynamical_partition(T, r)
    labels = class_labels(p) or [f"{atom.letter}{atom.index}" for atom in p.atoms]
    text = "".join(fileio.partition_pieces(p, T.total, labels))
    ends = [(float(lo), float(hi), label) for (lo, hi, _, _), label in zip(p.atoms, labels)]
    return text, svg.render_partition(float(T.total), ends)


def test_exact_partition_on_the_grid_gives_the_bytes_of_the_fraction_partition(tmp_path, capsys):
    golden = (math.sqrt(5) - 1) / 2
    f2 = smooth_giet(D2, [1 - golden, golden], {"A": 2.0, "B": -1.5})
    m2 = build_reference(f2.rauzy_path(21).path).base_iet
    ints = ExactIET.from_lengths(D4, [1000003, 1414213, 1732051, 2236068])
    fractions = ExactIET.from_lengths(D4, ["6/11", "2/7", "1/13", "2/3"])
    assert ints.on_integer_grid()[1] == 1 and ints.total != 1
    assert fractions.on_integer_grid()[1] == 3003 and fractions.total != 1
    cases = {"m2@21": (m2, 21), "int lengths, class names": (ints, 11),
             "int lengths, raw names": (ints, 12), "fractions": (fractions, 12)}
    for name, (T, r) in cases.items():
        text, figure = fraction_partition_outputs(T, r)
        doc, out, fig = (tmp_path / n for n in ("m.json", "p.json", "p.svg"))
        fileio.dump(fileio.iet_document(T), str(doc))
        assert main(["partition", str(doc), "-r", str(r), "-o", str(out), "--svg", str(fig)]) == 0
        assert out.read_text() == text + "\n", name
        assert fig.read_text() == figure, name
        assert main(["partition", str(doc), "-r", str(r)]) == 0
        assert capsys.readouterr().out == text + "\n", name
        assert '"left": "0/1"' in text
        if T is ints:
            assert '"right": "1000003/1"' in text


def test_one_parser_per_process(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
    # the seed is 0 unless --seed sets it; the environment plays no part
    argv = ["semiconj", *write_semiconj_inputs(tmp_path), "-r", "5", "--spot-check", "4"]
    for value, extra, shown in ((None, [], 0), ("abc", [], 0), ("4", ["--seed", "7"], 7)):
        if value is not None:
            monkeypatch.setenv("GIETLAB_SEED", value)
        assert main(argv + extra) == 0
        assert f"random points, seed {shown}):" in capsys.readouterr().out.splitlines()[-1]
    # a command between two equal ones leaves nothing behind
    iet, family = write_model_iet(tmp_path), write_seed_family(tmp_path)
    outputs = []
    for k in range(2):
        out, figure = tmp_path / f"p{k}.json", tmp_path / f"p{k}.svg"
        assert main(["partition", iet, "-r", "5", "-o", str(out), "--svg", str(figure)]) == 0
        outputs.append((out.read_bytes(), figure.read_bytes()))
        if not k:
            assert main(["realize", family, "bbbtb"]) == 0
    assert outputs[0] == outputs[1]


def f4_partition_document(order):
    """The partition document of the 4-letter smooth GIET with lengths
    proportional to sqrt(2), sqrt(3), sqrt(5), sqrt(7)."""
    raw = [math.sqrt(p) for p in (2, 3, 5, 7)]
    f = smooth_giet(D4, raw, {"A": 1.0, "C": -0.7})
    return partition_document(dynamical_partition(f, order), f.total)


def uneven_partition_document(runs, seed):
    """Runs of 1 to 4 wide atoms between runs of 5 to 60 narrow ones, whose
    widths spread over three decades; the labels have 2 or 3 characters, so
    some fit their atom and some do not."""
    rng = random.Random(seed)
    widths = []
    for _ in range(runs):
        widths += [rng.uniform(0.5, 2.0) for _ in range(rng.randint(1, 4))]
        widths += [10 ** rng.uniform(-5, -2) for _ in range(rng.randint(5, 60))]
    total = sum(widths)
    ends = [0.0]
    for w in widths:
        ends.append(ends[-1] + w / total)
    ends[-1] = 1.0
    return {"kind": "partition", "order": 1, "total": 1.0, "atoms": [
        {"left": lo, "right": hi, "letter": "A", "index": k,
         "label": rng.choice("ABCD") + str(rng.randrange(12))}
        for k, (lo, hi) in enumerate(zip(ends, ends[1:]))
    ]}


def drawn_partition(text):
    """Boundaries, band counts and texts ``(x, label)`` of a partition SVG."""
    lines = [float(x) for x in re.findall(r'<line x1="([^"]+)"', text)]
    bands = [int(k) for k in re.findall(r"<title>(\d+) atoms</title>", text)]
    texts = [(float(x), html.unescape(label))
             for x, label in re.findall(r'<text x="([^"]+)"[^>]*>([^<]*)</text>', text)]
    return lines, bands, texts


@pytest.mark.parametrize("case", ["f4@60", "equal", "uneven"])
def test_dense_partition_svg_draws_only_what_it_resolves(case):
    if case == "f4@60":
        doc = f4_partition_document(60)
    elif case == "equal":
        doc = {"kind": "partition", "order": 1, "total": 1.0, "atoms": [
            {"left": k / 10_000, "right": (k + 1) / 10_000, "letter": "A", "index": k,
             "label": f"A{k}"} for k in range(10_000)
        ]}
    else:
        doc = uneven_partition_document(12, 5)
    total, atoms = fileio.partition_from_document(doc)
    text = svg.render_partition(total, atoms)
    lines, bands, texts = drawn_partition(text)
    # every atom is in one cell: a band counts its atoms, any other cell holds one
    assert sum(bands) + len(lines) - len(bands) == len(doc["atoms"])
    # boundaries are printed to 0.01; only an atom at least MIN_GAP wide may
    # start closer than MIN_GAP to the boundary before it
    wide = {f"{svg.MARGIN + lo * svg.SCALE:.2f}" for lo, hi, _ in atoms
            if (hi - lo) * svg.SCALE >= svg.MIN_GAP}
    assert all(b - a >= svg.MIN_GAP - 0.01 or f"{b:.2f}" in wide
               for a, b in zip(lines, lines[1:]))
    # each text sits inside its cell, so no two texts overlap
    cell_ends = lines + [svg.MARGIN + svg.SCALE * doc["total"]]
    half = [len(label) * svg.CHAR_WIDTH * svg.FONT_SIZE / 2 for _, label in texts]
    for (x, _), h in zip(texts, half):
        i = bisect_right(lines, x) - 1
        assert cell_ends[i] - 0.01 <= x - h and x + h <= cell_ends[i + 1] + 0.01
    for (x0, _), h0, (x1, _), h1 in zip(texts, half, texts[1:], half[1:]):
        assert x0 + h0 <= x1 - h1 + 0.01
    if case == "f4@60":
        assert len(doc["atoms"]) == 53_247 and len(text.encode()) <= 500_000
    if case == "uneven":  # the wide atoms' labels; a band shows its count in its title only
        assert len(texts) >= 20 and not any(label.isdigit() for _, label in texts)


def test_partition_svg_gives_each_wide_atom_its_own_cell():
    doc = uneven_partition_document(12, 5)
    total, atoms = fileio.partition_from_document(doc)
    text = svg.render_partition(total, atoms)
    lines, _, texts = drawn_partition(text)
    bands = {float(x) for x in re.findall(r'<rect x="([^"]+)" y="40"[^>]*fill="#ccc"', text)}
    drawn = {f"{x:.2f}": label for x, label in texts}
    cell_ends = lines + [svg.MARGIN + svg.SCALE * total]
    wide = [(lo, hi, label) for lo, hi, label in atoms if (hi - lo) * svg.SCALE >= svg.MIN_GAP]
    assert len(atoms) == 457 and len(wide) == 23
    shown = 0
    for lo, hi, label in wide:
        x, right = svg.MARGIN + lo * svg.SCALE, svg.MARGIN + hi * svg.SCALE
        i = lines.index(float(f"{x:.2f}"))  # a boundary at its left end
        assert abs(cell_ends[i + 1] - right) <= 0.01  # and the next one at its right end
        assert lines[i] not in bands
        if len(label) * svg.CHAR_WIDTH * svg.FONT_SIZE <= right - x:
            assert drawn[f"{(x + right) / 2:.2f}"] == label
            shown += 1
    assert shown >= 20


def test_iet_document_roundtrip(tmp_path):
    T = model_iet()
    doc = json.loads(json.dumps(fileio.iet_document(T)))
    assert fileio.iet_from_document(doc) == T


def test_eval_frac_divides_huge_fractions_exactly():
    """A partition endpoint ``"p/q"`` is divided as two integers."""
    def endpoint(value):
        return fileio._endpoint(value, "x")

    assert endpoint(f"{3 * 10**399}/{10**400}") == 0.3
    assert endpoint(f"{10**400 + 1}/{3 * 10**400}") == 1 / 3
    assert endpoint("0.25") == 0.25 and endpoint(2) == 2.0


@pytest.mark.parametrize("value", ["1/0", f"{10**400}/1", "1/2/3", "x/2", None],
                         ids=["zero-denominator", "overflow", "two-slashes", "not-an-int", "none"])
def test_eval_frac_of_a_bad_number_is_an_error(value):
    with pytest.raises(GietlabError, match="^x must be a (finite )?number"):
        fileio._endpoint(value, "x")


def partition_with(total=1.0, **fields):
    """The text of a two-atom partition document whose second atom has
    ``fields``, each given as JSON text."""
    second = {"left": "0.5", "right": "1.0", "label": '"B0"', **fields}
    atom = ", ".join(f'"{k}": {v}' for k, v in second.items())
    return (f'{{"kind": "partition", "order": 1, "total": {total}, "atoms": ['
            f'{{"left": 0.0, "right": 0.5, "label": "A0"}}, {{{atom}}}]}}')


@pytest.mark.parametrize("doc, message", [
    ({"kind": "partition", "total": "1/0", "atoms": []},
     "partition document field 'total' must be a finite number or a 'p/q' string, got '1/0'"),
    ({"kind": "partition"}, "partition document is missing the key 'total'"),
    ({"kind": "partition", "total": 1.0, "atoms": [{"left": 0.0, "right": 1.0}]},
     "partition document is missing the key 'label'"),
    ({"kind": "partition", "total": 1, "atoms": 5},
     "partition document field 'atoms' must be a list, got int"),
    ({"kind": "partition", "total": 1, "atoms": [1]},
     "partition document field 'atoms': entry 0 must be a JSON object, got int"),
    pytest.param(partition_with(left='"nan"'),
                 "field 'atoms': entry 1 field 'left' must be a finite number, got 'nan'", id="nan"),
    pytest.param(partition_with(left='"inf"'),
                 "field 'atoms': entry 1 field 'left' must be a finite number, got 'inf'", id="inf"),
    pytest.param(partition_with(right="1e400"),  # json reads it as infinity
                 "field 'atoms': entry 1 field 'right' must be a finite number, got inf",
                 id="overflow"),
    pytest.param(partition_with(left="true"),
                 "field 'atoms': entry 1 field 'left' must be a number, got True", id="bool"),
    pytest.param(partition_with(total='"1/2/3"'),
                 "field 'total' must be a finite number or a 'p/q' string, got '1/2/3'",
                 id="two-slashes"),
    pytest.param(partition_with(label='["x"]'),
                 "field 'atoms': entry 1 field 'label' must be a string, got ['x']",
                 id="label-list"),
    pytest.param({"kind": "partition", "total": -1,
                  "atoms": [{"left": 0.5, "right": 0.2, "label": "A0"}]},
                 "partition document field 'atoms': entry 0 [0.5, 0.2) does not start at 0",
                 id="negative-total"),
    pytest.param(partition_with(left="0.6"),
                 "field 'atoms': entry 1 [0.6, 1.0) does not start where entry 0 ends, 0.5",
                 id="gap"),
    pytest.param(partition_with(left="0.4"),
                 "field 'atoms': entry 1 [0.4, 1.0) does not start where entry 0 ends, 0.5",
                 id="overlap"),
    pytest.param(partition_with(right="0.5"),
                 "field 'atoms': entry 1 [0.5, 0.5) is empty", id="empty"),
    pytest.param(partition_with(total=2),
                 "field 'atoms': entry 1 [0.5, 1.0) ends at 1.0, not at the total length 2",
                 id="short"),
])
def test_render_of_a_bad_partition_is_an_error(tmp_path, capsys, doc, message):
    """One ``error:`` line, exit code 1 and no SVG; ``doc`` is a document or its text."""
    path, out = tmp_path / "doc.json", tmp_path / "p.svg"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["render", str(path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1, err
    assert not out.exists()


def test_render_reads_a_partition_tiled_within_its_scaled_tolerance(tmp_path, capsys):
    # the tolerance is 1e-9 times the total: a gap of 5e-7 is within it on
    # [0, 1000) and an error on the unit interval
    path, out = tmp_path / "doc.json", tmp_path / "p.svg"
    scaled = partition_with(total=1000.0, left="500.0000005", right="1000.0")
    path.write_text(scaled.replace('"right": 0.5', '"right": 500.0'))
    assert main(["render", str(path), "-o", str(out)]) == 0 and out.exists()
    path.write_text(partition_with(left="0.5000005"))
    assert main(["render", str(path), "-o", str(tmp_path / "q.svg")]) == 1
    assert "does not start where entry 0 ends" in capsys.readouterr().err


def test_render_rejects_unknown_kind(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "mystery"}')
    assert main(["render", str(bad), "-o", str(tmp_path / "x.svg")]) == 1


def test_order_bound_enforced(tmp_path, capsys):
    """An order outside 0..64 is refused with one error line naming it."""
    iet = write_model_iet(tmp_path)
    for argv in (["induct", iet], ["partition", iet], ["semiconj", *write_semiconj_inputs(tmp_path)]):
        for order in ("-1", "65"):
            assert main([*argv, "-r", order]) == 1
            assert capsys.readouterr() == ("", f"error: order must be between 0 and 64, got {order}\n")


def test_dump_writes_one_line_with_sorted_keys(tmp_path, monkeypatch):
    written, pieces = [], []
    real_dump = fileio.dump

    def recording_dump(doc, path):
        assert real_dump(doc, path) is None
        # a partition comes in pieces, which dump writes as they are
        pieces.append(type(doc) is list)
        text = Path(path).read_text()[:-1]
        assert not pieces[-1] or text == "".join(doc)
        written.append((doc if isinstance(doc, dict) else json.loads(text), path, text))

    monkeypatch.setattr(fileio, "dump", recording_dump)
    iet = write_model_iet(tmp_path)
    family = write_seed_family(tmp_path)
    partition = str(tmp_path / "partition.json")
    report = str(tmp_path / "report.json")
    assert main(["partition", iet, "-r", "5", "-o", partition]) == 0
    assert main(["realize", family, "bbbtb", "-o", report]) == 0
    assert [path for _, path, _ in written] == [iet, family, partition, report]
    assert pieces == [False, False, True, False]
    for doc, path, text in written:
        assert Path(path).read_text() == text + "\n" and "\n" not in text
        # one line, keys sorted, the default separators
        assert text == json.dumps(json.loads(text), sort_keys=True)
        assert json.loads(text) == json.loads(json.dumps(doc, indent=2, sort_keys=True))
    # documents written with indentation, as earlier versions did, still load
    for doc, path, _ in written[:3]:
        indented = tmp_path / f"indented-{doc['kind']}.json"
        indented.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        if doc["kind"] == "partition":
            assert main(["render", str(indented), "-o", str(tmp_path / "indented.svg")]) == 0
        else:
            assert fileio.load_map(str(indented)) == fileio.load_map(path)


@pytest.mark.parametrize("doc", ["realize report", "partition in pieces"])
def test_dump_without_a_path_prints_the_bytes_it_writes_to_one(tmp_path, capsysbinary, doc):
    """``partition`` without ``-o`` calls the same writer with no path: its
    stdout is the file it writes, byte for byte, past the 1,024 pieces of
    one write, which f2's order-18 partition has."""
    if doc == "realize report":
        doc = {"kind": "report", "tau": {"A": 0.25, "B": 0.75}, "deltas": [[1, 1e-3]]}
    else:
        f2 = partition_maps()["f2@21"][0]
        p = dynamical_partition(f2, 18)
        doc = fileio.partition_pieces(p, f2.total, [f"{a}{i}" for _, _, a, i in p.atoms])
        assert len(doc) > 1024
    path = tmp_path / "doc.json"
    assert fileio.dump(doc, str(path)) is None
    assert fileio.dump(doc, None) is None
    assert capsysbinary.readouterr() == (path.read_bytes(), b"")


def test_partition_of_float_giet_with_class_labels(tmp_path, capsys):
    # a float translation copy of the model map gets the same figure labels
    doc = fileio.giet_document(giet_from_iet(model_iet()))
    path = tmp_path / "float.json"
    fileio.dump(doc, str(path))
    assert main(["partition", str(path), "-r", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [a["label"] for a in out["atoms"]] == FIG_LABELS
    assert all(isinstance(a["left"], float) for a in out["atoms"])


def test_one_point_cap_refuses_realize_partition_and_semiconj(tmp_path, capsys, monkeypatch):
    """``thurston.MAX_REFERENCE_POINTS`` is read when a command runs, so a
    patched cap reaches all three commands that build N points.  The model
    map is built first: ``build_reference`` reads the cap too."""
    import gietlab.thurston as thurston

    (f2, _), (m2, _) = (partition_maps()[name] for name in ("f2@21", "m2@21"))
    monkeypatch.setattr(thurston, "MAX_REFERENCE_POINTS", 1_000)
    family = write_seed_family(tmp_path, D2)
    assert main(["realize", family, "tb" * 7]) == 1
    assert capsys.readouterr() == (
        "", "error: reference configuration needs N=1597 points, beyond the cap 1000\n"
    )
    assert len(dynamical_partition(f2, 21).atoms) == 5_919
    f_path, t_path = str(tmp_path / "f.json"), str(tmp_path / "t.json")
    fileio.dump(fileio.giet_document(f2), f_path)
    fileio.dump(fileio.iet_document(m2), t_path)
    refused = ("", "error: the order-21 induction passes the cap of 1000 points: "
                   "N=1297 after 16 of 21 steps\n")
    for argv in (["partition", f_path, "-r", "21"], ["semiconj", f_path, t_path, "-r", "21"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == refused, argv


def test_smooth_branch_rounding_out_of_its_range_names_the_letter(tmp_path, capsys):
    # expm1(-1000 t) / expm1(-1000) is exactly 1.0 for t above about 0.04, so
    # A's branch onto [0.6, 1.0) sends most of its domain to 1.0
    ks = {"A": -1000.0, "B": 0.0}
    g = giet_from_branches(D2, [0.4, 0.6], [0.4, 0.6], lambda a, d, r: SmoothParam(d, r, k=ks[a]))
    with pytest.raises(GietlabError, match=r"^the branch of letter 'A' maps floor 2 of the tower "
                                           r"over \[0.0, 0.0001\) to floor 3 at 1\.0, outside "
                                           r"\[0, 1\.0\)$"):
        g.tower(0.0, 1e-4, 5)
    # the induction stops first: its third step would split B's branch at
    # the right end of its range, leaving an empty piece, which is a tie
    assert main(["partition", write_doc(tmp_path, fileio.giet_document(g)), "-r", "3"]) == 1
    assert capsys.readouterr() == ("", "error: tie after 2 of 3 steps\n")


def test_realize_no_cyclic_exit_code(tmp_path, capsys, monkeypatch):
    import gietlab.thurston as thurston

    monkeypatch.setattr(thurston, "find_cyclic", lambda cls: None)
    family = write_seed_family(tmp_path)
    assert main(["realize", family, "bbb"]) == 3


def test_partition_with_an_empty_induced_interval_is_a_tie(tmp_path, capsys):
    # the partition of order 30 is refused, not written with an empty atom
    doc = write_doc(tmp_path, fileio.giet_document(shrinking_circle_map()))
    out = tmp_path / "p.json"
    assert main(["partition", doc, "-r", "30", "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: tie after 15 of 30 steps\n")
    assert not out.exists()


def test_partition_that_does_not_tile_is_refused(tmp_path, capsys):
    # order 15 passes the tie rule, but two of its atoms are 1.1e-9 apart:
    # nothing is written; order 14 tiles and is written
    doc = write_doc(tmp_path, fileio.giet_document(shrinking_circle_map()))
    out, svg_out = tmp_path / "p.json", tmp_path / "p.svg"
    assert main(["partition", doc, "-r", "15", "-o", str(out), "--svg", str(svg_out)]) == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("error: atom B28 [") and stderr.count("\n") == 1
    assert "does not start where atom B26 ends" in stderr
    assert not out.exists() and not svg_out.exists()
    assert main(["partition", doc, "-r", "14", "-o", str(out), "--svg", str(svg_out)]) == 0
    assert out.exists() and svg_out.exists()


@pytest.mark.parametrize("order, code", [(14, 0), (15, 1)])
def test_semiconj_refuses_a_partition_that_does_not_tile(tmp_path, capsys, order, code):
    # the same order-15 partition is refused when semiconj builds it
    g = shrinking_circle_map()
    model = build_reference(g.rauzy_path(order).path).base_iet
    f_path, t_path = str(tmp_path / "f.json"), str(tmp_path / "t.json")
    fileio.dump(fileio.giet_document(g), f_path)
    fileio.dump(fileio.iet_document(model), t_path)
    argv = ["semiconj", f_path, t_path, "-r", str(order)]
    assert main(argv) == code
    stdout, stderr = capsys.readouterr()
    if code:
        assert stdout == "" and stderr.count("\n") == 1
        assert stderr.startswith("error: atom B28 [")
    else:
        assert stderr == "" and "residual: " in stdout


def test_partition_tie_is_reported_as_error(tmp_path, capsys):
    doc = fileio.iet_document(ExactIET.from_lengths(D2, ["1/2", "1/2"]))
    path = tmp_path / "tie.json"
    fileio.dump(doc, str(path))
    assert main(["partition", str(path), "-r", "2"]) == 1
    assert "tie" in capsys.readouterr().err


def test_float_partition_svg(tmp_path):
    doc = fileio.giet_document(giet_from_iet(model_iet()))
    gpath = tmp_path / "float.json"
    fileio.dump(doc, str(gpath))
    out_svg = tmp_path / "p.svg"
    assert main(["partition", str(gpath), "-r", "5", "-o",
                 str(tmp_path / "p.json"), "--svg", str(out_svg)]) == 0
    assert out_svg.read_text().count("<text") == 11


def test_partition_induces_the_map_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "float.json"
    fileio.dump(fileio.giet_document(giet_from_iet(model_iet())), str(path))
    calls = []
    induce = Giet.rauzy_path
    monkeypatch.setattr(Giet, "rauzy_path", lambda self, *args, **kwargs:
                        calls.append((args, kwargs)) or induce(self, *args, **kwargs))
    assert main(["partition", str(path), "-r", "5"]) == 0
    assert calls == [((5,), {"max_points": MAX_REFERENCE_POINTS})]
    assert [a["label"] for a in json.loads(capsys.readouterr().out)["atoms"]] == FIG_LABELS


def recorded_partitions(monkeypatch, module):
    """Patch ``module.dynamical_partition`` to record the cells table of
    every call and the partition it returns."""
    tables, partitions, real = [], [], module.dynamical_partition

    def recording(m, r, induction=None, cells=None):
        tables.append(cells)
        partitions.append(real(m, r, induction, cells))
        return partitions[-1]

    monkeypatch.setattr(module, "dynamical_partition", recording)
    return tables, partitions


@pytest.mark.parametrize("name", ["f2@21", "m2@21", "f4@40", "escaped letters"])
def test_partition_lays_a_cyclic_path_in_the_model_cells(tmp_path, monkeypatch, name):
    """On a complete path to a cyclic datum ``partition`` hands the model's
    cells to ``dynamical_partition``, so its atoms are plain tuples, and it
    writes the document and figure that the sorted ``Atom`` partition gives
    with the same labels, byte for byte."""
    m, r = partition_maps()[name]
    grid, scale = m.on_integer_grid() if isinstance(m, ExactIET) else (m, 1)
    expected = dynamical_partition(grid, r)
    assert all(type(atom) is Atom for atom in expected.atoms)
    ref = build_reference(expected.path)
    labels = ref.atom_names(expected.atoms)
    text = "".join(fileio.partition_pieces(expected, grid.total, labels, scale))
    figure = svg.render_partition(grid.total / scale, [
        (lo / scale, hi / scale, label) for (lo, hi, _, _), label in zip(expected.atoms, labels)])
    doc = fileio.iet_document(m) if isinstance(m, ExactIET) else fileio.giet_document(m)
    out, fig = tmp_path / "p.json", tmp_path / "p.svg"
    tables, partitions = recorded_partitions(monkeypatch, cli)
    argv = ["partition", write_doc(tmp_path, doc), "-r", str(r), "-o", str(out), "--svg", str(fig)]
    assert main(argv) == 0
    assert tables == [ref.cells]
    assert all(type(atom) is tuple for atom in partitions[0].atoms)
    assert partitions[0].atoms == expected.atoms
    assert out.read_text() == text + "\n"
    assert fig.read_text() == figure


def test_partition_without_a_complete_cyclic_path_passes_no_table(tmp_path, capsys, monkeypatch):
    """f4's path of order 20 ends at a datum that is not cyclic: ``partition``
    passes no table and writes the sorted ``Atom``s with their raw names.  A
    tie passes no table either and is the same error."""
    f4 = partition_maps()["f4@40"][0]
    assert not sigma_and_cyclicity(f4.rauzy_path(20).path.target)[1]
    tables, partitions = recorded_partitions(monkeypatch, cli)
    assert main(["partition", write_doc(tmp_path, fileio.giet_document(f4)), "-r", "20"]) == 0
    assert tables == [None]
    assert all(type(atom) is Atom for atom in partitions[0].atoms)
    expected = dynamical_partition(f4, 20)
    names = [f"{atom.letter}{atom.index}" for atom in expected.atoms]
    text = "".join(fileio.partition_pieces(expected, f4.total, names))
    assert capsys.readouterr() == (text + "\n", "")
    tie = fileio.iet_document(ExactIET.from_lengths(D2, ["1/2", "1/2"]))
    assert main(["partition", write_doc(tmp_path, tie), "-r", "2"]) == 1
    assert capsys.readouterr() == ("", "error: tie after 0 of 2 steps\n")
    assert tables == [None, None]


def test_semiconj_lays_both_maps_in_one_table(tmp_path, capsys, monkeypatch):
    """``semiconj`` lays the partition of f and that of T's integer grid in
    the cells of f's reference, one table, where both are in order.  With
    two neighbouring cells exchanged both are sorted, to the same atoms and
    the same output."""
    (f2, r), (m2, _) = (partition_maps()[name] for name in ("f2@21", "m2@21"))
    f_path, t_path = str(tmp_path / "f.json"), str(tmp_path / "t.json")
    fileio.dump(fileio.giet_document(f2), f_path)
    fileio.dump(fileio.iet_document(m2), t_path)
    argv = ["semiconj", f_path, t_path, "-r", str(r), "--spot-check", "8"]
    tables, partitions = recorded_partitions(monkeypatch, semiconjugacy)
    assert main(argv) == 0
    laid = capsys.readouterr()
    ref = build_reference(f2.rauzy_path(r).path)
    assert tables == [ref.cells, ref.cells] and tables[0] is tables[1]
    assert all(type(atom) is tuple for p in partitions for atom in p.atoms)
    assert all(in_model_order(ref, p) for p in partitions)
    cells = thurston.RefConfig.cells.func
    for k in (0, ref.N // 2, ref.N - 2):
        with monkeypatch.context() as patch:
            patch.setattr(thurston.RefConfig, "cells",
                          property(lambda ref: exchanged_cells(cells(ref), k)))
            assert main(argv) == 0
        assert capsys.readouterr() == laid
        assert tables[-1] is tables[-2] and tables[-1] == exchanged_cells(ref.cells, k)
        assert [p.atoms for p in partitions[-2:]] == [p.atoms for p in partitions[:2]]


def run_semiconj(tmp_path, capsys, f, T, order):
    """``semiconj`` on the documents of ``f`` and ``T``: its code and output."""
    f_path, t_path = str(tmp_path / "f.json"), str(tmp_path / "t.json")
    fileio.dump(fileio.giet_document(f), f_path)
    fileio.dump(fileio.iet_document(T), t_path)
    return main(["semiconj", f_path, t_path, "-r", str(order)]), capsys.readouterr()


@pytest.mark.parametrize("order", [0, 1])
def test_semiconj_on_an_iet_with_a_letter_more_is_an_error(tmp_path, capsys, order):
    """f2's path ends at a cyclic datum, so its cells table is passed to the
    partition of T too; T has a letter C that the table lacks, so T's
    partition is sorted instead of raising a ``KeyError``, and the label
    sequences differ."""
    f2 = partition_maps()["f2@21"][0]
    T = ExactIET.from_lengths(parse_datum("A B C", "C B A"), [94, 424, 118])
    code, out = run_semiconj(tmp_path, capsys, f2, T, order)
    assert (code, out.out) == (1, "")
    assert out.err == f"error: order-{order} partitions are not combinatorially equivalent\n"


def test_semiconj_on_an_iet_with_a_letter_less_is_an_error(tmp_path, capsys):
    """f's cyclic datum has the letters A, B and C, T only B and C, whose
    tower counts match the table's: the table would lay T's atoms past
    its end (an ``IndexError``), so T's partition is sorted instead."""
    f = smooth_giet(parse_datum("A B C", "C A B"), [0.3, 0.3, 0.4], {"A": 1.5})
    T = ExactIET.from_lengths(parse_datum("B C", "C B"), [374, 40])
    code, out = run_semiconj(tmp_path, capsys, f, T, 0)
    assert (code, out.out) == (1, "")
    assert out.err == "error: order-0 partitions are not combinatorially equivalent\n"


@pytest.mark.parametrize("command", ["partition", "semiconj"])
def test_an_order_beyond_the_point_cap_is_refused(tmp_path, capsys, monkeypatch, command):
    """f2's partition of order 30 has N = 242,551 atoms, beyond the cap of
    ``MAX_REFERENCE_POINTS``: the order-31 induction stops after the 30th
    arrow, the first that takes N past the cap, so its branch chains stop
    near the cap, and the command exits 1 naming N, the order and the cap."""
    (f2, _), (m2, _) = (partition_maps()[name] for name in ("f2@21", "m2@21"))
    f_path, t_path = str(tmp_path / "f.json"), str(tmp_path / "t.json")
    fileio.dump(fileio.giet_document(f2), f_path)
    fileio.dump(fileio.iet_document(m2), t_path)
    steps, step = [], Giet.rauzy_step
    monkeypatch.setattr(Giet, "rauzy_step", lambda self: steps.append(None) or step(self))
    files = [f_path, t_path] if command == "semiconj" else [f_path]
    assert main([command, *files, "-r", "31"]) == 1
    assert capsys.readouterr() == ("", "error: the order-31 induction passes the cap of 200000 "
                                       "points: N=242551 after 30 of 31 steps\n")
    assert len(steps) == 30 and MAX_REFERENCE_POINTS == 200_000



def test_exact_order_beyond_the_point_cap_is_refused_by_partition_not_by_induct(tmp_path, capsys):
    """An exact map is capped as a float one: ``partition`` stops its grid
    induction at the first arrow past the cap.  ``induct`` builds no atoms
    and has no cap."""
    fib = [1, 1]
    while len(fib) < 47:
        fib.append(fib[-1] + fib[-2])
    doc = write_doc(tmp_path, fileio.iet_document(unit_iet(D2, fib[-2:])))
    assert main(["partition", doc, "-r", "30"]) == 1
    assert capsys.readouterr() == ("", "error: the order-30 induction passes the cap of 200000 "
                                       "points: N=317811 after 25 of 30 steps\n")
    assert main(["induct", doc, "-r", "30"]) == 0
    assert capsys.readouterr().out.startswith("kinds: ")
