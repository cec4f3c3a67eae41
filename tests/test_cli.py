import json
from fractions import Fraction

from gietlab import fileio, svg
from gietlab.branches import SmoothParam
from gietlab.cli import main
from gietlab.combinatorics import parse_datum
from gietlab.exact_iet import ExactIET
from gietlab.full_family import apply
from gietlab.giet import giet_from_branches, giet_from_iet

D2 = parse_datum("A B", "B A")
D4 = parse_datum("A B C D", "D C B A")
FIG_LABELS = ["A0", "A3", "C1", "B1", "C3", "A1", "B0", "C2", "C0", "D0", "A2"]


def model_iet():
    return ExactIET.from_lengths(
        D4,
        {"A": Fraction(6, 11), "B": Fraction(2, 11), "C": Fraction(1, 11), "D": Fraction(2, 11)},
        normalize=False,
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


def test_realize_nonlinear_family(tmp_path, capsys):
    family = write_seed_family(tmp_path)
    report = tmp_path / "report.json"
    assert main(["realize", family, "bbbtb", "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["status"] == "realized" and doc["certificate"] is True


def test_realize_failure_exit_code(tmp_path, capsys):
    family = write_seed_family(tmp_path, D2)
    # far too few iterations to reach a long prescription
    assert main(["realize", family, "tb" * 6, "--max-iter", "1"]) == 4
    err = capsys.readouterr().err
    assert "partial path" in err


def test_semiconj_command(tmp_path, capsys):
    iet = write_model_iet(tmp_path)
    giet_doc = fileio.giet_document(giet_from_iet(model_iet()))
    giet_path = tmp_path / "g.json"
    fileio.dump(giet_doc, str(giet_path))
    assert main(["semiconj", str(giet_path), iet, "-r", "5", "--spot-check", "16"]) == 0
    out = capsys.readouterr().out
    assert "residual:" in out and "spot-check" in out


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


def test_composite_records_load_as_chains(tmp_path):
    # earlier versions wrote each deformed branch as a composite record
    f = fileio.load_map(write_seed_family(tmp_path))
    g = apply(f, {"A": 0.4, "B": 0.3, "C": 0.2, "D": 0.1})
    doc = fileio.giet_document(g)
    for a, rec in doc["branches"].items():
        inner, core, outer = rec["parts"]
        doc["branches"][a] = {"kind": "composite", "outer": outer, "core": core, "inner": inner}
    path = tmp_path / "composite.json"
    fileio.dump(doc, str(path))
    loaded = fileio.load_map(str(path))
    for a, lo, hi in loaded.top_intervals():
        rec = doc["branches"][a]
        inner, core, outer = (fileio.branch_from_record(rec[k]) for k in ("inner", "core", "outer"))
        for i in range(1, 8):
            x = lo + (hi - lo) * i / 8
            y = outer.eval(core.eval(inner.eval(x)))
            assert loaded.eval(x) == y
            assert loaded.branches[a].inverse(y) == inner.inverse(core.inverse(outer.inverse(y)))
    # written back, the branches are chains
    assert {r["kind"] for r in fileio.giet_document(loaded)["branches"].values()} == {"chain"}


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


def test_bad_seed_variable_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv("GIETLAB_SEED", "abc")
    assert main(["class", "A B / B A"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "GIETLAB_SEED" in err


def test_partition_labels_are_escaped_in_svg():
    doc = {"kind": "partition", "order": 1, "total": 1.0, "atoms": [
        {"left": 0.0, "right": 0.5, "letter": "A", "index": 0, "label": "<A&0>"},
        {"left": 0.5, "right": 1.0, "letter": "B", "index": 0, "label": "B0"},
    ]}
    text = svg.render_partition(doc)
    assert ">&lt;A&amp;0&gt;</text>" in text
    assert "<A&0>" not in text


def test_iet_document_roundtrip(tmp_path):
    T = model_iet()
    doc = json.loads(json.dumps(fileio.iet_document(T)))
    assert fileio.iet_from_document(doc) == T


def test_render_rejects_unknown_kind(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "mystery"}')
    assert main(["render", str(bad), "-o", str(tmp_path / "x.svg")]) == 1


def test_order_bound_enforced(tmp_path, capsys):
    iet = write_model_iet(tmp_path)
    assert main(["induct", iet, "-r", "65"]) == 1


def test_degeneration_document(tmp_path):
    from gietlab.full_family import boundary_apply
    from conftest import random_unit_giet
    import random as _random

    five = parse_datum("A B E C D", "E A D C B")
    f = random_unit_giet(_random.Random(30), datum=five)
    tau = {"A": 0.3, "B": 0.3, "C": 0.4, "D": 0.0, "E": 0.0}
    deg = boundary_apply(f, tau)
    doc = fileio.degeneration_document(deg)
    assert doc["reduced_datum"] == "A B C / A C B"
    assert sorted(doc["singular"]) == ["D", "E"]
    # the regular part round-trips through its own document
    again = fileio.giet_from_document(json.loads(json.dumps(doc["regular"])))
    assert again == deg.regular


def test_partition_of_float_giet_with_class_labels(tmp_path, capsys):
    # a float translation copy of the model map gets the same figure labels
    doc = fileio.giet_document(giet_from_iet(model_iet()))
    path = tmp_path / "float.json"
    fileio.dump(doc, str(path))
    assert main(["partition", str(path), "-r", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [a["label"] for a in out["atoms"]] == FIG_LABELS
    assert all(isinstance(a["left"], float) for a in out["atoms"])


def test_realize_no_cyclic_exit_code(tmp_path, capsys, monkeypatch):
    import gietlab.thurston as thurston

    monkeypatch.setattr(thurston, "find_cyclic", lambda cls: None)
    family = write_seed_family(tmp_path)
    assert main(["realize", family, "bbb"]) == 3


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
