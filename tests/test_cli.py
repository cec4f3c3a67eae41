import json
from fractions import Fraction

import pytest

from gietlab import fileio, svg
from gietlab.branches import Affine, Chain, PiecewiseLinear, SmoothParam
from gietlab.cli import main
from gietlab.errors import GietlabError
from gietlab.combinatorics import parse_datum
from gietlab.exact_iet import ExactIET
from gietlab.full_family import apply
from gietlab.giet import Giet, giet_from_branches, giet_from_iet

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
    for a in f.datum.alphabet:
        core = f.branches[a]
        new_dom, new_rng = g.branches[a].domain, g.branches[a].range_
        chain = Chain((Affine(new_dom, core.domain), core, Affine(core.range_, new_rng)))
        inner, core_rec, outer = (fileio.branch_record(p) for p in chain.parts)
        doc["branches"][a] = {"kind": "composite", "outer": outer, "core": core_rec, "inner": inner}
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


def test_window_records_load_as_chains():
    # earlier versions wrote a restricted branch as a window on its base
    base = SmoothParam((0.0, 0.5), (0.5, 1.0), k=1.3)
    bounds = (0.1, 0.3), (base.eval(0.1), base.eval(0.3))
    rec = {"kind": "window", "base": fileio.branch_record(base),
           "domain": list(bounds[0]), "range": list(bounds[1])}
    loaded = fileio.branch_from_record(json.loads(json.dumps(rec)))
    assert loaded == Chain((base,), *bounds)
    for i in range(9):
        x = 0.1 + 0.2 * i / 8
        assert loaded.eval(x) == base.eval(x)
        assert loaded.inverse(base.eval(x)) == base.inverse(base.eval(x))


def test_bounded_chain_records_round_trip():
    pl = PiecewiseLinear(((0.2, 0.0), (0.3, 0.4), (0.6, 1.0)))
    chain = Chain((Affine((0.0, 0.4), (0.2, 0.6)), pl), (0.1, 0.3), (0.125, 0.75))
    rec = json.loads(json.dumps(fileio.branch_record(chain)))
    assert rec["domain"] == [0.1, 0.3] and rec["range"] == [0.125, 0.75]
    assert fileio.branch_from_record(rec) == chain
    # a chain record without bounds takes those of its end parts
    del rec["domain"], rec["range"]
    assert fileio.branch_from_record(rec) == Chain(chain.parts)


@pytest.mark.parametrize("record, message", [
    ({"kind": "chain", "parts": []}, "a chain needs at least one part"),
    ({"kind": "chain", "parts": 5}, "field 'parts' must be a list of branch records, got 5"),
    ({"kind": "chain", "parts": [1]}, "a branch record must be a JSON object, got int"),
    ({"kind": "window", "base": "pl", "domain": [0.0, 0.5], "range": [0.5, 1.0]},
     "a branch record must be a JSON object, got str"),
    ({"kind": "composite", "inner": [], "core": {}, "outer": {}},
     "a branch record must be a JSON object, got list"),
    ({"domain": [0.0, 0.5], "range": [0.5, 1.0]}, "is missing the key 'kind'"),
    ({"kind": "chain", "parts": [{"kind": "translation", "domain": [0.0, 0.5]}]},
     "is missing the key 'range'"),
])
def test_nested_branch_records_are_checked(tmp_path, capsys, record, message):
    doc = seed_document()
    doc["branches"]["A"] = record
    code, err = run_partition_on(tmp_path, capsys, json.dumps(doc))
    assert code == 1
    assert err.startswith("error:") and "branch 'A'" in err and message in err, err


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
    assert err.startswith("error:") and "branch 'B'" in err and "[0.5, 2.0)" in err


def test_realize_on_a_map_of_length_two_is_an_error(tmp_path, capsys):
    # a consistent document on [0, 2) loads, but its family cannot be built
    assert main(["realize", write_doc(tmp_path, seed_document(2.0)), "tbt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unit-interval" in err and "length 2.0" in err


def test_giet_breakpoint_off_its_branch_is_an_error(tmp_path, capsys):
    doc = seed_document()
    doc["top"]["B"] = 0.7  # branch A still covers [0, 0.5)
    path = write_doc(tmp_path, doc)
    for argv in (["realize", path, "tbt"], ["partition", path, "-r", "2"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "branch 'A'" in err and "top interval" in err


def test_giet_rows_that_do_not_tile_are_errors(tmp_path, capsys):
    cases = [
        ("bottom", {"B": 0.1, "A": 0.5}, "bottom row starts at 0.1"),
        ("top", {"A": 0.0, "B": 1.5}, "top interval [1.5, 1.0) of letter 'B' is empty"),
        ("top", {"A": 0.0}, "field 'top': letter 'B' is missing"),
        ("branches", {"A": {}, "B": {}, "C": {}}, "field 'branches': letter 'C' is not in"),
        ("top", {"A": 0.0, "B": [0.5]}, "field 'top' letter 'B' must be a number"),
    ]
    for key, value, message in cases:
        doc = seed_document()
        doc[key] = value
        code, err = run_partition_on(tmp_path, capsys, json.dumps(doc))
        assert code == 1
        assert err.startswith("error:") and message in err, err


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


def test_eval_frac_divides_huge_fractions_exactly():
    assert svg.eval_frac(f"{3 * 10**399}/{10**400}") == 0.3
    assert svg.eval_frac(f"{10**400 + 1}/{3 * 10**400}") == 1 / 3
    assert svg.eval_frac("0.25") == 0.25 and svg.eval_frac(2) == 2.0


@pytest.mark.parametrize("value", ["1/0", f"{10**400}/1", "1/2/3", "x/2", None],
                         ids=["zero-denominator", "overflow", "two-slashes", "not-an-int", "none"])
def test_eval_frac_of_a_bad_number_is_an_error(value):
    with pytest.raises(GietlabError, match="cannot read the number"):
        svg.eval_frac(value)


@pytest.mark.parametrize("doc, message", [
    ({"kind": "partition", "total": "1/0", "atoms": []}, "cannot read the number '1/0'"),
    ({"kind": "partition"}, "partition document is missing the key 'total'"),
    ({"kind": "partition", "total": 1.0, "atoms": [{"left": 0.0, "right": 1.0}]},
     "partition document is missing the key 'label'"),
    ({"kind": "partition", "total": 1, "atoms": 5},
     "partition document field 'atoms' must be a list, got int"),
    ({"kind": "partition", "total": 1, "atoms": [1]},
     "partition document field 'atoms': entry 0 must be a JSON object, got int"),
])
def test_render_of_a_bad_partition_is_an_error(tmp_path, capsys, doc, message):
    out = tmp_path / "p.svg"
    assert main(["render", write_doc(tmp_path, doc), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err, err
    assert not out.exists()


def test_render_rejects_unknown_kind(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "mystery"}')
    assert main(["render", str(bad), "-o", str(tmp_path / "x.svg")]) == 1


def test_order_bound_enforced(tmp_path, capsys):
    iet = write_model_iet(tmp_path)
    assert main(["induct", iet, "-r", "65"]) == 1


def test_dump_writes_one_line_with_sorted_keys(tmp_path, monkeypatch):
    written = []
    real_dump = fileio.dump

    def recording_dump(doc, path):
        text = real_dump(doc, path)
        written.append((doc, path, text))
        return text

    monkeypatch.setattr(fileio, "dump", recording_dump)
    iet = write_model_iet(tmp_path)
    family = write_seed_family(tmp_path)
    partition = str(tmp_path / "partition.json")
    report = str(tmp_path / "report.json")
    assert main(["partition", iet, "-r", "5", "-o", partition]) == 0
    assert main(["realize", family, "bbbtb", "-o", report]) == 0
    assert [path for _, path, _ in written] == [iet, family, partition, report]
    for doc, path, text in written:
        assert open(path).read() == text + "\n"
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


def test_partition_induces_the_map_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "float.json"
    fileio.dump(fileio.giet_document(giet_from_iet(model_iet())), str(path))
    calls = []
    induce = Giet.rauzy_path
    monkeypatch.setattr(
        Giet, "rauzy_path", lambda self, *args: calls.append(args) or induce(self, *args)
    )
    assert main(["partition", str(path), "-r", "5"]) == 0
    assert calls == [(5,)]
    assert [a["label"] for a in json.loads(capsys.readouterr().out)["atoms"]] == FIG_LABELS
