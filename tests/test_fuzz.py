"""A seeded fuzzer for the document readers: mutated documents never reach
``main`` as anything but a typed error.

Three seed documents are mutated one to three times each (once in half
the trials): a value is replaced by an odd JSON value, a key or list entry
is deleted or duplicated, or a number is scaled.  Then one command reads the result
through ``cli.main`` in process.  Each run must return a documented exit
code and raise nothing; an exit 1 prints exactly one ``error:`` line, and
no number in an exit-0 output, read as JSON or as SVG coordinates, is NaN
or infinite.  The text is not searched for ``nan``: a mutated datum may
name a letter ``inf``.  Every trial has its own seed, so a failure names
the one trial to rerun.
"""

import copy
import json
import math
import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from gietlab import fileio
from gietlab.branches import PiecewiseLinear, SmoothParam
from gietlab.cli import main
from gietlab.combinatorics import RauzyPath, parse_datum
from gietlab.giet import giet_from_branches, giet_from_iet
from gietlab.thurston import build_reference

D3 = parse_datum("A B C", "C B A")
PATH = "tbtbtt"
TRIALS = {"giet": 450, "iet": 450, "partition": 100}

BOUNDS = {"domain": [0.0, 0.5], "range": [0.5, 1.0]}
# odd values for a JSON number, for an exact "p/q" string and for an
# object or list, then any odd value
NUMBERS = [0, -1, 2**70, -0.0, 1e308, math.inf, math.nan]
RATIOS = ["1/0", "1e400", "1e308", "-2/3", "0/1", "nan", "1e-400"]
SCALARS = [None, True, False, 0, 1.5, "", "x"]
ODD = NUMBERS + RATIOS + SCALARS + [
    [], [1, 2], [0.0, math.inf], {}, {"A": 1},
    "A B / B A", "A B C / C B A", "A A / A A",
    "inf / nan", "translation", "affine", "pl", "smooth", "chain", "window", "composite",
    {"kind": "window", "base": {"kind": "affine", **BOUNDS}, **BOUNDS},
    {"kind": "composite", "inner": {}, "core": {}, "outer": {}},
    {"kind": "chain", "parts": [{"kind": "affine", **BOUNDS}]},
    {"kind": "chain", "parts": [{"kind": "chain", "parts": [{"kind": "affine", **BOUNDS}], **BOUNDS}],
     **BOUNDS},
    {"kind": "smooth", **BOUNDS},
    {"kind": "pl", "nodes": [[0.0, 0.5], [0.5, 1.0]]},
]
SCALES = [-1, 0, 2, 1e-300, 1e300]
SVG_TEXT = {"xmlns", "fill", "stroke", "text-anchor", "font-family"}


def bent(d, r):
    return PiecewiseLinear(((d[0], r[0]), (d[0] + 0.5 * (d[1] - d[0]), r[0] + 0.3 * (r[1] - r[0])),
                            (d[1], r[1])))


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The 3-letter giet (A smooth with k 1.5, B smooth with k -0.8, C
    bent at half its domain and 0.3 of its range), the model IET of
    ``tbtbtt`` on its datum, and that IET's order-4 partition document;
    and the IET's float copy, which ``semiconj`` pairs with a mutated IET,
    as the giet ties at its first step."""
    giet = giet_from_branches(D3, [1 / 3] * 3, [1 / 3] * 3, lambda a, d, r: (
        bent(d, r) if a == "C" else SmoothParam(d, r, k=1.5 if a == "A" else -0.8)))
    iet = build_reference(RauzyPath.from_kinds(D3, PATH)).base_iet
    path = tmp_path_factory.mktemp("seed") / "iet.json"
    fileio.dump(fileio.iet_document(iet), str(path))
    out = path.with_name("partition.json")
    assert main(["partition", str(path), "-r", "4", "-o", str(out)]) == 0
    return {"giet": fileio.giet_document(giet), "iet": fileio.iet_document(iet),
            "partition": json.loads(out.read_text()),
            "copy": fileio.giet_document(giet_from_iet(iet))}


def places(doc, at=()):
    """The path of every value below ``doc``, as a tuple of keys and indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from places(value, at + (key,))


def scale(value, factor):
    """``value`` times ``factor``, where an exact length ``"p/q"`` stays
    exact; None where ``value`` is not a number."""
    if type(value) in (int, float):
        return value * factor
    if type(value) is str and re.fullmatch(r"\d+/[1-9]\d*", value):
        return str(Fraction(value) * Fraction(factor))
    return None


def mutate(doc, rng) -> str:
    """Change one value of ``doc`` in place; returns what was done."""
    *parent, key = rng.choice(list(places(doc)))
    holder = doc
    for k in parent:
        holder = holder[k]
    value, how = holder[key], rng.choice(["replace", "delete", "duplicate", "scale"])
    if how == "scale" and (scaled := scale(value, factor := rng.choice(SCALES))) is not None:
        holder[key] = scaled
        return f"scale {parent + [key]} by {factor}"
    if how == "delete":
        del holder[key]
    elif how == "duplicate" and isinstance(holder, list):
        holder.insert(key, copy.deepcopy(value))
    elif how == "duplicate":
        holder[rng.choice(["D", "x", f"{key}{key}"])] = copy.deepcopy(value)
    else:
        how, holder[key] = "replace", copy.deepcopy(rng.choice(odd_values(value, rng)))
    return f"{how} {parent + [key]}"


def odd_values(value, rng) -> list:
    """The odd values to replace ``value`` with: three times in four, for a
    number odd numbers of its type and for an object or list scalars; else
    any odd value."""
    if rng.random() >= 0.75:
        return ODD
    if scale(value, 1) is not None:
        return RATIOS if type(value) is str else NUMBERS
    return SCALARS if isinstance(value, (dict, list)) else ODD


def command(kind, rng, doc, other, tmp_path):
    """A command that reads ``doc``, a mutated ``kind`` document, and
    writes its outputs in ``tmp_path``; ``semiconj`` pairs it with the
    document ``other``."""
    svg, out = str(tmp_path / "out.svg"), str(tmp_path / "out.json")
    r = rng.choice(["4", "6"])
    choices = {
        "partition": ["partition", doc, "-r", r, "-o", out, "--svg", svg],
        "render": ["render", doc, "-o", svg],
        "induct": ["induct", doc, "-r", r],
        "realize": ["realize", doc, PATH, "--max-iter", "20", "-o", out],
        "semiconj": ["semiconj", *((doc, other) if kind == "giet" else (other, doc)), "-r", r],
    }
    names = {"giet": ["partition", "render", "realize", "semiconj"],
             "iet": ["partition", "render", "induct", "semiconj"],
             "partition": ["render"]}[kind]
    return choices[rng.choice(names)]


def non_finite_json(text) -> list:
    found = []

    def number(s):
        x = float(s)
        if not math.isfinite(x):
            found.append(s)
        return x

    json.loads(text, parse_float=number, parse_constant=found.append)
    return found


def non_finite_svg(text) -> list:
    return [value for element in ET.fromstring(text).iter()
            for name, value in element.attrib.items() if name not in SVG_TEXT
            for part in re.split(r"[ ,]+", value.strip())
            if not math.isfinite(float(part))]


def non_finite_stdout(argv, out) -> list:
    """The non-finite numbers that ``semiconj`` and ``realize`` print;
    ``induct`` prints exact lengths and names letters."""
    if argv[0] == "semiconj":  # node lines "x<TAB>y", then "residual: r"
        numbers = [x for line in out.splitlines() for x in line.removeprefix("residual: ").split("\t")]
    elif argv[0] == "realize":
        numbers = [line.rsplit(" ", 1)[1] for line in out.splitlines()
                   if line.startswith(("tau ", "delta "))]
    else:
        return []
    return [x for x in numbers if not math.isfinite(float(x))]


@pytest.mark.parametrize("kind", sorted(TRIALS))
def test_mutated_documents_exit_with_a_documented_code(kind, seeds, tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(json.dumps(seeds["iet" if kind == "giet" else "copy"]))
    codes = {}
    for trial in range(TRIALS[kind]):
        rng = random.Random(f"{kind}:{trial}")
        doc = copy.deepcopy(seeds[kind])
        done = [mutate(doc, rng) for _ in range(rng.choice((1, 1, 2, 3)))]
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        for stale in ("out.json", "out.svg"):
            (tmp_path / stale).unlink(missing_ok=True)
        argv = command(kind, rng, str(path), str(other), tmp_path)
        where = f"trial {kind}:{trial}, {done}, {argv[0]}"
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{where} raised {type(exc).__name__}: {exc}")
        out, err = capsys.readouterr()
        assert code in ((0, 1, 3, 4) if argv[0] == "realize" else (0, 1)), where
        codes[code] = codes.get(code, 0) + 1
        if code == 1:
            assert len(re.findall(r"^error:", err, re.M)) == 1, (where, err)
        if code == 0:
            found = non_finite_stdout(argv, out)
            for name, check in (("out.json", non_finite_json), ("out.svg", non_finite_svg)):
                if (tmp_path / name).exists():
                    found += check((tmp_path / name).read_text())
            assert not found, (where, found)
    # the mutations leave some documents readable and make others fail
    assert codes.get(0) and codes.get(1), codes
