"""JSON documents for IETs, GIETs, partitions and degenerations.

Exact rationals serialize as ``"p/q"`` strings, floats as JSON numbers, so a
document round-trips without losing exactness.  Field names are fixed; see
the README for the schemas.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction

from .branches import (
    Affine,
    Branch,
    Chain,
    PiecewiseLinear,
    SmoothParam,
    Translation,
    Window,
)
from .combinatorics import parse_datum_text
from .errors import GietlabError
from .exact_iet import ExactIET
from .giet import Giet, DynamicalPartition


def _num_out(x):
    return f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else float(x)


def _num_in(x):
    return Fraction(x) if isinstance(x, str) else float(x)


@contextmanager
def _reading(kind: str):
    """Report a key missing from a ``kind`` document as a ``GietlabError``."""
    try:
        yield
    except KeyError as exc:
        raise GietlabError(f"{kind} document is missing the key {exc.args[0]!r}") from None


def iet_document(T: ExactIET) -> dict:
    return {
        "kind": "iet",
        "datum": T.datum.encode(),
        "lengths": {a: _num_out(T.length(a)) for a in T.datum.alphabet},
    }


def iet_from_document(doc: dict) -> ExactIET:
    with _reading("iet"):
        datum = parse_datum_text(doc["datum"])
        lengths = {a: Fraction(v) if isinstance(v, str) else Fraction(v).limit_denominator(10**12)
                   for a, v in doc["lengths"].items()}
        return ExactIET.from_lengths(datum, lengths, normalize=False)


def branch_record(b: Branch) -> dict:
    if isinstance(b, Translation):
        return {"kind": "translation", "domain": list(b.domain), "range": list(b.range_)}
    if isinstance(b, Affine):
        return {"kind": "affine", "domain": list(b.domain), "range": list(b.range_)}
    if isinstance(b, PiecewiseLinear):
        return {"kind": "pl", "nodes": [list(p) for p in b.nodes]}
    if isinstance(b, SmoothParam):
        return {"kind": "smooth", "domain": list(b.domain), "range": list(b.range_), "k": b.k}
    if isinstance(b, Window):
        return {
            "kind": "window",
            "base": branch_record(b.base),
            "domain": list(b.domain),
            "range": list(b.range_),
        }
    if isinstance(b, Chain):
        return {"kind": "chain", "parts": [branch_record(p) for p in b.parts]}
    raise GietlabError(f"cannot serialize branch {type(b).__name__}")


def branch_from_record(rec: dict) -> Branch:
    kind = rec["kind"]
    if kind == "translation":
        return Translation(tuple(rec["domain"]), tuple(rec["range"]))
    if kind == "affine":
        return Affine(tuple(rec["domain"]), tuple(rec["range"]))
    if kind == "pl":
        return PiecewiseLinear(tuple(tuple(p) for p in rec["nodes"]))
    if kind == "smooth":
        return SmoothParam(tuple(rec["domain"]), tuple(rec["range"]), rec.get("k", 1.0))
    if kind == "composite":  # written by earlier versions: outer o core o inner
        return Chain(tuple(branch_from_record(rec[k]) for k in ("inner", "core", "outer")))
    if kind == "window":
        return Window(branch_from_record(rec["base"]), tuple(rec["domain"]), tuple(rec["range"]))
    if kind == "chain":
        return Chain(tuple(branch_from_record(p) for p in rec["parts"]))
    raise GietlabError(f"unknown branch kind {kind!r}")


def giet_document(g: Giet) -> dict:
    return {
        "kind": "giet",
        "datum": g.datum.encode(),
        "length": g.length,
        "top": {a: g.top_breaks[a] for a in g.datum.alphabet},
        "bottom": {a: g.bottom_breaks[a] for a in g.datum.alphabet},
        "branches": {a: branch_record(g.branches[a]) for a in g.datum.alphabet},
    }


def giet_from_document(doc: dict) -> Giet:
    with _reading("giet"):
        return Giet(
            parse_datum_text(doc["datum"]),
            float(doc.get("length", 1.0)),
            {a: float(v) for a, v in doc["top"].items()},
            {a: float(v) for a, v in doc["bottom"].items()},
            {a: branch_from_record(rec) for a, rec in doc["branches"].items()},
        )


def partition_document(p: DynamicalPartition, total, labels=None) -> dict:
    atoms = []
    for i, atom in enumerate(p.atoms):
        atoms.append(
            {
                "left": _num_out(atom.lo),
                "right": _num_out(atom.hi),
                "letter": atom.letter,
                "index": atom.index,
                "label": labels[i] if labels else f"{atom.letter}{atom.index}",
            }
        )
    return {"kind": "partition", "order": p.order, "total": _num_out(total), "atoms": atoms}


def degeneration_document(deg) -> dict:
    """Serialize a boundary degeneration: reduced map plus singular points."""
    return {
        "kind": "degeneration",
        "datum": deg.datum.encode(),
        "reduced_datum": deg.reduced_datum.encode(),
        "regular": giet_document(deg.regular),
        "singular": {a: list(p) for a, p in sorted(deg.singular.items())},
    }


def load_map(path: str):
    """Read an IET or GIET document; the ``kind`` field decides which."""
    with open(path) as fh:
        doc = json.load(fh)
    kind = doc.get("kind")
    if kind == "iet":
        return iet_from_document(doc)
    if kind == "giet":
        return giet_from_document(doc)
    raise GietlabError(f"expected an 'iet' or 'giet' document, got kind {kind!r}")


def dump(doc: dict, path: str | None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
