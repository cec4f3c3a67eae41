"""JSON documents for IETs, GIETs and partitions.

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
)
from .combinatorics import parse_datum_text
from .errors import GietlabError
from .exact_iet import ExactIET
from .giet import Giet, DynamicalPartition


def _num_out(x):
    return f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else float(x)


@contextmanager
def reading(kind: str):
    """Report a key missing from a ``kind`` document as a ``GietlabError``."""
    try:
        yield
    except KeyError as exc:
        raise GietlabError(f"{kind} document is missing the key {exc.args[0]!r}") from None


def _object(value, what: str) -> dict:
    """``value`` if it is a JSON object; ``what`` names it in the error otherwise."""
    if not isinstance(value, dict):
        raise GietlabError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _exact_length(letter, v) -> Fraction:
    try:
        return Fraction(v) if isinstance(v, str) else Fraction(v).limit_denominator(10**12)
    except ZeroDivisionError:
        raise GietlabError(
            f"iet document field 'lengths': letter {letter!r} has zero denominator in {v!r}"
        ) from None


def iet_document(T: ExactIET) -> dict:
    return {
        "kind": "iet",
        "datum": T.datum.encode(),
        "lengths": {a: _num_out(T.length(a)) for a in T.datum.alphabet},
    }


def iet_from_document(doc: dict) -> ExactIET:
    _object(doc, "iet document")
    with reading("iet"):
        datum = parse_datum_text(doc["datum"])
        lengths = _object(doc["lengths"], "iet document field 'lengths'")
        lengths = {a: _exact_length(a, v) for a, v in lengths.items()}
        return ExactIET.from_lengths(datum, lengths, normalize=False)


def branch_record(b: Branch) -> dict:
    if isinstance(b, (Translation, Affine)):
        return {"kind": type(b).__name__.lower(), "domain": list(b.domain), "range": list(b.range_)}
    if isinstance(b, PiecewiseLinear):
        return {"kind": "pl", "nodes": [list(p) for p in b.nodes]}
    if isinstance(b, SmoothParam):
        return {"kind": "smooth", "domain": list(b.domain), "range": list(b.range_), "k": b.k}
    if isinstance(b, Chain):
        parts = [branch_record(p) for p in b.parts]
        return {"kind": "chain", "parts": parts, "domain": list(b.domain), "range": list(b.range_)}
    raise GietlabError(f"cannot serialize branch {type(b).__name__}")


def branch_from_record(rec: dict) -> Branch:
    """The branch of a record; earlier versions' ``window`` (a base on bounds),
    ``composite`` (outer o core o inner) and bound-less ``chain`` load as chains."""
    kind = _object(rec, "a branch record")["kind"]
    if kind == "translation":
        return Translation(*_bounds(rec))
    if kind == "affine":
        return Affine(*_bounds(rec))
    if kind == "pl":
        return PiecewiseLinear(tuple(_pair(p, "nodes") for p in rec["nodes"]))
    if kind == "smooth":
        return SmoothParam(*_bounds(rec), _number(rec.get("k", 1.0), "field 'k'"))
    if kind == "composite":
        return Chain(tuple(branch_from_record(rec[k]) for k in ("inner", "core", "outer")))
    if kind == "window":
        return Chain((branch_from_record(rec["base"]),), *_bounds(rec))
    if kind == "chain":
        parts = rec["parts"]
        if not isinstance(parts, list):
            raise GietlabError(f"field 'parts' must be a list of branch records, got {parts!r}")
        bounds = _bounds(rec) if "domain" in rec or "range" in rec else ()
        return Chain(tuple(branch_from_record(p) for p in parts), *bounds)
    raise GietlabError(f"unknown branch kind {kind!r}")


def _bounds(rec: dict) -> tuple:
    """The ``domain`` and ``range`` of a branch record."""
    return _pair(rec["domain"], "domain"), _pair(rec["range"], "range")


def _pair(value, key: str) -> tuple[float, float]:
    """A branch record's ``key`` entry, which must be a list of two numbers."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise GietlabError(f"field {key!r} must be a list of two numbers, got {value!r}")
    return tuple(_number(v, f"field {key!r}") for v in value)


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
    """A GIET from its document, checked for consistency: the breakpoints of
    each row start at 0 and tile ``[0, length)``, and each branch's domain
    and range are its two intervals (within ``EPS_BRANCH``)."""
    _object(doc, "giet document")
    with reading("giet"):
        datum = parse_datum_text(doc["datum"])
        top, bottom, branches = (
            _per_letter(datum, key, _object(doc[key], f"giet document field {key!r}"))
            for key in ("top", "bottom", "branches")
        )
        g = Giet(
            datum,
            _number(doc.get("length", 1.0), "giet document field 'length'"),
            {a: _number(v, f"giet document field 'top' letter {a!r}") for a, v in top.items()},
            {a: _number(v, f"giet document field 'bottom' letter {a!r}") for a, v in bottom.items()},
            {a: _branch_of(a, rec) for a, rec in branches.items()},
        )
    try:
        g.check_intervals()
    except GietlabError as exc:
        raise GietlabError(f"giet document: {exc}") from None
    return g


def _per_letter(datum, key: str, field: dict) -> dict:
    """``field`` in alphabet order; it must hold exactly the datum's letters."""
    odd = sorted(set(field) ^ set(datum.alphabet))
    if odd:
        state = "is missing" if odd[0] in datum.alphabet else "is not in the datum"
        raise GietlabError(f"giet document field {key!r}: letter {odd[0]!r} {state}")
    return {a: field[a] for a in datum.alphabet}


def _number(v, what: str) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        raise GietlabError(f"{what} must be a number, got {v!r}") from None


def _branch_of(letter, rec) -> Branch:
    """The branch record of ``letter`` in a giet document; errors name the letter."""
    try:
        return branch_from_record(rec)
    except KeyError as exc:
        key = exc.args[0]
        raise GietlabError(f"giet document branch {letter!r} is missing the key {key!r}") from None
    except GietlabError as exc:
        raise GietlabError(f"giet document branch {letter!r}: {exc}") from None


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


def load_document(path: str, what: str) -> dict:
    """Read a JSON document, which must be an object; ``what`` names the
    document expected, for the error message."""
    with open(path) as fh:
        return _object(json.load(fh), f"the {what} in {path}")


def load_map(path: str):
    """Read an IET or GIET document; the ``kind`` field decides which."""
    doc = load_document(path, "'iet' or 'giet' document")
    kind = doc.get("kind")
    if kind == "iet":
        return iet_from_document(doc)
    if kind == "giet":
        return giet_from_document(doc)
    raise GietlabError(f"expected an 'iet' or 'giet' document, got kind {kind!r}")


def dump(doc: dict, path: str | None) -> str:
    """``doc`` as one line of JSON with sorted keys, also written to ``path``.

    No ``indent``: with it, ``json`` falls back to its pure-Python encoder.
    """
    text = json.dumps(doc, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
