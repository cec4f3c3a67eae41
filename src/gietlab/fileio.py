"""JSON documents for IETs, GIETs, partitions and ``realize`` reports.

Exact rationals serialize as ``"p/q"`` strings, floats as JSON numbers, so a
document round-trips without losing exactness.  Field names are fixed; see
the README for the schemas.  ``load_map`` reads every document file, checks
it field by field and accepts only the kinds its caller names.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from fractions import Fraction

from .branches import (
    EPS_BRANCH,
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
from .giet import DynamicalPartition, Giet, check_tiling


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
    """The length of ``letter``: a ``"p/q"`` string, or a finite JSON number
    (not a boolean), read as the nearest fraction with denominator up to 10^12."""
    field = f"iet document field 'lengths': letter {letter!r}"
    try:
        if isinstance(v, bool) or not isinstance(v, (str, int, float)):
            raise TypeError
        x = Fraction(v) if isinstance(v, str) else Fraction(v).limit_denominator(10**12)
    except ZeroDivisionError:
        raise GietlabError(f"{field} has zero denominator in {v!r}") from None
    except (TypeError, ValueError, OverflowError):
        raise GietlabError(f"{field} must be a finite number or a 'p/q' string, got {v!r}") from None
    if not x > 0:
        raise GietlabError(f"{field} must be positive, got {v!r}")
    return x


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
        lengths = _per_letter(
            "iet", datum, "lengths", _object(doc["lengths"], "iet document field 'lengths'")
        )
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
    """The GIET of a document's branches, checked for consistency: the
    branches tile ``[0, length)`` along each row (``Giet.check_intervals``),
    and the ``top`` and ``bottom`` fields, which repeat the left ends of the
    branch domains and ranges, match them to within the same tolerance."""
    _object(doc, "giet document")
    with reading("giet"):
        datum = parse_datum_text(doc["datum"])
        top, bottom, branches = (
            _per_letter("giet", datum, key, _object(doc[key], f"giet document field {key!r}"))
            for key in ("top", "bottom", "branches")
        )
        g = Giet(
            datum,
            _number(doc.get("length", 1.0), "giet document field 'length'"),
            {a: _branch_of(a, rec) for a, rec in branches.items()},
        )
    try:
        g.check_intervals()
    except GietlabError as exc:
        raise GietlabError(f"giet document: {exc}") from None
    eps = EPS_BRANCH * max(1.0, abs(g.length))
    for key, row, breaks, what in (("top", top, g.top_breaks, "branch"),
                                   ("bottom", bottom, g.bottom_breaks, "the range of branch")):
        for a, v in row.items():
            field = f"giet document field {key!r} letter {a!r}"
            if not abs(_number(v, field) - breaks[a]) <= eps:
                raise GietlabError(f"{field} is {v}, but {what} {a!r} starts at {breaks[a]}")
    return g


def _per_letter(kind: str, datum, key: str, field: dict) -> dict:
    """``field`` of a ``kind`` document in alphabet order; it must hold
    exactly the datum's letters."""
    odd = sorted(set(field) ^ set(datum.alphabet))
    if odd:
        state = "is missing" if odd[0] in datum.alphabet else "is not in the datum"
        raise GietlabError(f"{kind} document field {key!r}: letter {odd[0]!r} {state}")
    return {a: field[a] for a in datum.alphabet}


def _number(v, what: str) -> float:
    """``v`` as a float; booleans, non-numbers and non-finite values (json
    reads ``1e400`` as infinity) are errors that name ``what``."""
    try:
        if isinstance(v, bool):
            raise TypeError
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        raise GietlabError(f"{what} must be a number, got {v!r}") from None
    if not math.isfinite(x):
        raise GietlabError(f"{what} must be a finite number, got {v!r}")
    return x


def _branch_of(letter, rec) -> Branch:
    """The branch record of ``letter`` in a giet document; errors name the letter."""
    try:
        return branch_from_record(rec)
    except KeyError as exc:
        key = exc.args[0]
        raise GietlabError(f"giet document branch {letter!r} is missing the key {key!r}") from None
    except GietlabError as exc:
        raise GietlabError(f"giet document branch {letter!r}: {exc}") from None


def _num_json(x) -> str:
    """``_num_out(x)`` as JSON text."""
    if type(x) is not float and isinstance(x, Fraction):  # a float skips the slow ABC check
        return f'"{x.numerator}/{x.denominator}"'
    return float.__repr__(float(x))


def partition_json(p: DynamicalPartition, total, labels) -> str:
    """The partition document as JSON text, written straight from the atoms
    and their ``labels``.

    The text is ``json.dumps(doc, sort_keys=True)`` of the document
    ``{"kind": "partition", "order", "total", "atoms"}`` whose atoms are
    ``{"left", "right", "letter", "index", "label"}``.  Endpoints follow
    ``_num_out``: a fraction is a ``"p/q"`` string, anything else a float.
    """
    enc = json.encoder.encode_basestring_ascii
    letters = {a: enc(a) for a in p.path.source.alphabet}
    atoms = []
    prev_hi = right = None
    for (lo, hi, letter, index), label in zip(p.atoms, labels):
        # a left end that is, or equals, the last right end takes its text
        # (not at 0, as -0.0 prints apart); the exact fractions are shared
        left = right if lo is prev_hi or (lo == prev_hi and lo) else _num_json(lo)
        prev_hi, right = hi, _num_json(hi)
        atoms.append(f'{{"index": {index}, "label": {enc(label)}, "left": {left}, '
                     f'"letter": {letters[letter]}, "right": {right}}}')
    return (f'{{"atoms": [{", ".join(atoms)}], "kind": "partition", '
            f'"order": {p.order}, "total": {_num_json(total)}}}')


def partition_from_document(doc: dict) -> tuple[float, list]:
    """The ``total`` and the atoms' ``(left, right, label)`` of a partition
    document, in floats, every atom checked, and the atoms checked to tile
    ``[0, total)`` as ``DynamicalPartition.validate`` checks them."""
    with reading("partition"):
        total = _endpoint(doc["total"], "partition document field 'total'")
        atoms = doc["atoms"]
        if not isinstance(atoms, list):
            raise GietlabError(
                f"partition document field 'atoms' must be a list, got {type(atoms).__name__}"
            )
        read = []
        for i, atom in enumerate(atoms):
            field = f"partition document field 'atoms': entry {i}"
            left, right, label = (_object(atom, field)[k] for k in ("left", "right", "label"))
            if not isinstance(label, str):
                raise GietlabError(f"{field} field 'label' must be a string, got {label!r}")
            read.append((_endpoint(left, f"{field} field 'left'"),
                         _endpoint(right, f"{field} field 'right'"), label))
    try:
        check_tiling(read, total, lambda i: f"entry {i}")
    except GietlabError as exc:
        raise GietlabError(f"partition document field 'atoms': {exc}") from None
    return total, read


def _endpoint(v, what: str) -> float:
    """A partition endpoint or total as a float: a ``"p/q"`` string is divided
    as two integers, which is correctly rounded at any size; anything else
    is read by ``_number``."""
    if isinstance(v, str) and "/" in v:
        try:
            num, den = v.split("/")
            return int(num) / int(den)
        except (ArithmeticError, ValueError):
            raise GietlabError(f"{what} must be a finite number or a 'p/q' string, got {v!r}") from None
    return _number(v, what)


def realize_document(result) -> dict:
    """The report ``realize -o`` writes for a ``thurston.RealizeResult``."""
    report = result.report
    return {"status": report.status, "iterations": report.iterations,
            "certificate": result.certificate, "appended": result.appended,
            "tau": dict(result.tau), "deltas": [[it, d] for it, d in report.deltas]}


def load_map(path: str, kinds=("iet", "giet")):
    """Read a document whose ``kind`` is one of ``kinds``: an ``ExactIET``,
    a ``Giet``, or a partition's ``(total, atoms)``."""
    *rest, last = map(repr, kinds)
    accepted = f"{', '.join(rest)} or {last}" if rest else last
    with open(path) as fh:
        doc = _object(json.load(fh), f"the {accepted} document in {path}")
    kind = doc.get("kind")
    if kind not in kinds:
        raise GietlabError(f"expected a document of kind {accepted}, got kind {kind!r}")
    if kind == "iet":
        return iet_from_document(doc)
    if kind == "giet":
        return giet_from_document(doc)
    return partition_from_document(doc)


def dump(doc: dict | str, path: str | None) -> str:
    """``doc`` as one line of JSON with sorted keys, also written to ``path``;
    a ``str`` is taken to be that JSON text already.

    No ``indent``: with it, ``json`` falls back to its pure-Python encoder.
    """
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")  # not text + "\n": that copies a document of megabytes
    return text
