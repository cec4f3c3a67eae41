"""JSON documents for IETs, GIETs, partitions and ``realize`` reports.

Exact rationals serialize as ``"p/q"`` strings, floats as JSON numbers, so a
document round-trips without losing exactness.  Field names are fixed; see
the README for the schemas.  ``load_map`` reads every document file, checks
it field by field and accepts only the kinds its caller names.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager, nullcontext
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


def _datum(doc: dict, kind: str):
    """The datum of a ``kind`` document, whose ``datum`` must be a string."""
    text = doc["datum"]
    if not isinstance(text, str):
        raise GietlabError(f"{kind} document field 'datum' must be a string, got {text!r}")
    return parse_datum_text(text)


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
        datum = _datum(doc, "iet")
        lengths = _per_letter(
            "iet", datum, "lengths", _object(doc["lengths"], "iet document field 'lengths'")
        )
        lengths = {a: _exact_length(a, v) for a, v in lengths.items()}
        return ExactIET.from_lengths(datum, lengths)


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
    """The branch of a record, of one of the kinds ``branch_record`` writes."""
    kind = _object(rec, "a branch record")["kind"]
    if kind == "translation":
        return Translation(*_bounds(rec))
    if kind == "affine":
        return Affine(*_bounds(rec))
    if kind == "pl":
        return PiecewiseLinear(tuple(_pair(p, "nodes") for p in _list(rec, "nodes", "[x, y] pairs")))
    if kind == "smooth":
        return SmoothParam(*_bounds(rec), _number(rec["k"], "field 'k'"))
    if kind == "chain":
        parts = _list(rec, "parts", "branch records")
        if any(isinstance(p, dict) and p.get("kind") == "chain" for p in parts):
            raise GietlabError("unknown branch kind 'chain' in a chain")  # the writer nests none
        return Chain(tuple(branch_from_record(p) for p in parts), *_bounds(rec))
    raise GietlabError(f"unknown branch kind {kind!r}")


def _list(rec: dict, key: str, what: str) -> list:
    """A branch record's ``key`` entry, which must be a list of ``what``."""
    value = rec[key]
    if not isinstance(value, list):
        raise GietlabError(f"field {key!r} must be a list of {what}, got {value!r}")
    return value


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
        datum = _datum(doc, "giet")
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


def _end_json(x, scale) -> str:
    """The point ``x / scale`` as JSON text.  An ``int`` ``x`` is a point of
    an integer grid with ``scale`` points per unit, written as the reduced
    ``"p/q"`` of ``x / scale``: ``0`` is ``"0/1"``, as ``Fraction(0)`` is.
    A float is divided by ``scale``, and a ``Fraction`` over ``scale`` is
    its ``"p/q"``."""
    if type(x) is float:
        return float.__repr__(x / scale)
    if type(x) is int:
        g = math.gcd(x, scale)
        return f'"{x // g}/{scale // g}"'
    x = x / scale
    return f'"{x.numerator}/{x.denominator}"'


def partition_pieces(p: DynamicalPartition, total, labels, scale=1) -> list:
    """The partition document as JSON text in pieces, one per atom, written
    straight from the atoms and their ``labels``: ``dump`` writes them a
    chunk at a time, so the text is never held whole.

    Joined, the pieces are ``json.dumps(doc, sort_keys=True)`` of the
    document ``{"kind": "partition", "order", "total", "atoms"}`` whose
    atoms are ``{"left", "right", "letter", "index", "label"}``.  The atom
    ends and ``total`` are points of a grid with ``scale`` points per unit,
    each written as ``x / scale`` (``_end_json``): the ``int`` ends of an
    exact map on its integer grid as reduced ``"p/q"`` strings over its
    denominator, a fraction as its ``"p/q"``, a float as a float.  Each
    atom's piece is made once, led by its separator.
    """
    enc = json.encoder.encode_basestring_ascii
    letters = {a: enc(a) for a in p.path.source.alphabet}
    pieces = ['{"atoms": [']
    sep = ""
    prev_hi = right = None
    for (lo, hi, letter, index), label in zip(p.atoms, labels):
        # a left end equal to the last right end takes its text (not at 0,
        # as -0.0 prints apart)
        left = right if lo == prev_hi and lo else _end_json(lo, scale)
        prev_hi, right = hi, _end_json(hi, scale)
        pieces.append(f'{sep}{{"index": {index}, "label": {enc(label)}, "left": {left}, '
                      f'"letter": {letters[letter]}, "right": {right}}}')
        sep = ", "
    pieces.append(f'], "kind": "partition", "order": {p.order}, '
                  f'"total": {_end_json(total, scale)}}}')
    return pieces


def partition_from_document(doc: dict) -> tuple[float, list]:
    """The ``total`` and the atoms' ``(left, right, label)`` of a partition
    document, in floats, every atom checked, and the atoms checked to tile
    ``[0, total)`` as ``dynamical_partition`` checks its atoms."""
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
            "newton_steps": report.newton_steps,
            "certificate": result.certificate, "appended": result.appended,
            "tau": dict(report.tau), "deltas": [[it, d] for it, d in report.deltas]}


def load_map(path: str, kinds=("iet", "giet")):
    """Read a document whose ``kind`` is one of ``kinds``: an ``ExactIET``,
    a ``Giet``, or a partition's ``(total, atoms)``."""
    *rest, last = map(repr, kinds)
    accepted = f"{', '.join(rest)} or {last}" if rest else last
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise GietlabError(f"cannot read {path} as JSON: {exc}") from None
    kind = _object(doc, f"the {accepted} document in {path}").get("kind")
    if kind not in kinds:
        raise GietlabError(f"expected a document of kind {accepted}, got kind {kind!r}")
    if kind == "iet":
        return iet_from_document(doc)
    if kind == "giet":
        return giet_from_document(doc)
    return partition_from_document(doc)


def dump(doc: dict | list, path: str | None) -> None:
    """Write ``doc`` as one line of JSON with sorted keys to ``path``, or to
    stdout when ``path`` is None; a ``list`` is that text in ``str`` pieces
    (``partition_pieces``), never joined whole.

    No ``indent``: with it, ``json`` falls back to its pure-Python encoder.
    """
    pieces = doc if isinstance(doc, list) else [json.dumps(doc, sort_keys=True)]
    with open(path, "w") if path else nullcontext(sys.stdout) as fh:
        # 1024 pieces (about 100 kB of a partition) per write: a write per
        # piece, or one of the whole text, takes about twice as long
        fh.writelines("".join(pieces[i:i + 1024]) for i in range(0, len(pieces), 1024))
        fh.write("\n")  # not joined on: that copies a document of megabytes
