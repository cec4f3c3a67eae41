"""SVG rendering of interval partitions and GIET graphs.

Fixed coordinate scale: 1000 SVG units per unit interval, so outputs are
diff-able across runs.
"""

from __future__ import annotations

from html import escape

from .errors import GietlabError

SCALE = 1000.0
MARGIN = 40.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_partition(doc: dict) -> str:
    """Horizontal strip of labeled cells from a partition document."""
    total = eval_frac(doc["total"])
    height = 120.0
    body = [
        f'<rect x="{_fmt(MARGIN)}" y="{_fmt(40.0)}" width="{_fmt(total * SCALE)}" '
        f'height="40" fill="none" stroke="black" stroke-width="1.5"/>'
    ]
    atoms = doc["atoms"]
    if not isinstance(atoms, list):
        raise GietlabError(
            f"partition document field 'atoms' must be a list, got {type(atoms).__name__}"
        )
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise GietlabError(
                f"partition document field 'atoms': entry {i} must be a JSON object, "
                f"got {type(atom).__name__}"
            )
        left = eval_frac(atom["left"])
        right = eval_frac(atom["right"])
        x = MARGIN + left * SCALE
        w = (right - left) * SCALE
        # one entry per atom, formatted inline as ``_fmt`` does: atoms can
        # number tens of thousands
        body.append(
            f'<line x1="{x:.2f}" y1="40" x2="{x:.2f}" y2="80" '
            f'stroke="black" stroke-width="0.75"/>\n'
            f'<text x="{x + w / 2:.2f}" y="66" font-size="16" text-anchor="middle" '
            f'font-family="monospace">{escape(str(atom["label"]), quote=False)}</text>'
        )
    return _svg(total * SCALE + 2 * MARGIN, height, body)


def render_giet(doc: dict, samples: int = 64) -> str:
    """Unit-square plot with one monotone arc per branch from a GIET document."""
    from .fileio import giet_from_document

    g = giet_from_document(doc)
    size = g.length * SCALE
    width = height = size + 2 * MARGIN

    def X(x):
        return MARGIN + x * SCALE

    def Y(y):
        return MARGIN + (g.length - y) * SCALE

    body = [
        f'<rect x="{_fmt(MARGIN)}" y="{_fmt(MARGIN)}" width="{_fmt(size)}" '
        f'height="{_fmt(size)}" fill="none" stroke="black" stroke-width="1.5"/>'
    ]
    for a, lo, hi in g.top_intervals():
        body.append(
            f'<line x1="{_fmt(X(lo))}" y1="{_fmt(MARGIN)}" x2="{_fmt(X(lo))}" '
            f'y2="{_fmt(MARGIN + size)}" stroke="gray" stroke-width="0.5" '
            f'stroke-dasharray="6 4"/>'
        )
        br = g.branches[a]
        pts = []
        for i in range(samples + 1):
            x = lo + (hi - lo) * i / samples
            pts.append(f"{_fmt(X(x))},{_fmt(Y(br.eval(x)))}")
        body.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="black" '
            f'stroke-width="2"/>'
        )
        body.append(
            f'<circle cx="{_fmt(X(lo))}" cy="{_fmt(Y(br.eval(lo)))}" r="4" fill="black"/>'
        )
        body.append(
            f'<circle cx="{_fmt(X(hi))}" cy="{_fmt(Y(br.eval(hi)))}" r="4" fill="none" '
            f'stroke="black" stroke-width="1.5"/>'
        )
        body.append(
            f'<text x="{_fmt(X((lo + hi) / 2))}" y="{_fmt(MARGIN + size + 24)}" '
            f'font-size="16" text-anchor="middle" font-family="monospace">{escape(a, quote=False)}</text>'
        )
    return _svg(width, height, body)


def eval_frac(value) -> float:
    """Numeric value of a document number: a float, or a "p/q" string divided
    as two integers, which is correctly rounded at any size."""
    try:
        if isinstance(value, str) and "/" in value:
            num, den = value.split("/")
            return int(num) / int(den)
        return float(value)
    except (ArithmeticError, TypeError, ValueError):
        raise GietlabError(f"cannot read the number {value!r}") from None
