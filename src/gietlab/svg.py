"""SVG rendering of interval partitions and GIET graphs.

Fixed coordinate scale: 1000 SVG units per unit interval, so outputs are
diff-able across runs.
"""

from __future__ import annotations

from html import escape

from .errors import GietlabError

SCALE = 1000.0
MARGIN = 40.0
MIN_GAP = 0.5  # least distance in SVG units between two drawn partition boundaries
FONT_SIZE = 16
CHAR_WIDTH = 0.6  # of the font size, for a monospace glyph


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_partition(doc: dict) -> str:
    """Horizontal strip of labeled cells from a partition document.

    Every atom is read and checked, but the strip draws only what it can
    resolve: a boundary at least ``MIN_GAP`` units from the last one drawn.
    A cell between two drawn boundaries that holds one atom shows its label;
    a cell that holds several is one shaded band showing their count.  A
    text is drawn only where it fits its cell.
    """
    total = eval_frac(doc["total"])
    atoms = doc["atoms"]
    if not isinstance(atoms, list):
        raise GietlabError(
            f"partition document field 'atoms' must be a list, got {type(atoms).__name__}"
        )
    cells = []  # [x, right end in SVG units, label, atom count]
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise GietlabError(
                f"partition document field 'atoms': entry {i} must be a JSON object, "
                f"got {type(atom).__name__}"
            )
        x = MARGIN + eval_frac(atom["left"]) * SCALE
        right = MARGIN + eval_frac(atom["right"]) * SCALE
        label = atom["label"]
        if cells and abs(x - cells[-1][0]) < MIN_GAP:
            cells[-1][1] = right
            cells[-1][3] += 1
        else:
            cells.append([x, right, label, 1])
    body = [
        f'<rect x="{_fmt(MARGIN)}" y="{_fmt(40.0)}" width="{_fmt(total * SCALE)}" '
        f'height="40" fill="none" stroke="black" stroke-width="1.5"/>'
    ]
    for x, right, label, count in cells:
        w = right - x
        if count > 1:
            body.append(
                f'<rect x="{x:.2f}" y="40" width="{w:.2f}" height="40" fill="#ccc">'
                f"<title>{count} atoms</title></rect>"
            )
            label = count
        body.append(f'<line x1="{x:.2f}" y1="40" x2="{x:.2f}" y2="80" '
                    f'stroke="black" stroke-width="0.75"/>')
        text = str(label)
        if len(text) * CHAR_WIDTH * FONT_SIZE <= w:
            body.append(
                f'<text x="{x + w / 2:.2f}" y="66" font-size="{FONT_SIZE}" '
                f'text-anchor="middle" font-family="monospace">{escape(text, quote=False)}</text>'
            )
    return _svg(total * SCALE + 2 * MARGIN, 120.0, body)


def render_giet(g, samples: int = 64) -> str:
    """Square plot of a ``Giet`` on ``[0, length)``, one monotone arc per branch."""
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
