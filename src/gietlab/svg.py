"""SVG rendering of interval partitions and GIET graphs.

Fixed coordinate scale: 1000 SVG units per unit interval, so outputs are
diff-able across runs.  It only draws, and refuses a figure too large for
floats: ``fileio`` reads and checks documents.
"""

from __future__ import annotations

import math
from html import escape

from .errors import GietlabError

SCALE = 1000.0
MARGIN = 40.0
MIN_GAP = 0.5  # least distance in SVG units between two drawn partition boundaries
FONT_SIZE = 16
CHAR_WIDTH = 0.6  # of the font size, for a monospace glyph
ARC_SAMPLES = 64  # segments of each branch's arc in a GIET plot


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg(total: float, height: float, body: list[str]) -> str:
    """The document of a figure over ``[0, total)``, with a margin on each
    side; a width past the largest float is a ``GietlabError``."""
    width = total * SCALE + 2 * MARGIN
    if width == math.inf:
        raise GietlabError(f"total length {total} is too long to draw at {SCALE:g} units per unit")
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_partition(total: float, atoms) -> str:
    """Horizontal strip of labeled cells over ``[0, total)``, from the atoms'
    ``(left, right, label)`` in left-to-right order.

    The strip draws only what it can resolve: a boundary at least ``MIN_GAP``
    units from the last one drawn, or the left end of an atom at least
    ``MIN_GAP`` units wide.  A cell between two drawn boundaries that holds
    one atom shows its label where the label fits; a cell that holds several
    is one shaded band whose title gives their count.  A band is under
    ``2 * MIN_GAP`` units wide, too narrow for any text.
    """
    cells = []  # [x, right end in SVG units, label, atom count]
    for lo, hi, label in atoms:
        x = MARGIN + lo * SCALE
        right = MARGIN + hi * SCALE
        if cells and abs(x - cells[-1][0]) < MIN_GAP and right - x < MIN_GAP:
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
        body.append(f'<line x1="{x:.2f}" y1="40" x2="{x:.2f}" y2="80" '
                    f'stroke="black" stroke-width="0.75"/>')
        text = str(label)
        if count == 1 and len(text) * CHAR_WIDTH * FONT_SIZE <= w:
            body.append(
                f'<text x="{x + w / 2:.2f}" y="66" font-size="{FONT_SIZE}" '
                f'text-anchor="middle" font-family="monospace">{escape(text, quote=False)}</text>'
            )
    return _svg(total, 120.0, body)


def render_giet(g) -> str:
    """Square plot of a ``Giet`` on ``[0, length)``, one monotone arc per branch."""
    size = g.length * SCALE
    height = size + 2 * MARGIN

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
        for i in range(ARC_SAMPLES + 1):
            x = lo + (hi - lo) * i / ARC_SAMPLES
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
    return _svg(g.length, height, body)

