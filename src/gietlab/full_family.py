"""The explicit deformation operator and its boundary degenerations.

Given a unit-interval GIET ``f`` and a simplex vector ``tau``, the operator
conjugates ``f`` by two piecewise-affine changes of variable so that the
critical values of the result land exactly at the positions linearly marked
by ``tau`` (consecutive partial sums along the bottom row).  The image slopes
``phi`` act on the bottom intervals, the domain slopes ``psi = phi / rescale``
on the top ones.  Applying the operator twice collapses: the second parameter
wins, so each ``f`` spans a full parameter family.

Each deformed branch is the original branch rescaled onto its new top and
bottom intervals (``Branch.rescaled``): a smooth branch stays smooth, a
piecewise-linear one keeps its nodes, translations and affine maps become
affine, and a chain gains one affine change of variable at each end.  So
deforming a deformed map does not nest branches.

On the closed simplex, letters with ``tau = 0`` collapse to points: the
result is a degeneration made of a reduced-alphabet GIET plus one singular
point per removed letter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .combinatorics import CombinatorialDatum, reduction
from .errors import AllZero, DatumMismatch, DegenerateTau, GietlabError
from .giet import Giet


def _tau_dict(datum: CombinatorialDatum, tau) -> dict:
    """``tau`` as a float per letter; a NaN or infinite entry is an error."""
    values = [tau[a] for a in datum.alphabet] if isinstance(tau, dict) else tau
    tau = dict(zip(datum.alphabet, map(float, values)))
    if not all(map(math.isfinite, tau.values())):
        raise DegenerateTau(f"tau entries must be finite numbers, got {tau}")
    return tau


@dataclass(frozen=True)
class FamilySlopes:
    """Per-letter image slopes, the rescaling factor, and domain slopes."""

    phi: dict
    rescale: float
    psi: dict


def _positive_tau(datum: CombinatorialDatum, tau) -> dict:
    tau = _tau_dict(datum, tau)
    if any(v <= 0 for v in tau.values()):
        raise DegenerateTau(f"tau must be strictly positive, got {tau}")
    return tau


def slopes(f: Giet, tau) -> FamilySlopes:
    """Slope data of the deformation of ``f`` by ``tau`` (open simplex)."""
    return _slopes_closed(f, _positive_tau(f.datum, tau))


def _slopes_closed(f: Giet, tau: dict) -> FamilySlopes:
    if not abs(f.length - 1.0) <= 1e-9:
        raise GietlabError(f"deformations act on unit-interval maps, got length {f.length}")
    phi = {}
    for a, lo, hi in f.bottom_intervals():
        phi[a] = tau[a] / (hi - lo)
    rescale = sum(phi[a] * (hi - lo) for a, lo, hi in f.top_intervals())
    psi = {a: phi[a] / rescale for a in f.datum.alphabet}
    return FamilySlopes(phi, rescale, psi)


def _deformed(f: Giet, tau: dict, sl: FamilySlopes, keep) -> tuple[dict, dict, dict]:
    """Breakpoints and branches of the deformed map, restricted to ``keep``.

    Top breakpoints come for every letter: a collapsed letter's is the point
    its top interval shrinks to.
    """
    datum = f.datum
    top_breaks, bottom_breaks, branches = {}, {}, {}
    acc = 0.0
    for a, lo, hi in f.top_intervals():
        top_breaks[a] = acc
        acc += sl.psi[a] * (hi - lo)
    acc = 0.0
    for a in datum.bottom:
        if a in keep:
            bottom_breaks[a] = acc
            acc += tau[a]
    for a, lo, hi in f.top_intervals():
        if a not in keep:
            continue
        new_dom = (top_breaks[a], top_breaks[a] + sl.psi[a] * (hi - lo))
        new_rng = (bottom_breaks[a], bottom_breaks[a] + tau[a])
        branches[a] = f.branches[a].rescaled(new_dom, new_rng)
    return top_breaks, bottom_breaks, branches


def apply(f: Giet, tau) -> Giet:
    """Deform ``f`` so its critical values sit at the tau partial sums.

    Every output branch is the branch of ``f`` rescaled onto its new
    intervals, so the deformation preserves branch regularity.
    """
    tau = _positive_tau(f.datum, tau)
    sl = _slopes_closed(f, tau)
    top_breaks, bottom_breaks, branches = _deformed(f, tau, sl, set(f.datum.alphabet))
    return Giet(f.datum, 1.0, top_breaks, bottom_breaks, branches)


@dataclass(frozen=True)
class Degeneration:
    """Limit object at the simplex boundary: a reduced GIET plus singular points."""

    datum: CombinatorialDatum
    reduced_datum: CombinatorialDatum
    regular: Giet
    singular: dict

    @property
    def removed(self):
        return tuple(sorted(self.singular))


def boundary_apply(f: Giet, tau) -> Degeneration:
    """Deformation at a boundary parameter: zero entries collapse letters.

    A collapsed letter leaves the singular point its branch graph shrinks to:
    the image of its critical point under the (now non-injective) domain
    change, paired with the tau partial sum below it along the bottom row.
    Both coordinates land on breakpoints of the regular part or at 1.
    """
    tau = _tau_dict(f.datum, tau)
    if any(v < 0 for v in tau.values()):
        raise DegenerateTau(f"tau must be non-negative, got {tau}")
    zeros = {a for a, v in tau.items() if v == 0.0}
    if not zeros:
        raise DegenerateTau("boundary deformation needs at least one zero entry")
    if len(zeros) == f.datum.d:
        raise AllZero("tau vanishes identically")
    keep = set(f.datum.alphabet) - zeros
    sl = _slopes_closed(f, tau)
    top_breaks, bottom_breaks, branches = _deformed(f, tau, sl, keep)
    reduced = reduction(f.datum, keep)
    regular = Giet(reduced, 1.0, {a: top_breaks[a] for a in keep}, bottom_breaks, branches)
    singular = {}
    for a in zeros:
        x = top_breaks[a]
        y = sum(tau[c] for c in f.datum.alphabet if f.datum.pi_b(c) <= f.datum.pi_b(a))
        singular[a] = (x, y)
    return Degeneration(f.datum, reduced, regular, singular)


def extended_distance(a, b, samples: int = 64) -> float:
    """Sampled graph-Hausdorff distance, summed over letters, between two GIETs
    or degenerations: a collapsed letter compares as its singular point.

    Between two GIETs the approximation error is bounded by the largest gap
    between consecutive sample points along either graph.
    """
    if a.datum != b.datum:
        raise DatumMismatch(f"{a.datum} != {b.datum}")

    def component(obj, letter):
        if isinstance(obj, Degeneration):
            if letter in obj.singular:
                return [obj.singular[letter]]
            obj = obj.regular
        return _graph(obj, letter, samples)

    return sum(_hausdorff(component(a, x), component(b, x)) for x in a.datum.alphabet)


def _graph(g: Giet, letter: str, samples: int):
    """``samples + 1`` evenly spaced points on the graph of one branch."""
    br = g.branches[letter]
    lo, hi = br.domain
    xs = [lo + (hi - lo) * i / samples for i in range(samples + 1)]
    return [(x, br.eval(x)) for x in xs]


def _hausdorff(p, q):
    def one_sided(src, dst):
        worst = 0.0
        for x, y in src:
            best = min((x - u) ** 2 + (y - v) ** 2 for u, v in dst)
            worst = max(worst, best)
        return worst ** 0.5

    return max(one_sided(p, q), one_sided(q, p))
