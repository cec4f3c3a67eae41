"""The explicit deformation operator and its boundary degenerations.

Given a unit-interval GIET ``f`` and a simplex vector ``tau``, the operator
conjugates ``f`` by two piecewise-affine changes of variable so that the
critical values of the result land exactly at the positions linearly marked
by ``tau`` (consecutive partial sums along the bottom row).  The image slopes
``phi`` act on the bottom intervals, the domain slopes ``psi = phi / rescale``
on the top ones.  Applying the operator twice collapses: the second parameter
wins, so each ``f`` spans a full parameter family.

On the closed simplex, letters with ``tau = 0`` collapse to points: the
result is a degeneration made of a reduced-alphabet GIET plus one singular
point per removed letter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branches import Affine, Chain
from .combinatorics import CombinatorialDatum, reduction
from .errors import AllZero, DatumMismatch, DegenerateTau
from .giet import Giet, _graph, _hausdorff


def _tau_dict(datum: CombinatorialDatum, tau) -> dict:
    if isinstance(tau, dict):
        return {a: float(tau[a]) for a in datum.alphabet}
    return {a: float(v) for a, v in zip(datum.alphabet, tau)}


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
    assert abs(f.length - 1.0) <= 1e-9, "deformations act on unit-interval maps"
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
        rng = f.branches[a].range_
        new_rng = (bottom_breaks[a], bottom_breaks[a] + tau[a])
        branches[a] = Chain((Affine(new_dom, (lo, hi)), f.branches[a], Affine(rng, new_rng)))
    return top_breaks, bottom_breaks, branches


def apply(f: Giet, tau) -> Giet:
    """Deform ``f`` so its critical values sit at the tau partial sums.

    Every output branch is the chain ``(inner affine, branch of f, outer
    affine)``, so the deformation preserves branch regularity.
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
    """Graph distance extended to degenerations: collapsed letters compare as points.

    Between two GIETs this is ``giet_distance``.
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
