"""Finite-order conjugating maps between GIETs and IETs sharing a path prefix.

Two maps with the same induction path to depth r generate combinatorially
equivalent order-r partitions; matching like-labeled atom endpoints and
interpolating linearly gives an increasing map h with ``h o f`` close to
``T o h``.  Both maps send an atom ``(alpha, i)`` below its tower top onto
``(alpha, i + 1)``, so there ``|h(f(x)) - T(h(x))|`` is at most the largest
target atom.  A tower top returns to the base, which is not one atom; there
the defect can exceed every target atom, and no bound is derived for it.
"""

from __future__ import annotations

from operator import sub

from .branches import PiecewiseLinear
from .combinatorics import sigma_and_cyclicity
from .errors import GietlabError
from .giet import dynamical_partition, giet_from_iet, partitions_equivalent
from . import thurston
from .thurston import build_reference


def build_semiconjugacy(f, T, r: int) -> PiecewiseLinear:
    """Node map from order-r atoms of ``f`` to like-labeled atoms of the
    exact IET ``T``: the increasing piecewise-linear map of [0, 1) onto
    itself through the atoms' left ends.  A node whose x or y does not
    increase (two ends that round to one float) is skipped.

    ``T`` is partitioned on its integer grid (``ExactIET.on_integer_grid``),
    so each atom's left end is an ``int`` ``lo`` and its y is ``lo / D``:
    ``int`` true division rounds correctly, to the bits of
    ``float(Fraction(lo, D))``, and no ``Fraction`` is made.

    Each map is induced once, and refused (a ``GietlabError``) once its N
    passes ``thurston.MAX_REFERENCE_POINTS``.  When ``f``'s path has all
    ``r`` arrows and ends at a cyclic datum, each partition is laid in the
    cells of its reference (``RefConfig.cells``) where its towers fit them,
    and sorted otherwise (``dynamical_partition``); either way the
    partitions are compared label by label.

    Both maps must share the induction path to depth ``r``.
    """
    cap = thurston.MAX_REFERENCE_POINTS
    induction = f.rauzy_path(r, max_points=cap)
    path = induction.path
    cells = None
    if len(path) == r and sigma_and_cyclicity(path.target)[1]:
        cells = build_reference(path).cells
    pf = dynamical_partition(f, r, induction, cells)
    grid, D = T.on_integer_grid()
    pt = dynamical_partition(grid, r, grid.rauzy_path(r, max_points=cap), cells)
    if not partitions_equivalent(pf, pt):
        raise GietlabError(f"order-{r} partitions are not combinatorially equivalent")
    nodes = [(0.0, 0.0)]
    for af, at in zip(pf.atoms, pt.atoms):
        x, y = float(af[0]), at[0] / D
        if x > nodes[-1][0] and y > nodes[-1][1]:
            nodes.append((x, y))
    nodes.append((1.0, 1.0))
    return PiecewiseLinear(tuple(nodes))


def residual(h: PiecewiseLinear, f, T, sample_count: int = 128) -> float:
    """Largest conjugation defect ``|h(f(x)) - T(h(x))|`` over sample points.

    Samples are the midpoints of h's defining cells plus a uniform grid.
    Both lists are sorted, so ``defect`` sorts them by one merge; a point
    in both is evaluated twice, which changes no maximum.
    """
    xs = [0.5 * (x0 + x1) for (x0, _), (x1, _) in zip(h.nodes, h.nodes[1:])]
    xs += [(i + 0.5) / sample_count for i in range(sample_count)]
    return defect(h, f, T, xs)


def defect(h: PiecewiseLinear, f, T, xs) -> float:
    """Largest ``|h(f(x)) - T(h(x))|`` over the points ``xs``, with ``T``
    evaluated through its float copy, ``giet_from_iet(T)``.

    The points are sorted once, and each map evaluates all of them per
    branch (``eval_many``, ``Giet.eval_sorted``) with the bits of its scalar
    ``eval``, so the value is the pointwise maximum's to the last bit.
    """
    xs = sorted(xs)
    hf = h.eval_many(f.eval_sorted(xs))
    th = giet_from_iet(T).eval_sorted(h.eval_many(xs))
    return max(map(abs, map(sub, hf, th)))
