"""Finite-order conjugating maps between GIETs and IETs sharing a path prefix.

Two maps with the same induction path to depth r generate combinatorially
equivalent order-r partitions; matching like-labeled atom endpoints and
interpolating linearly gives a monotone map h with ``h o f`` close to
``T o h``.  Both maps send an atom ``(alpha, i)`` below its tower top onto
``(alpha, i + 1)``, so there ``|h(f(x)) - T(h(x))|`` is at most the largest
target atom.  A tower top returns to the base, which is not one atom; there
the defect can exceed every target atom, and no bound is derived for it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import GietlabError, PathMismatch
from .giet import dynamical_partition, giet_from_iet


@dataclass(frozen=True)
class MonotonePLMap:
    """Piecewise-linear non-decreasing surjection of [0, 1) onto itself."""

    nodes: tuple[tuple[float, float], ...]
    _xs: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        last = len(self.nodes) - 1
        for i, end in ((0, (0.0, 0.0)), (last, (1.0, 1.0))):
            if self.nodes[i] != end:
                raise GietlabError(f"node {i} of a monotone map is {self.nodes[i]}, not {end}")
        xs = [p[0] for p in self.nodes]
        ys = [p[1] for p in self.nodes]
        for i in range(1, last + 1):
            if not xs[i] > xs[i - 1]:
                raise GietlabError(
                    f"node x must strictly increase: node {i} has x = {xs[i]} after {xs[i - 1]}"
                )
            if not ys[i] >= ys[i - 1]:
                raise GietlabError(
                    f"node y must not decrease: node {i} has y = {ys[i]} after {ys[i - 1]}"
                )
        # interior abscissae only: bisecting them gives the segment index
        object.__setattr__(self, "_xs", xs[1:-1])

    def eval(self, x: float) -> float:
        i = bisect_right(self._xs, x)
        (x0, y0), (x1, y1) = self.nodes[i], self.nodes[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def as_table(self) -> str:
        return "\n".join(f"{x:.12f}\t{y:.12f}" for x, y in self.nodes)


def build_semiconjugacy(f, T, r: int) -> MonotonePLMap:
    """Node map from order-r atoms of ``f`` to like-labeled atoms of ``T``.

    Both maps must share the induction path to depth ``r``.
    """
    pf = dynamical_partition(f, r)
    pt = dynamical_partition(T, r)
    if pf.labels() != pt.labels():
        raise PathMismatch(f"order-{r} partitions are not combinatorially equivalent")
    nodes = [(0.0, 0.0)]
    for af, at in zip(pf.atoms, pt.atoms):
        x, y = float(af.lo), float(at.lo)
        if x > nodes[-1][0]:
            nodes.append((x, y))
    nodes.append((1.0, 1.0))
    return MonotonePLMap(tuple(nodes))


def residual(h: MonotonePLMap, f, T, sample_count: int = 128) -> float:
    """Largest conjugation defect ``|h(f(x)) - T(h(x))|`` over sample points.

    Samples are the midpoints of h's defining cells plus a uniform grid.
    """
    xs = {0.5 * (x0 + x1) for (x0, _), (x1, _) in zip(h.nodes, h.nodes[1:])}
    xs.update((i + 0.5) / sample_count for i in range(sample_count))
    return _defect(h, f, T, xs)


def _defect(h: MonotonePLMap, f, T, xs) -> float:
    """Largest ``|h(f(x)) - T(h(x))|`` over the points ``xs``, with ``T``
    evaluated through its float copy, ``giet_from_iet(T)``."""
    model = giet_from_iet(T)
    return max(abs(h.eval(float(f.eval(x))) - model.eval(h.eval(x))) for x in xs)
