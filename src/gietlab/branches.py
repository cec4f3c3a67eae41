"""Monotone branch primitives for generalized interval exchanges.

Each branch is a strictly increasing continuous bijection between two
right-open intervals, evaluable on the closure of its domain.  Closed-form
inverses exist for all primitive kinds, and a chain undoes its parts in
reverse order, so every inverse is exact up to rounding.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

EPS_BRANCH = 1e-12


class Branch:
    """Common interface: ``domain``/``range_`` as (lo, hi) pairs, eval, inverse."""

    domain: tuple[float, float]
    range_: tuple[float, float]

    def eval(self, x: float) -> float:
        raise NotImplementedError

    def inverse(self, y: float) -> float:
        raise NotImplementedError

    def __call__(self, x: float) -> float:
        return self.eval(x)

    def validate(self, samples: int = 16, eps: float = EPS_BRANCH) -> None:
        """Spot-check monotonicity, endpoint matching and inverse consistency."""
        a, b = self.domain
        c, d = self.range_
        assert b > a and d > c, f"degenerate branch {self.domain} -> {self.range_}"
        xs = [a + (b - a) * i / samples for i in range(samples + 1)]
        ys = [self.eval(x) for x in xs]
        for y0, y1 in zip(ys, ys[1:]):
            assert y1 > y0, "branch is not strictly increasing"
        assert abs(ys[0] - c) <= eps and abs(ys[-1] - d) <= eps, "range endpoints drift"
        for x in xs[1:-1]:
            assert abs(self.inverse(self.eval(x)) - x) <= max(eps, 1e-9 * (b - a)), \
                "inverse round-trip drift"


@dataclass(frozen=True)
class Translation(Branch):
    domain: tuple[float, float]
    range_: tuple[float, float]

    def eval(self, x):
        return x + (self.range_[0] - self.domain[0])

    def inverse(self, y):
        return y - (self.range_[0] - self.domain[0])


@dataclass(frozen=True)
class Affine(Branch):
    domain: tuple[float, float]
    range_: tuple[float, float]

    @property
    def slope(self) -> float:
        return (self.range_[1] - self.range_[0]) / (self.domain[1] - self.domain[0])

    def eval(self, x):
        return self.range_[0] + self.slope * (x - self.domain[0])

    def inverse(self, y):
        return self.domain[0] + (y - self.range_[0]) / self.slope


@dataclass(frozen=True)
class PiecewiseLinear(Branch):
    """Linear interpolation through ``nodes``; first and last node fix domain and range."""

    nodes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        xs = [p[0] for p in self.nodes]
        ys = [p[1] for p in self.nodes]
        assert len(self.nodes) >= 2
        assert all(x1 > x0 for x0, x1 in zip(xs, xs[1:])), "node x must increase"
        assert all(y1 > y0 for y0, y1 in zip(ys, ys[1:])), "node y must increase"

    @property
    def domain(self):
        return (self.nodes[0][0], self.nodes[-1][0])

    @property
    def range_(self):
        return (self.nodes[0][1], self.nodes[-1][1])

    def _segment(self, value, coord):
        keys = [p[coord] for p in self.nodes[1:-1]]
        return bisect_right(keys, value)

    def eval(self, x):
        i = self._segment(x, 0)
        (x0, y0), (x1, y1) = self.nodes[i], self.nodes[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def inverse(self, y):
        i = self._segment(y, 1)
        (x0, y0), (x1, y1) = self.nodes[i], self.nodes[i + 1]
        return x0 + (x1 - x0) * (y - y0) / (y1 - y0)


@dataclass(frozen=True)
class SmoothParam(Branch):
    """One-parameter exponential nonlinearity rescaled onto (domain, range).

    The core map is ``t -> (e^{kt} - 1) / (e^k - 1)`` on [0, 1]; ``k = 0``
    degenerates to the affine branch.
    """

    domain: tuple[float, float]
    range_: tuple[float, float]
    k: float = 1.0

    def eval(self, x):
        a, b = self.domain
        c, d = self.range_
        t = (x - a) / (b - a)
        s = t if self.k == 0.0 else math.expm1(self.k * t) / math.expm1(self.k)
        return c + (d - c) * s

    def inverse(self, y):
        a, b = self.domain
        c, d = self.range_
        s = (y - c) / (d - c)
        t = s if self.k == 0.0 else math.log1p(s * math.expm1(self.k)) / self.k
        return a + (b - a) * t


@dataclass(frozen=True)
class Window(Branch):
    """An existing branch viewed on a subinterval of its domain."""

    base: Branch
    domain: tuple[float, float]
    range_: tuple[float, float]

    def eval(self, x):
        return self.base.eval(x)

    def inverse(self, y):
        return self.base.inverse(y)


@dataclass(frozen=True)
class Chain(Branch):
    """Composition of branches, first element applied first.

    Induction composes neighbouring branches into chains, and a deformation
    wraps each branch as ``(inner affine, branch, outer affine)``.
    """

    parts: tuple[Branch, ...]

    def __post_init__(self):
        assert self.parts

    @property
    def domain(self):
        return self.parts[0].domain

    @property
    def range_(self):
        return self.parts[-1].range_

    def eval(self, x):
        for part in self.parts:
            x = part.eval(x)
        return x

    def inverse(self, y):
        for part in reversed(self.parts):
            y = part.inverse(y)
        return y


def restrict(branch: Branch, lo: float, hi: float) -> Branch:
    """The same map on a subinterval ``[lo, hi)`` of its domain."""
    c, d = branch.eval(lo), branch.eval(hi)
    if isinstance(branch, Translation):
        return Translation((lo, hi), (c, d))
    if isinstance(branch, Affine):
        return Affine((lo, hi), (c, d))
    return Window(branch, (lo, hi), (c, d))
