"""Monotone branch primitives for generalized interval exchanges.

Each branch is a strictly increasing continuous bijection between two
right-open intervals, evaluable on the closure of its domain.  Closed-form
inverses exist for all primitive kinds, and a chain undoes its parts in
reverse order, so every inverse is exact up to rounding.

A branch of an induced map is a first-return map: a composition of
restrictions of the original branches.  It is one flat ``Chain`` of
primitives viewed on a subinterval, so branches never nest.  ``compose``
joins two branches into one chain, ``restrict`` cuts a branch to a
subinterval whose image endpoints the caller already knows, and ``rescaled``
moves a branch onto new domain and range intervals: a primitive stays one
branch of its own kind (translations become affine), and a chain gains one
affine part at each end.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import GietlabError

EPS_BRANCH = 1e-12


class Branch:
    """Common interface: ``domain``/``range_`` as (lo, hi) pairs, eval, inverse,
    and ``rescaled(domain, range_)``, the map ``outer o self o inner`` from
    ``domain`` onto ``range_`` for the increasing affine ``inner`` and ``outer``."""

    domain: tuple[float, float]
    range_: tuple[float, float]

    def eval(self, x: float) -> float:
        raise NotImplementedError

    def inverse(self, y: float) -> float:
        raise NotImplementedError

    def inverse_many(self, ys) -> list:
        """``[self.inverse(y) for y in ys]``.  ``SmoothParam`` overrides it to
        hoist its constants out of the loop and keep the scalar expression,
        so the results are bit-identical."""
        return [self.inverse(y) for y in ys]

    def validate(self, samples: int = 16, eps: float = EPS_BRANCH) -> None:
        """Spot-check monotonicity, endpoint matching and inverse consistency."""
        a, b = self.domain
        c, d = self.range_
        name = f"{type(self).__name__} branch {self.domain} -> {self.range_}"
        if not (b > a and d > c):
            raise GietlabError(f"{name} is degenerate")
        xs = [a + (b - a) * i / samples for i in range(samples + 1)]
        ys = [self.eval(x) for x in xs]
        for x, y0, y1 in zip(xs[1:], ys, ys[1:]):
            if not y1 > y0:
                raise GietlabError(f"{name} is not strictly increasing at x = {x}")
        if not (abs(ys[0] - c) <= eps and abs(ys[-1] - d) <= eps):
            raise GietlabError(f"{name} maps its domain onto [{ys[0]}, {ys[-1]}]")
        for x in xs[1:-1]:
            if not abs(self.inverse(self.eval(x)) - x) <= max(eps, 1e-9 * (b - a)):
                raise GietlabError(f"{name} inverse does not round-trip x = {x}")


@dataclass(frozen=True)
class Translation(Branch):
    domain: tuple[float, float]
    range_: tuple[float, float]

    def eval(self, x):
        return x + (self.range_[0] - self.domain[0])

    def inverse(self, y):
        return y - (self.range_[0] - self.domain[0])

    def rescaled(self, domain, range_):
        return Affine(domain, range_)


@dataclass(frozen=True)
class Affine(Branch):
    domain: tuple[float, float]
    range_: tuple[float, float]
    slope: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slope = (self.range_[1] - self.range_[0]) / (self.domain[1] - self.domain[0])
        object.__setattr__(self, "slope", slope)

    def eval(self, x):
        return self.range_[0] + self.slope * (x - self.domain[0])

    def inverse(self, y):
        return self.domain[0] + (y - self.range_[0]) / self.slope

    def rescaled(self, domain, range_):
        return Affine(domain, range_)


@dataclass(frozen=True)
class PiecewiseLinear(Branch):
    """Linear interpolation through ``nodes``; first and last node fix domain and range."""

    nodes: tuple[tuple[float, float], ...]
    _xs: list = field(init=False, repr=False, compare=False)
    _ys: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise GietlabError(f"a pl branch needs at least two nodes, got {len(self.nodes)}")
        xs = [p[0] for p in self.nodes]
        ys = [p[1] for p in self.nodes]
        for coord, values in (("x", xs), ("y", ys)):
            for i, (v0, v1) in enumerate(zip(values, values[1:])):
                if not v1 > v0:
                    raise GietlabError(
                        f"pl branch node {coord} must increase: node {i + 1} has {v1} after {v0}"
                    )
        # interior nodes only: bisecting them gives the segment index
        object.__setattr__(self, "_xs", xs[1:-1])
        object.__setattr__(self, "_ys", ys[1:-1])

    @property
    def domain(self):
        return (self.nodes[0][0], self.nodes[-1][0])

    @property
    def range_(self):
        return (self.nodes[0][1], self.nodes[-1][1])

    def eval(self, x):
        i = bisect_right(self._xs, x)
        (x0, y0), (x1, y1) = self.nodes[i], self.nodes[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def inverse(self, y):
        i = bisect_right(self._ys, y)
        (x0, y0), (x1, y1) = self.nodes[i], self.nodes[i + 1]
        return x0 + (x1 - x0) * (y - y0) / (y1 - y0)

    def rescaled(self, domain, range_):
        inner = Affine(self.domain, domain)
        outer = Affine(self.range_, range_)
        inside = tuple((inner.eval(x), outer.eval(y)) for x, y in self.nodes[1:-1])
        return PiecewiseLinear(((domain[0], range_[0]),) + inside + ((domain[1], range_[1]),))


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

    def inverse_many(self, ys):
        a, b = self.domain
        c, d = self.range_
        w, h, k = b - a, d - c, self.k
        if k == 0.0:
            return [a + w * ((y - c) / h) for y in ys]
        em, log1p = math.expm1(k), math.log1p
        return [a + w * (log1p((y - c) / h * em) / k) for y in ys]

    def rescaled(self, domain, range_):
        return SmoothParam(domain, range_, self.k)


@dataclass(frozen=True, init=False)
class Chain(Branch):
    """Composition of primitive branches, first part applied first, from
    ``domain`` onto ``range_``.

    The bounds default to the first part's domain and the last part's range;
    a restricted chain keeps its parts and narrows them.  A part that is
    itself a chain is spliced in, so a chain never holds another.
    """

    parts: tuple[Branch, ...]
    domain: tuple[float, float]
    range_: tuple[float, float]

    def __init__(self, parts, domain=None, range_=None):
        if not parts:
            raise GietlabError("a chain needs at least one part")
        flat = []
        for p in parts:
            if isinstance(p, Chain):
                flat.extend(p.parts)
            else:
                flat.append(p)
        object.__setattr__(self, "parts", tuple(flat))
        object.__setattr__(self, "domain", domain or parts[0].domain)
        object.__setattr__(self, "range_", range_ or parts[-1].range_)

    def eval(self, x):
        for part in self.parts:
            x = part.eval(x)
        return x

    def inverse(self, y):
        for part in reversed(self.parts):
            y = part.inverse(y)
        return y

    def rescaled(self, domain, range_):
        return Chain((Affine(domain, self.domain), self, Affine(self.range_, range_)))


def compose(first: Branch, then: Branch) -> Chain:
    """The branch ``then o first``: one chain holding the parts of both.

    >>> t = Translation((0.0, 0.5), (0.5, 1.0))
    >>> squeeze = Affine((0.5, 1.0), (0.0, 0.25))
    >>> c = compose(compose(t, squeeze), restrict(t, 0.0, 0.25, 0.5, 0.75))
    >>> [type(p).__name__ for p in c.parts], c.domain, c.range_
    (['Translation', 'Affine', 'Translation'], (0.0, 0.5), (0.5, 0.75))
    >>> c.eval(0.25), c.inverse(0.625)
    (0.625, 0.25)
    >>> restrict(c, 0.0, 0.25, 0.5, 0.625).parts == c.parts
    True
    """
    return Chain((first, then))


def restrict(branch: Branch, lo: float, hi: float, c: float, d: float) -> Branch:
    """The same map on a subinterval ``[lo, hi)`` of its domain.

    ``[c, d)`` is the image of ``[lo, hi)``, which the caller already knows;
    it becomes the new range without evaluating the branch again.
    """
    if isinstance(branch, (Translation, Affine)):
        return type(branch)((lo, hi), (c, d))
    return Chain((branch,), (lo, hi), (c, d))
