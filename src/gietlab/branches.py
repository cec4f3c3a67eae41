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
from itertools import repeat

from .errors import GietlabError
from .value import Frozen

EPS_BRANCH = 1e-12


class Branch(Frozen):
    """Common interface: ``domain``/``range_`` as (lo, hi) pairs, eval, inverse,
    and ``rescaled(domain, range_)``, the map ``outer o self o inner`` from
    ``domain`` onto ``range_`` for the increasing affine ``inner`` and ``outer``.
    A branch is a frozen value, compared by its ``_fields``."""

    domain: tuple[float, float]
    range_: tuple[float, float]

    def eval(self, x: float) -> float:
        raise NotImplementedError

    def inverse(self, y: float) -> float:
        raise NotImplementedError

    def eval_many(self, xs) -> list:
        """``[self.eval(x) for x in xs]``.  ``Translation``, ``SmoothParam``
        and ``PiecewiseLinear`` override it to hoist their constants out of
        the loop and keep the scalar expression, so the results are
        bit-identical."""
        return [self.eval(x) for x in xs]

    def inverse_many(self, ys) -> list:
        """``[self.inverse(y) for y in ys]``.  ``SmoothParam`` overrides it to
        hoist its constants out of the loop and keep the scalar expression,
        so the results are bit-identical."""
        return [self.inverse(y) for y in ys]

    def inverse_slopes(self, ys) -> list:
        """The slope of the inverse at each of ``ys``."""
        raise NotImplementedError


class Translation(Branch):
    """``x + shift``.  The shift defaults to the difference of the two left
    ends; a caller that knows the displacement exactly passes it, rounded
    once, where the rounded ends would differ from it in the last bit.  It
    is neither compared nor shown."""

    _fields = ("domain", "range_")

    def __init__(self, domain, range_, shift: float | None = None):
        if shift is None:
            shift = range_[0] - domain[0]
        self.__dict__.update(domain=domain, range_=range_, shift=shift)

    def eval(self, x):
        return x + self.shift

    def eval_many(self, xs):
        shift = self.shift
        return [x + shift for x in xs]

    def inverse(self, y):
        return y - self.shift

    def inverse_slopes(self, ys):
        return [1.0] * len(ys)

    def rescaled(self, domain, range_):
        return Affine(domain, range_)


class Affine(Branch):
    _fields = ("domain", "range_")

    def __init__(self, domain, range_):
        slope = (range_[1] - range_[0]) / (domain[1] - domain[0])
        self.__dict__.update(domain=domain, range_=range_, slope=slope)

    def eval(self, x):
        return self.range_[0] + self.slope * (x - self.domain[0])

    def inverse(self, y):
        return self.domain[0] + (y - self.range_[0]) / self.slope

    def inverse_slopes(self, ys):
        return [1 / self.slope] * len(ys)

    def rescaled(self, domain, range_):
        return Affine(domain, range_)


class PiecewiseLinear(Branch):
    """Linear interpolation through ``nodes``; first and last node fix domain and range."""

    _fields = ("nodes",)

    def __init__(self, nodes: tuple[tuple[float, float], ...]):
        if len(nodes) < 2:
            raise GietlabError(f"a pl branch needs at least two nodes, got {len(nodes)}")
        xs = [p[0] for p in nodes]
        ys = [p[1] for p in nodes]
        for coord, values in (("x", xs), ("y", ys)):
            for i, (v0, v1) in enumerate(zip(values, values[1:])):
                if not v1 > v0:
                    raise GietlabError(
                        f"pl branch node {coord} must increase: node {i + 1} has {v1} after {v0}"
                    )
        # interior nodes only: bisecting them gives the segment index
        self.__dict__.update(nodes=nodes, _xs=xs[1:-1], _ys=ys[1:-1])

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

    def eval_many(self, xs):
        nodes, ys = self.nodes, []
        for x, i in zip(xs, map(bisect_right, repeat(self._xs), xs)):
            (x0, y0), (x1, y1) = nodes[i], nodes[i + 1]
            ys.append(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
        return ys

    def inverse(self, y):
        i = bisect_right(self._ys, y)
        (x0, y0), (x1, y1) = self.nodes[i], self.nodes[i + 1]
        return x0 + (x1 - x0) * (y - y0) / (y1 - y0)

    def inverse_slopes(self, ys):
        slopes = [(x1 - x0) / (y1 - y0)
                  for (x0, y0), (x1, y1) in zip(self.nodes, self.nodes[1:])]
        return [slopes[bisect_right(self._ys, y)] for y in ys]

    def rescaled(self, domain, range_):
        inner = Affine(self.domain, domain)
        outer = Affine(self.range_, range_)
        inside = tuple((inner.eval(x), outer.eval(y)) for x, y in self.nodes[1:-1])
        return PiecewiseLinear(((domain[0], range_[0]),) + inside + ((domain[1], range_[1]),))


class SmoothParam(Branch):
    """One-parameter exponential nonlinearity rescaled onto (domain, range).

    The core map is ``t -> (e^{kt} - 1) / (e^k - 1)`` on [0, 1]; ``k = 0``
    degenerates to the affine branch.  A ``k`` whose ``e^k`` overflows a
    float, above about 709.78, is a ``GietlabError``.
    """

    _fields = ("domain", "range_", "k")

    def __init__(self, domain, range_, k: float = 1.0):
        (a, b), (c, d) = domain, range_
        try:
            em = math.expm1(k)
        except OverflowError:
            raise GietlabError(
                f"k must be at most about 709.78, as e^k overflows, got {k!r}"
            ) from None
        # _consts: (a, b - a, c, d - c, k, expm1(k)) for domain (a, b) and range (c, d)
        self.__dict__.update(domain=domain, range_=range_, k=k,
                             _consts=(a, b - a, c, d - c, k, em))

    def eval(self, x):
        a, w, c, h, k, em = self._consts
        t = (x - a) / w
        s = t if k == 0.0 else math.expm1(k * t) / em
        return c + h * s

    def eval_many(self, xs):
        a, w, c, h, k, em = self._consts
        if k == 0.0:
            return [c + h * ((x - a) / w) for x in xs]
        expm1 = math.expm1
        return [c + h * (expm1(k * ((x - a) / w)) / em) for x in xs]

    def inverse(self, y):
        a, w, c, h, k, em = self._consts
        s = (y - c) / h
        t = s if k == 0.0 else math.log1p(s * em) / k
        return a + w * t

    def inverse_many(self, ys):
        a, w, c, h, k, em = self._consts
        if k == 0.0:
            return [a + w * ((y - c) / h) for y in ys]
        log1p = math.log1p
        return [a + w * (log1p((y - c) / h * em) / k) for y in ys]

    def inverse_slopes(self, ys):
        # d/dy of a + w * log1p(s * em) / k with s = (y - c) / h
        a, w, c, h, k, em = self._consts
        if k == 0.0:
            return [w / h] * len(ys)
        return [w / h * em / (k * (1 + (y - c) / h * em)) for y in ys]

    def rescaled(self, domain, range_):
        return SmoothParam(domain, range_, self.k)


class Chain(Branch):
    """Composition of primitive branches, first part applied first, from
    ``domain`` onto ``range_``.

    The bounds default to the first part's domain and the last part's range;
    a restricted chain keeps its parts and narrows them.  A part that is
    itself a chain is spliced in, so a chain never holds another.
    """

    _fields = ("parts", "domain", "range_")

    def __init__(self, parts: tuple[Branch, ...], domain=None, range_=None):
        if not parts:
            raise GietlabError("a chain needs at least one part")
        flat = []
        for p in parts:
            if isinstance(p, Chain):
                flat.extend(p.parts)
            else:
                flat.append(p)
        self.__dict__.update(parts=tuple(flat), domain=domain or parts[0].domain,
                             range_=range_ or parts[-1].range_)

    def eval(self, x):
        for part in self.parts:
            x = part.eval(x)
        return x

    def inverse(self, y):
        for part in reversed(self.parts):
            y = part.inverse(y)
        return y

    def inverse_slopes(self, ys):
        # the chain rule: each part's slope at the point it inverts
        slopes = [1.0] * len(ys)
        for part in reversed(self.parts):
            slopes = [s * t for s, t in zip(slopes, part.inverse_slopes(ys))]
            ys = part.inverse_many(ys)
        return slopes

    def rescaled(self, domain, range_):
        return Chain((Affine(domain, self.domain), self, Affine(self.range_, range_)))


def _parts(branch: Branch) -> tuple:
    """The primitive parts of ``branch``: its own if it is a chain."""
    return branch.parts if type(branch) is Chain else (branch,)


def _chain(parts: tuple, domain, range_) -> Chain:
    """``Chain(parts, domain, range_)`` for parts that hold no chain, without
    the flattening loop of ``Chain.__init__``."""
    chain = object.__new__(Chain)
    chain.__dict__.update(parts=parts, domain=domain, range_=range_)
    return chain


def compose(first: Branch, then: Branch) -> Chain:
    """The branch ``then o first`` from ``first``'s domain onto ``then``'s
    range: one chain holding the parts of both.

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
    return _chain(_parts(first) + _parts(then), first.domain, then.range_)


def restrict(branch: Branch, lo: float, hi: float, c: float, d: float) -> Branch:
    """The same map on a subinterval ``[lo, hi)`` of its domain.

    ``[c, d)`` is the image of ``[lo, hi)``, which the caller already knows;
    it becomes the new range without evaluating the branch again.
    """
    if isinstance(branch, (Translation, Affine)):
        return type(branch)((lo, hi), (c, d))
    return _chain(_parts(branch), (lo, hi), (c, d))
