"""Generalized interval exchanges: pluggable branches, induction, partitions.

A ``Giet`` carries one monotone branch per letter between the top and bottom
subintervals prescribed by its datum.  Rauzy induction composes the two
rightmost branches and restricts the rest; the induced map lives on a shorter
interval, recorded in ``length``.  Dynamical partitions, their combinatorial
equivalence and the containment counts of the path matrix are computed
generically, so the exact-rational maps plug into the same code and keep
exact arithmetic all the way through.

Numeric substrate is double precision with two tolerances: ``EPS_BRANCH``
(1e-12) for branch/breakpoint consistency and ``EPS_TIE`` (1e-10) for the
induction condition.  Exact maps use exact comparisons instead.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .branches import Chain, Translation, restrict, EPS_BRANCH
from .combinatorics import CombinatorialDatum, path_matrix, rauzy_step as datum_step
from .errors import DatumMismatch, InductionFailed, OutOfDomain, TieError
from .exact_iet import InductionResult, induce

EPS_TIE = 1e-10


@dataclass(frozen=True)
class Giet:
    """Breakpoints plus one monotone branch per letter, acting on ``[0, length)``."""

    datum: CombinatorialDatum
    length: float
    top_breaks: dict
    bottom_breaks: dict
    branches: dict

    @property
    def total(self):
        return self.length

    def _intervals(self, row, breaks):
        ends = [breaks[a] for a in row[1:]] + [self.length]
        return [(a, breaks[a], hi) for a, hi in zip(row, ends)]

    def top_intervals(self):
        return self._intervals(self.datum.top, self.top_breaks)

    def bottom_intervals(self):
        return self._intervals(self.datum.bottom, self.bottom_breaks)

    def _locate(self, x, row, breaks, snap=EPS_BRANCH):
        if x < -snap or x >= self.length:
            raise OutOfDomain(f"{x} outside [0, {self.length})")
        cuts = [breaks[a] for a in row[1:]]
        i = bisect_right(cuts, x)
        # points computed as orbit images may land a few ulp left of the
        # breakpoint they belong to; snap forward in that case
        if i < len(cuts) and cuts[i] - x <= snap:
            i += 1
        return row[i]

    def letter_at(self, x):
        """Letter whose top interval contains ``x``."""
        return self._locate(x, self.datum.top, self.top_breaks)

    def eval(self, x):
        return self.branches[self.letter_at(x)].eval(x)

    __call__ = eval

    def eval_inverse(self, y):
        a = self._locate(y, self.datum.bottom, self.bottom_breaks)
        return self.branches[a].inverse(y)

    def image_of_interval(self, lo, hi):
        """Image of ``[lo, hi)`` under the branch containing it."""
        a = self.letter_at(lo)
        br = self.branches[a]
        if hi > br.domain[1] + EPS_BRANCH:
            raise InductionFailed(f"interval [{lo}, {hi}) straddles the right end of letter {a}")
        return br.eval(lo), br.eval(min(hi, br.domain[1]))

    def rauzy_step(self):
        """One induction step: first return to the interval cut at the larger
        of the two rightmost critical data.  Returns ``(induced, arrow)``."""
        alpha_t = self.datum.top[-1]
        alpha_b = self.datum.bottom[-1]
        x_t = self.top_breaks[alpha_t]
        x_b = self.bottom_breaks[alpha_b]
        if abs(x_t - x_b) <= EPS_TIE:
            raise TieError(f"critical data coincide at {x_t}")
        branches = dict(self.branches)
        top_breaks = dict(self.top_breaks)
        if x_t < x_b:
            arrow = datum_step(self.datum, "t")
            new_length = x_b
            branches[alpha_t] = restrict(self.branches[alpha_t], x_t, x_b)
            branches[alpha_b] = Chain(
                (self.branches[alpha_b], restrict(self.branches[alpha_t], x_b, self.length))
            )
            bottom_breaks = {a: branches[a].range_[0] for a in self.datum.alphabet}
        else:
            arrow = datum_step(self.datum, "b")
            new_length = x_t
            cut = self.branches[alpha_b].inverse(x_t)
            sup_ab = self.branches[alpha_b].domain[1]
            branches[alpha_b] = restrict(self.branches[alpha_b], self.top_breaks[alpha_b], cut)
            branches[alpha_t] = Chain(
                (restrict(self.branches[alpha_b], cut, sup_ab), self.branches[alpha_t])
            )
            top_breaks[alpha_t] = cut
            bottom_breaks = dict(self.bottom_breaks)
        induced = Giet(arrow.target, new_length, top_breaks, bottom_breaks, branches)
        return induced, arrow

    def rauzy_path(self, r: int) -> InductionResult:
        """Iterate induction up to ``r`` steps, stopping early on a tie."""
        return induce(self, r)

    def validate(self, eps: float = EPS_BRANCH, samples: int = 16):
        """Check breakpoint order and branch/interval consistency."""
        assert abs(self.top_breaks[self.datum.top[0]]) <= eps
        assert abs(self.bottom_breaks[self.datum.bottom[0]]) <= eps
        for a, lo, hi in self.top_intervals():
            assert hi > lo, f"empty top interval for {a}"
            br = self.branches[a]
            assert abs(br.domain[0] - lo) <= eps and abs(br.domain[1] - hi) <= eps
        for a, lo, hi in self.bottom_intervals():
            assert hi > lo, f"empty bottom interval for {a}"
            br = self.branches[a]
            assert abs(br.range_[0] - lo) <= eps and abs(br.range_[1] - hi) <= eps
        for a in self.datum.alphabet:
            self.branches[a].validate(samples=samples, eps=max(eps, 1e-9))


def giet_from_iet(T) -> Giet:
    """Float translation-branch copy of an exact IET."""
    u_t, u_b = T.breakpoints()
    top = {a: float(u_t[a]) for a in T.datum.alphabet}
    bottom = {a: float(u_b[a]) for a in T.datum.alphabet}
    branches = {}
    for a in T.datum.alphabet:
        lo, hi = top[a], top[a] + float(T.length(a))
        branches[a] = Translation((lo, hi), (bottom[a], bottom[a] + float(T.length(a))))
    return Giet(T.datum, float(T.total), top, bottom, branches)


def giet_from_branches(datum: CombinatorialDatum, top_lengths, bottom_lengths, maker) -> Giet:
    """Assemble a unit-interval GIET from per-letter interval lengths.

    ``maker(letter, domain, range_)`` builds each branch; lengths are given in
    alphabet order or as dicts and must sum to 1 on each side.
    """
    if not isinstance(top_lengths, dict):
        top_lengths = dict(zip(datum.alphabet, top_lengths))
    if not isinstance(bottom_lengths, dict):
        bottom_lengths = dict(zip(datum.alphabet, bottom_lengths))
    top_breaks, bottom_breaks = {}, {}
    acc = 0.0
    for a in datum.top:
        top_breaks[a] = acc
        acc += top_lengths[a]
    assert abs(acc - 1.0) <= 1e-9, "top lengths must sum to 1"
    acc = 0.0
    for a in datum.bottom:
        bottom_breaks[a] = acc
        acc += bottom_lengths[a]
    assert abs(acc - 1.0) <= 1e-9, "bottom lengths must sum to 1"
    branches = {}
    for a in datum.alphabet:
        dom = (top_breaks[a], top_breaks[a] + top_lengths[a])
        rng = (bottom_breaks[a], bottom_breaks[a] + bottom_lengths[a])
        branches[a] = maker(a, dom, rng)
    return Giet(datum, 1.0, top_breaks, bottom_breaks, branches)


class Atom(NamedTuple):
    lo: object
    hi: object
    letter: str
    index: int

    @property
    def label(self):
        return (self.letter, self.index)


@dataclass(frozen=True)
class DynamicalPartition:
    """Forward images of the induced map's continuity intervals, left to right."""

    order: int
    atoms: tuple[Atom, ...]

    def labels(self):
        return [a.label for a in self.atoms]

    def lengths(self):
        return [a.hi - a.lo for a in self.atoms]

    def validate(self, total, tol=1e-9):
        prev = 0
        for atom in self.atoms:
            assert abs(atom.lo - prev) <= tol, "gap or overlap between atoms"
            assert atom.hi > atom.lo
            prev = atom.hi
        assert abs(prev - total) <= tol, "atoms do not tile the interval"


def dynamical_partition(m, r: int) -> DynamicalPartition:
    """Partition of order ``r``: atoms ``f^i(I^t_alpha(f^(r)))`` labeled ``(alpha, i)``.

    Works for exact IETs (exact endpoints) and float GIETs alike.
    """
    result = _induce_fully(m, r)
    q = path_matrix(result.path).row_sums()
    atoms = []
    for letter, lo, hi in result.map.top_intervals():
        cur = (lo, hi)
        for i in range(q[letter]):
            atoms.append(Atom(cur[0], cur[1], letter, i))
            if i + 1 < q[letter]:
                cur = m.image_of_interval(cur[0], cur[1])
    atoms.sort(key=lambda a: a.lo)
    return DynamicalPartition(r, tuple(atoms))


def _induce_fully(m, r: int) -> InductionResult:
    """Induction of ``m`` to depth ``r``; a tie before then is an error."""
    result = m.rauzy_path(r)
    if len(result.path) < r:
        raise InductionFailed(f"tie after {len(result.path)} of {r} steps")
    return result


def partitions_equivalent(p: DynamicalPartition, q: DynamicalPartition) -> bool:
    """True when the label sequences agree in left-to-right order."""
    return p.labels() == q.labels()


def verify_matrix_counts(m, r: int) -> bool:
    """Check every path-matrix entry against brute containment counts.

    Entry (alpha, beta) must equal the number of order-``r`` atoms with letter
    ``alpha`` contained in the top interval of ``beta``.
    """
    matrix = path_matrix(_induce_fully(m, r).path)
    partition = dynamical_partition(m, r)
    exact = isinstance(m.total, Fraction)
    tol = 0 if exact else 1e-9
    counts = {}
    for atom in partition.atoms:
        for beta, lo, hi in m.top_intervals():
            if atom.lo >= lo - tol and atom.hi <= hi + tol:
                counts[(atom.letter, beta)] = counts.get((atom.letter, beta), 0) + 1
                break
        else:
            return False
    for a in m.datum.alphabet:
        for b in m.datum.alphabet:
            if matrix.entry(a, b) != counts.get((a, b), 0):
                return False
    return True


def giet_distance(f: Giet, g: Giet, samples: int = 64) -> float:
    """Sampled graph-Hausdorff distance, summed over branches.

    The approximation error is bounded by the largest gap between consecutive
    sample points along either graph.
    """
    if f.datum != g.datum:
        raise DatumMismatch(f"{f.datum} != {g.datum}")
    return sum(_hausdorff(_graph(f, a, samples), _graph(g, a, samples)) for a in f.datum.alphabet)


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
