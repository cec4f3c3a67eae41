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
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .branches import Translation, compose, restrict, EPS_BRANCH
from .combinatorics import CombinatorialDatum, RauzyPath, path_matrix, rauzy_step as datum_step
from .errors import GietlabError, InductionFailed, OutOfDomain, TieError
from .exact_iet import ExactIET, InductionResult, induce

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

    @cached_property
    def _top_cuts(self):
        """Left ends of the top intervals after the first, in row order."""
        return [self.top_breaks[a] for a in self.datum.top[1:]]

    @cached_property
    def _bottom_cuts(self):
        """Left ends of the bottom intervals after the first, in row order."""
        return [self.bottom_breaks[a] for a in self.datum.bottom[1:]]

    def _check_domain(self, x):
        # written so that a NaN, which fails every comparison, is outside
        if not -EPS_BRANCH <= x < self.length:
            raise OutOfDomain(f"{x} outside [0, {self.length})")

    def letter_at(self, x):
        """Letter whose top interval contains ``x``."""
        self._check_domain(x)
        return self.datum.top[_row_index(self._top_cuts, x)]

    def eval(self, x):
        return self.branches[self.letter_at(x)].eval(x)

    def eval_inverse(self, y):
        self._check_domain(y)
        return self.branches[self.datum.bottom[_row_index(self._bottom_cuts, y)]].inverse(y)

    def tower(self, lo, hi, n):
        """``[lo, hi)`` and its first ``n - 1`` images: each floor is the
        image of the one below it under the branch of the letter that holds
        that floor's left end.

        Each step checks the domain, snaps to a breakpoint as ``letter_at``
        does, and raises ``InductionFailed`` when a floor straddles the right
        end of its letter.
        """
        cuts, row = self._top_cuts, self.datum.top
        spans = [(self.branches[a], self.branches[a].domain[1]) for a in row]
        floors = [(lo, hi)]
        for _ in range(n - 1):
            self._check_domain(lo)
            i = _row_index(cuts, lo)
            br, end = spans[i]
            if hi > end + EPS_BRANCH:
                raise InductionFailed(
                    f"interval [{lo}, {hi}) straddles the right end of letter {row[i]}"
                )
            lo, hi = br.eval(lo), br.eval(min(hi, end))
            floors.append((lo, hi))
        return floors

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
        br_t, br_b = self.branches[alpha_t], self.branches[alpha_b]
        if x_t < x_b:
            # the top branch's image of x_b splits it; its two pieces keep
            # the known endpoints of the old range
            arrow = datum_step(self.datum, "t")
            new_length = x_b
            y = br_t.eval(x_b)
            c, d = br_t.range_
            branches[alpha_t] = restrict(br_t, x_t, x_b, c, y)
            branches[alpha_b] = compose(br_b, restrict(br_t, x_b, self.length, y, d))
            bottom_breaks = {a: branches[a].range_[0] for a in self.datum.alphabet}
        else:
            # the bottom branch's preimage of x_t splits it
            arrow = datum_step(self.datum, "b")
            new_length = x_t
            cut = br_b.inverse(x_t)
            hi = br_b.domain[1]
            c, d = br_b.range_
            branches[alpha_b] = restrict(br_b, self.top_breaks[alpha_b], cut, c, x_t)
            branches[alpha_t] = compose(restrict(br_b, cut, hi, x_t, d), br_t)
            top_breaks[alpha_t] = cut
            bottom_breaks = dict(self.bottom_breaks)
        induced = Giet(arrow.target, new_length, top_breaks, bottom_breaks, branches)
        return induced, arrow

    def rauzy_path(self, r: int, kinds: str | None = None) -> InductionResult:
        """Iterate induction up to ``r`` steps, stopping early on a tie.

        With ``kinds``, also stop after the first arrow whose kind differs.
        """
        return induce(self, r, kinds)

    def check_intervals(self, eps: float = EPS_BRANCH):
        """Raise ``GietlabError`` unless each row starts at 0 and cuts
        ``[0, length)`` into non-empty intervals in row order, and each branch
        maps its top interval onto its bottom one, to within ``eps * max(1, length)``."""
        eps *= max(1.0, abs(self.length))
        rows = {
            "top": self._intervals(self.datum.top, self.top_breaks),
            "bottom": self._intervals(self.datum.bottom, self.bottom_breaks),
        }
        for name, intervals in rows.items():
            a, lo, _ = intervals[0]
            if not abs(lo) <= eps:
                raise GietlabError(f"{name} row starts at {lo} (letter {a!r}), not at 0")
            for a, lo, hi in intervals:
                if not hi > lo:
                    raise GietlabError(
                        f"{name} interval [{lo}, {hi}) of letter {a!r} is empty: the "
                        f"breakpoints must increase along the row and stay below the "
                        f"length {self.length}"
                    )
        for name, intervals in rows.items():
            side = "domain" if name == "top" else "range"
            for a, lo, hi in intervals:
                br = self.branches[a]
                ends = br.domain if name == "top" else br.range_
                if not (abs(ends[0] - lo) <= eps and abs(ends[1] - hi) <= eps):
                    raise GietlabError(
                        f"branch {a!r} has {side} [{ends[0]}, {ends[1]}), "
                        f"but its {name} interval is [{lo}, {hi})"
                    )

    def validate(self, eps: float = EPS_BRANCH, samples: int = 16):
        """Check breakpoint order and branch/interval consistency."""
        self.check_intervals(eps)
        for a in self.datum.alphabet:
            self.branches[a].validate(samples=samples, eps=max(eps, 1e-9))


def _row_index(cuts, x):
    """Index of the interval containing ``x`` in a row cut at ``cuts``."""
    i = bisect_right(cuts, x)
    # points computed as orbit images may land a few ulp left of the
    # breakpoint they belong to; snap forward in that case
    if i < len(cuts) and cuts[i] - x <= EPS_BRANCH:
        i += 1
    return i


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
    for side, row, lengths, breaks in (
        ("top", datum.top, top_lengths, top_breaks),
        ("bottom", datum.bottom, bottom_lengths, bottom_breaks),
    ):
        acc = 0.0
        for a in row:
            breaks[a] = acc
            acc += lengths[a]
        if not abs(acc - 1.0) <= 1e-9:
            raise GietlabError(f"{side} lengths must sum to 1, got {acc!r}")
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
    """Forward images of the induced map's continuity intervals, left to right,
    and the Rauzy path of the induction that made them."""

    order: int
    atoms: tuple[Atom, ...]
    path: RauzyPath

    def labels(self):
        return [a.label for a in self.atoms]

    def lengths(self):
        return [a.hi - a.lo for a in self.atoms]

    def validate(self, total, tol=1e-9):
        """Check that the atoms tile ``[0, total)`` left to right, each one nonempty."""
        prev = 0
        for atom in self.atoms:
            name = f"atom {atom.letter}{atom.index} [{atom.lo}, {atom.hi})"
            if not abs(atom.lo - prev) <= tol:
                raise GietlabError(f"{name} does not start where the previous atom ends, {prev}")
            if not atom.hi > atom.lo:
                raise GietlabError(f"{name} is empty")
            prev = atom.hi
        if not abs(prev - total) <= tol:
            raise GietlabError(f"atoms end at {prev}, not at the total length {total}")


def dynamical_partition(m, r: int) -> DynamicalPartition:
    """Partition of order ``r``: atoms ``f^i(I^t_alpha(f^(r)))`` labeled ``(alpha, i)``.

    Works for exact IETs (exact endpoints) and float GIETs alike.  An exact
    IET is partitioned on its integer grid, and the endpoints are turned
    into fractions at the end.
    """
    exact = isinstance(m, ExactIET)
    if exact:
        m, D = m.on_integer_grid()
    result = _induce_fully(m, r)
    path = result.path
    q = path_matrix(path).row_sums()
    tops = result.map.top_intervals()
    del result  # the induced chains hold one part per atom: free them first
    atoms = [
        Atom(lo, hi, letter, i)
        for letter, *base in tops
        for i, (lo, hi) in enumerate(m.tower(*base, q[letter]))
    ]
    atoms.sort(key=itemgetter(0))
    if exact:
        # neighbouring atoms share endpoints: make each fraction once
        ends = {x for atom in atoms for x in atom[:2]}
        frac = {x: Fraction(x, D) for x in ends}
        atoms = [Atom(frac[lo], frac[hi], letter, i) for lo, hi, letter, i in atoms]
    return DynamicalPartition(r, tuple(atoms), path)


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
    partition = dynamical_partition(m, r)
    matrix = path_matrix(partition.path)
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
