"""Generalized interval exchanges: pluggable branches, induction, partitions.

A ``Giet`` is one increasing branch per letter; the datum's two rows lay the
branch domains and ranges side by side along ``[0, length)``.  Rauzy
induction is the first-return map: it restricts the two rightmost branches
and composes them; the induced map lives on a shorter interval, recorded in
``length``.  Dynamical partitions, their combinatorial equivalence and the
containment counts of the path matrix are computed generically, so the
exact-rational maps plug into the same code and keep exact arithmetic all
the way through.

Numeric substrate is double precision with two tolerances: ``EPS_BRANCH``
(1e-12) for branch/breakpoint consistency, which is also the ``snap`` of the
row model a ``Giet`` shares with ``ExactIET`` (``exact_iet.Exchange``), and
``EPS_TIE`` (1e-10) for the induction condition.  An exact map runs the same
row code with ``snap = 0``, so its comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .branches import Translation, compose, restrict, EPS_BRANCH
from .combinatorics import CombinatorialDatum, RauzyPath, path_matrix, rauzy_step as datum_step
from .errors import GietlabError, InductionFailed, TieError
from .exact_iet import Exchange, ExactIET, InductionResult, induce

EPS_TIE = 1e-10


@dataclass(frozen=True)
class Giet(Exchange):
    """One increasing branch per letter, acting on ``[0, length)``.  The map
    is its branches: each row's breakpoints are the left ends of the branch
    domains (top) or ranges (bottom)."""

    datum: CombinatorialDatum
    length: float
    branches: dict

    snap = EPS_BRANCH

    @cached_property
    def total(self):
        return self.length

    def eval(self, x):
        return self.branches[self.letter_at(x)].eval(x)

    def rauzy_step(self):
        """One induction step: first return to the interval cut at the larger
        of the two rightmost critical data.  Returns ``(induced, arrow)``; the
        branches that do not change are shared, never copied.

        Raises ``TieError`` when the two critical data are within ``EPS_TIE``
        of each other, or when either piece of the branch that is split is no
        longer than ``EPS_TIE``: the induced map would have an empty interval.
        """
        alpha_t = self.datum.top[-1]
        alpha_b = self.datum.bottom[-1]
        branches = self.branches.copy()
        br_t, br_b = branches[alpha_t], branches[alpha_b]
        x_t, x_b = br_t.domain[0], br_b.range_[0]
        if abs(x_t - x_b) <= EPS_TIE:
            raise TieError(f"critical data coincide at {x_t}")
        if x_t < x_b:
            # the top branch's image of x_b splits it; its two pieces keep
            # the known endpoints of the old range
            arrow = datum_step(self.datum, "t")
            new_length = x_b
            y = br_t.eval(x_b)
            c, d = br_t.range_
            if y - c <= EPS_TIE or d - y <= EPS_TIE:
                raise TieError(f"letter {alpha_t!r} splits at {y}, too near an end of [{c}, {d})")
            branches[alpha_t] = restrict(br_t, x_t, x_b, c, y)
            branches[alpha_b] = compose(br_b, restrict(br_t, x_b, self.length, y, d))
        else:
            # the bottom branch's preimage of x_t splits it
            arrow = datum_step(self.datum, "b")
            new_length = x_t
            cut = br_b.inverse(x_t)
            lo, hi = br_b.domain
            if cut - lo <= EPS_TIE or hi - cut <= EPS_TIE:
                raise TieError(
                    f"letter {alpha_b!r} splits at {cut}, too near an end of [{lo}, {hi})"
                )
            c, d = br_b.range_
            branches[alpha_b] = restrict(br_b, lo, cut, c, x_t)
            branches[alpha_t] = compose(restrict(br_b, cut, hi, x_t, d), br_t)
        # not through the frozen dataclass __init__, which sets each field
        # with object.__setattr__
        induced = object.__new__(Giet)
        induced.__dict__.update(datum=arrow.target, length=new_length, branches=branches)
        return induced, arrow

    def rauzy_path(self, r: int, kinds: str | None = None) -> InductionResult:
        """Iterate induction up to ``r`` steps, stopping early on a tie.

        With ``kinds``, also stop after the first arrow whose kind differs.
        """
        return induce(self, r, kinds)

    def check_intervals(self):
        """Raise ``GietlabError`` unless the branch domains, in top-row order,
        and the branch ranges, in bottom-row order, each tile ``[0, length)``
        (``check_tiling``), to within ``EPS_BRANCH * max(1, |length|)``."""
        tol = EPS_BRANCH * max(1.0, abs(self.length))
        top = [self.branches[a].domain for a in self.datum.top]
        bottom = [self.branches[a].range_ for a in self.datum.bottom]
        for row, side, bounds in ((self.datum.top, "domain", top),
                                  (self.datum.bottom, "range", bottom)):
            check_tiling(bounds, self.length, lambda i: f"branch {row[i]!r} {side}", tol)

    def validate(self):
        """Check that the branches tile both rows and spot-check each branch."""
        self.check_intervals()
        for a in self.datum.alphabet:
            self.branches[a].validate(eps=1e-9)


def giet_from_iet(T) -> Giet:
    """Float translation-branch copy of an exact IET."""
    branches = {}
    for a in T.datum.alphabet:
        lo, c, l = float(T.top_breaks[a]), float(T.bottom_breaks[a]), float(T.length(a))
        branches[a] = Translation((lo, lo + l), (c, c + l))
    return Giet(T.datum, float(T.total), branches)


def giet_from_branches(datum: CombinatorialDatum, top_lengths, bottom_lengths, maker) -> Giet:
    """Assemble a unit-interval GIET from per-letter interval lengths.

    ``maker(letter, domain, range_)`` builds each branch; lengths are given in
    alphabet order or as dicts and must sum to 1 on each side.
    """
    if not isinstance(top_lengths, dict):
        top_lengths = dict(zip(datum.alphabet, top_lengths))
    if not isinstance(bottom_lengths, dict):
        bottom_lengths = dict(zip(datum.alphabet, bottom_lengths))
    ends = {}  # (side, letter): the letter's interval on that side
    for side, row, lengths in (("top", datum.top, top_lengths),
                               ("bottom", datum.bottom, bottom_lengths)):
        acc = 0.0
        for a in row:
            ends[side, a] = (acc, acc + lengths[a])
            acc += lengths[a]
        if not abs(acc - 1.0) <= 1e-9:
            raise GietlabError(f"{side} lengths must sum to 1, got {acc!r}")
    branches = {a: maker(a, ends["top", a], ends["bottom", a]) for a in datum.alphabet}
    return Giet(datum, 1.0, branches)


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

    def validate(self, total):
        """Check that the atoms tile ``[0, total)`` left to right, each one
        nonempty (``check_tiling``): exactly for an ``int`` or ``Fraction``
        total, to within ``1e-9 * max(1, |total|)`` for a float one."""
        atoms = self.atoms
        check_tiling(atoms, total, lambda i: f"atom {atoms[i].letter}{atoms[i].index}")


def check_tiling(atoms, total, name, tol=None):
    """Raise ``GietlabError`` unless the ``atoms``, each led by its two ends,
    tile ``[0, total)`` left to right, each one nonempty, to within ``tol``.
    By default ``tol`` is 0 for an exact total and ``1e-9 * max(1, |total|)``
    for a float one.  ``name(i)`` names entry ``i``, only if it is at fault."""
    if tol is None:
        tol = 1e-9 * max(1.0, abs(total)) if isinstance(total, float) else 0
    prev = 0
    for i, atom in enumerate(atoms):
        lo, hi = atom[0], atom[1]
        if not abs(lo - prev) <= tol:
            where = f"where {name(i - 1)} ends, " if i else "at "
            raise GietlabError(f"{name(i)} [{lo}, {hi}) does not start {where}{prev}")
        if not hi > lo:
            raise GietlabError(f"{name(i)} [{lo}, {hi}) is empty")
        prev = hi
    if not abs(prev - total) <= tol:
        what = f"{name(i)} [{lo}, {hi}) ends" if atoms else "the tiling ends"
        raise GietlabError(f"{what} at {prev}, not at the total length {total}")


def dynamical_partition(m, r: int) -> DynamicalPartition:
    """Partition of order ``r``: atoms ``f^i(I^t_alpha(f^(r)))`` labeled ``(alpha, i)``.

    Works for exact IETs (exact endpoints) and float GIETs alike.  An IET with
    ``int`` lengths has ``int`` atom ends; one with fractions is partitioned on
    its integer grid, and the endpoints are turned into fractions at the end.
    """
    exact = isinstance(m, ExactIET) and not isinstance(m.lengths[0], int)
    if exact:
        m, D = m.on_integer_grid()
    result = m.rauzy_path(r)
    path = result.path
    if len(path) < r:
        raise InductionFailed(f"tie after {len(path)} of {r} steps")
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
