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

from bisect import bisect_right
from collections import namedtuple
from functools import cached_property
from itertools import groupby, islice, repeat
from operator import itemgetter, lt

from .branches import Translation, compose, restrict, EPS_BRANCH
from .combinatorics import CombinatorialDatum, RauzyPath, path_matrix, rauzy_step as datum_step
from .errors import GietlabError, InductionFailed, TieError
from .exact_iet import Exchange, InductionResult, float_length, induce, lay_out
from .value import Frozen

EPS_TIE = 1e-10


class Giet(Exchange):
    """One increasing branch per letter, acting on ``[0, length)``.  The map
    is its branches: each row's breakpoints are the left ends of the branch
    domains (top) or ranges (bottom)."""

    _fields = ("datum", "length", "branches")
    snap = EPS_BRANCH

    def __init__(self, datum: CombinatorialDatum, length: float, branches: dict):
        self.__dict__.update(datum=datum, length=length, branches=branches)

    @cached_property
    def total(self):
        return self.length

    def eval(self, x):
        return self.branches[self.letter_at(x)].eval(x)

    def eval_sorted(self, xs) -> list:
        """``[self.eval(x) for x in xs]`` for a sequence of points ``xs``, bit
        for bit, each run of points that share a letter evaluated by one
        ``eval_many`` call of its branch.

        Each point gets the letter ``letter_at`` gives it, by the same
        bisection of ``_cuts`` mapped over all the points.  The letters of
        sorted points come in runs, so each branch is called once; points in
        any other order cost more calls, not other values.  A point outside
        the domain, a NaN included, raises the ``GietlabError`` of ``eval``.
        """
        cuts = self._cuts
        index = list(map(bisect_right, repeat(cuts), xs))
        if 0 in index or len(cuts) in index:
            for x in xs:
                self.letter_at(x)  # raises at the first point outside
        row, branches, ys, k = self.datum.top, self.branches, [], 0
        for i, run in groupby(index):
            n = len(list(run))
            ys += branches[row[i - 1]].eval_many(xs[k:k + n])
            k += n
        return ys

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
        return Giet(arrow.target, new_length, branches), arrow

    def rauzy_path(self, r: int, kinds: str | None = None,
                   max_points: int | None = None) -> InductionResult:
        """Iterate induction up to ``r`` steps, stopping early on a tie.

        With ``kinds``, also stop after the first arrow whose kind differs;
        with ``max_points``, raise a ``GietlabError`` once N passes it
        (``induce``).
        """
        return induce(self, r, kinds, max_points)

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


def giet_from_iet(T) -> Giet:
    """Float translation-branch copy of an exact IET.  Each branch shifts by
    the exact displacement rounded once, so its image of a float ``x`` is
    ``x + float(u_b - u_t)``, the bits of ``T.eval(x)``."""
    total, branches = float_length(T.total), {}
    for a, br in T.branches.items():
        lo, c, l = float(T.top_breaks[a]), float(T.bottom_breaks[a]), float(T.length(a))
        branches[a] = Translation((lo, lo + l), (c, c + l), float(br.shift))
    return Giet(T.datum, total, branches)


def giet_from_branches(datum: CombinatorialDatum, top_lengths, bottom_lengths, maker) -> Giet:
    """Assemble a unit-interval GIET from per-letter interval lengths.

    ``maker(letter, domain, range_)`` builds each branch; lengths are given in
    alphabet order or as dicts, laid out along each row in floats
    (``lay_out``), and must sum to 1 on each side.
    """
    rows = {}
    for side, row, lengths in (("top", datum.top, top_lengths),
                               ("bottom", datum.bottom, bottom_lengths)):
        if not isinstance(lengths, dict):
            lengths = dict(zip(datum.alphabet, lengths))
        rows[side] = ends = lay_out(row, {a: float(lengths[a]) for a in row})
        total = ends[row[-1]][1]
        if not abs(total - 1.0) <= 1e-9:
            raise GietlabError(f"{side} lengths must sum to 1, got {total!r}")
    top, bottom = rows["top"], rows["bottom"]
    return Giet(datum, 1.0, {a: maker(a, top[a], bottom[a]) for a in datum.alphabet})


Atom = namedtuple("Atom", "lo hi letter index")


class DynamicalPartition(Frozen):
    """Forward images of the induced map's continuity intervals, left to right,
    and the Rauzy path of the induction that made them.  Each atom is
    ``(lo, hi, letter, index)``, in the numbers of the partitioned map: an
    ``Atom`` when ``dynamical_partition`` had no cells table, a plain tuple
    when it laid the towers in the model's cells."""

    _fields = ("order", "atoms", "path")

    def __init__(self, order: int, atoms: tuple[tuple, ...], path: RauzyPath):
        self.__dict__.update(order=order, atoms=atoms, path=path)

    def labels(self):
        """Each atom's ``(letter, index)``, left to right."""
        return list(map(itemgetter(2, 3), self.atoms))


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


def _laid_in_cells(m, tops, q, cells) -> list:
    """The floors of ``m``'s towers over ``tops``, ``q[letter]`` floors each,
    as plain ``(lo, hi, letter, i)`` tuples, floor ``i`` of ``letter``
    written into the cell ``cells[letter][i]``: the list in cell order,
    each tower walked once."""
    atoms = [None] * sum(q.values())
    for letter, *base in tops:
        floors = zip(cells[letter], m.tower(*base, q[letter]))
        for i, (cell, (lo, hi)) in enumerate(floors):
            atoms[cell] = lo, hi, letter, i
    del floors  # the last tower's floors
    return atoms


def dynamical_partition(m, r: int, induction: InductionResult | None = None,
                        cells: dict | None = None) -> DynamicalPartition:
    """Partition of order ``r``: atoms ``f^i(I^t_alpha(f^(r)))`` labeled ``(alpha, i)``.

    Works in the numbers of the map it is given: ``int`` atom ends for an IET
    with ``int`` lengths, ``Fraction`` ends for one with fractions, floats for
    a GIET.  Callers who want ``int`` speed pass the integer grid
    (``ExactIET.on_integer_grid``), as ``partition`` and ``semiconj`` do.
    ``induction``, if given, is the caller's ``m.rauzy_path(r)``.  Raises
    ``GietlabError`` when the atoms do not tile ``[0, m.total)`` left to
    right, each one nonempty (``check_tiling``): exactly for an ``int`` or
    ``Fraction`` total, to within ``1e-9 * max(1, |total|)`` for a float one.

    Each tower is walked once, by one of two routes, with the same atom ends
    and labels:

    - no table: the floors are ``Atom``s, sorted by left end;
    - a table ``cells``, the model's cell of every floor (one sequence per
      letter, together holding each of the N cells once:
      ``thurston.RefConfig.cells``): plain ``(lo, hi, letter, i)`` tuples in
      cell order (``_laid_in_cells``), sorted only when their left ends do
      not strictly increase.  A table whose letters or counts differ from
      the towers' takes the no-table route.

    ``realize``, ``partition`` and ``semiconj`` pass the table of a path
    that has all ``r`` arrows and ends at a cyclic datum (``realize``'s
    always does), ``semiconj`` one table for both of its maps; any other
    path, a tie and a caller without a table take the no-table route.
    """
    result = m.rauzy_path(r) if induction is None else induction
    path = result.path
    if len(path) < r:
        raise InductionFailed(f"tie after {len(path)} of {r} steps")
    q = path_matrix(path).row_sums()
    tops = result.map.top_intervals()
    first = itemgetter(0)
    if cells is None or {a: len(c) for a, c in cells.items()} != q:
        atoms = [
            Atom(lo, hi, letter, i)
            for letter, *base in tops
            for i, (lo, hi) in enumerate(m.tower(*base, q[letter]))
        ]
        atoms.sort(key=first)
    else:
        atoms = _laid_in_cells(m, tops, q, cells)
        if not all(map(lt, map(first, atoms), map(first, islice(atoms, 1, None)))):
            atoms.sort(key=first)
    # float towers can drift apart before any tie
    check_tiling(atoms, m.total, lambda i: f"atom {atoms[i][2]}{atoms[i][3]}")
    return DynamicalPartition(r, tuple(atoms), path)


def partitions_equivalent(p: DynamicalPartition, q: DynamicalPartition) -> bool:
    """True when the label sequences agree in left-to-right order."""
    return p.labels() == q.labels()
