"""Interval exchange transformations with exact rational lengths.

Lengths are ``fractions.Fraction`` values, so Rauzy induction is decided
exactly: a tie is an exact event, never a floating-point accident.  The cone
of a path is the set of lengths whose induction follows it.  A map with
``int`` lengths is the same map on its integer grid: its breakpoints, images
and induced lengths stay ``int``, which is how the reference model and exact
partitions are computed.

>>> T = ExactIET.from_lengths(parse_datum("A B", "B A"), ["1/3", "2/3"])
>>> T.eval(Fraction(0))
Fraction(2, 3)
>>> step, arrow = T.rauzy_step()
>>> arrow.winner, step.lengths
('B', (Fraction(1, 3), Fraction(1, 3)))
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import inf, lcm, log10, nextafter

from .branches import Translation
from .combinatorics import CombinatorialDatum, RauzyPath, is_admissible, parse_datum, rauzy_step
from .errors import GietlabError, InductionFailed, TieError
from .value import Frozen


class InductionResult(namedtuple("InductionResult", "path map tie")):
    """The arrows a map follows, the induced map, and whether a tie cut it short."""

    __slots__ = ()


def induce(m, r: int, kinds: str | None = None,
           max_points: int | None = None) -> InductionResult:
    """Iterate ``m.rauzy_step()`` up to ``r`` times, stopping early on a tie.

    With ``kinds``, also stop after the first arrow whose kind differs from
    the prescribed one, so a path check pays only for the matching prefix
    and the first wrong arrow.  With ``max_points``, raise a ``GietlabError``
    after the first arrow that takes N, the total return time, past it:
    each arrow adds the winner's return time to the loser's, so N is known
    before the next step, and a float map's branch chains, which hold about
    N parts, stop growing near the cap.  Exact IETs and float GIETs share
    this loop; each supplies its own step.  A datum that is not admissible
    has no arrow at all, so inducing it (``r > 0``) raises
    ``InductionFailed``.
    """
    if r > 0 and not is_admissible(m.datum):
        raise InductionFailed(f"datum {m.datum} is not admissible: no Rauzy arrow leaves it")
    arrows = []
    current = m
    tie = False
    q = None if max_points is None else dict.fromkeys(m.datum.alphabet, 1)
    for i in range(r):
        try:
            current, arrow = current.rauzy_step()
        except TieError:
            tie = True
            break
        arrows.append(arrow)
        if q is not None:
            q[arrow.loser] += q[arrow.winner]
            if (n := sum(q.values())) > max_points:
                raise GietlabError(f"the order-{r} induction passes the cap of {max_points} "
                                   f"points: N={n} after {i + 1} of {r} steps")
        if kinds is not None and arrow.kind != kinds[i]:
            break
    return InductionResult(RauzyPath(m.datum, tuple(arrows)), current, tie)


def float_length(x, scale=1) -> float:
    """The total length ``x / scale`` of a map, correctly rounded to a
    float; one past the largest float raises a ``GietlabError`` naming it."""
    try:
        return float(x / scale)
    except OverflowError:
        e = log10(x // scale)
        raise GietlabError(f"total length {10 ** (e % 1):.3g}e{int(e)} is too large for a float") from None


def lay_out(row, widths) -> dict:
    """Each letter's ``(lo, hi)`` when the ``widths`` are laid end to end
    along ``row``, summed left to right from a zero of the widths' own type:
    ``int`` widths give ``int`` ends and ``Fraction`` ones start at
    ``Fraction(0)``.  A zero width is the point where its neighbours meet.

    >>> lay_out("BA", {"A": 1, "B": 2})
    {'B': (0, 2), 'A': (2, 3)}
    """
    lo = type(widths[row[0]])()
    ends = {}
    for a in row:
        hi = lo + widths[a]
        ends[a] = (lo, hi)
        lo = hi
    return ends


class Exchange(Frozen):
    """The row model both interval exchanges share: the top and bottom rows
    cut ``[0, total)`` into one interval per letter, in row order.

    A subclass supplies ``datum``, ``total``, ``branches``, one per letter
    from its top interval onto its bottom one, and the class constant
    ``snap``: how far left of 0 a point is still in the domain, and how far
    left of a breakpoint it is read in the interval to its right.  An exact
    map has ``snap = 0``, so every comparison is exact.  The rows are read
    off the branches.  Each subclass keeps its own ``eval``: the traced
    benchmark run counts ``ExactIET.eval`` calls by rebinding the method on
    that class.  A map is a frozen value, compared by its ``_fields``.
    """

    @cached_property
    def top_breaks(self) -> dict:
        """``u^t``: the left end of each letter's top interval, its branch's domain."""
        return {a: br.domain[0] for a, br in self.branches.items()}

    @cached_property
    def bottom_breaks(self) -> dict:
        """``u^b``: the left end of each letter's bottom interval, its branch's range."""
        return {a: br.range_[0] for a, br in self.branches.items()}

    def _intervals(self, row, breaks):
        ends = [breaks[a] for a in row[1:]] + [self.total]
        return [(a, breaks[a], hi) for a, hi in zip(row, ends)]

    def top_intervals(self):
        """Continuity intervals ``(letter, lo, hi)`` left to right."""
        return self._intervals(self.datum.top, self.top_breaks)

    def bottom_intervals(self):
        return self._intervals(self.datum.bottom, self.bottom_breaks)

    @cached_property
    def _cuts(self):
        """``[-snap, t_1, ..., t_{d-1}, total]``: ``t_j`` is the least float
        ``x`` with ``c_j - x <= snap`` for the ``j``-th top cut ``c_j``, raised
        to at least ``c_{j-1}`` (or ``-snap``) so no point moves past a letter,
        and at ``snap = 0`` the cut itself.  ``bisect_right`` of a point is 0
        left of the domain, ``len(_cuts)`` at or past ``total`` or for a NaN,
        and otherwise one more than the top-row index of its letter."""
        snap, cuts = self.snap, [self.top_breaks[a] for a in self.datum.top[1:]]
        if snap:
            t = []
            for prev, c in zip([-snap, *cuts], cuts):
                x = c - snap
                while c - x > snap:
                    x = nextafter(x, inf)
                while c - (y := nextafter(x, -inf)) <= snap:
                    x = y
                t.append(max(x, prev))
            cuts = t
        return [-snap, *cuts, self.total]

    def letter_at(self, x):
        """Letter whose top interval contains ``x``, by one bisection of ``_cuts``:
        a point within ``snap`` left of a breakpoint (an orbit image a few ulp
        off) is read in the interval to its right, one within ``snap`` left of
        0 in the first, and a point outside the domain, a NaN included, raises."""
        i = bisect_right(self._cuts, x)
        if not 0 < i < len(self._cuts):
            raise GietlabError(f"{x} outside [0, {self.total})")
        return self.datum.top[i - 1]

    def tower(self, lo, hi, n):
        """``[lo, hi)`` and its first ``n - 1`` images: each floor is the
        image of the one below it under the branch of the letter that holds
        that floor's left end.

        Each step locates the floor's left end as ``letter_at`` does, by one
        bisection of ``_cuts``, and raises ``InductionFailed`` when a floor
        straddles the right end of its letter by more than ``snap``.

        >>> T = ExactIET(parse_datum("A B", "B A"), (1, 2))  # on its integer grid
        >>> T.tower(0, 1, 3)
        [(0, 1), (2, 3), (1, 2)]
        >>> T.tower(0, 2, 2)
        Traceback (most recent call last):
        ...
        gietlab.errors.InductionFailed: interval [0, 2) straddles the right end of letter A
        """
        cuts, row, snap = self._cuts, self.datum.top, self.snap
        spans = [(br.eval, br.domain[1]) for br in map(self.branches.get, row)]
        floors = [(lo, hi)]
        for _ in range(n - 1):
            k = bisect_right(cuts, lo)
            if not 0 < k < len(cuts):
                if len(floors) == 1:
                    self.letter_at(lo)  # raises
                raise GietlabError(
                    f"the branch of letter {row[i]!r} maps floor {len(floors) - 2} of the "
                    f"tower over [{floors[0][0]}, {floors[0][1]}) to floor {len(floors) - 1} "
                    f"at {lo}, outside [0, {self.total})"
                )
            i = k - 1
            image, end = spans[i]
            if hi > end + snap:
                raise InductionFailed(
                    f"interval [{lo}, {hi}) straddles the right end of letter {row[i]}"
                )
            lo, hi = image(lo), image(hi if hi < end else end)
            floors.append((lo, hi))
        return floors


class ExactIET(Exchange):
    """An IET given by a datum and one positive rational length per letter.

    ``lengths`` is a tuple aligned with ``datum.alphabet``, all ``Fraction``
    or, for a map on an integer grid, all ``int``.  The map acts on
    ``[0, sum(lengths))``, whatever that total is.  The breakpoints are built
    once per map, on first use.
    """

    _fields = ("datum", "lengths")
    snap = 0

    def __init__(self, datum: CombinatorialDatum,
                 lengths: tuple[Fraction, ...] | tuple[int, ...]):
        if len(lengths) != datum.d:
            d, n = datum.d, len(lengths)
            raise GietlabError(f"{datum} needs {d} lengths, one per letter, got {n}")
        for a, l in zip(datum.alphabet, lengths):
            if l <= 0:
                raise GietlabError(f"length of letter {a!r} must be positive, got {l}")
        self.__dict__.update(datum=datum, lengths=lengths)

    @classmethod
    def from_lengths(cls, datum: CombinatorialDatum, lengths) -> "ExactIET":
        """Build from lengths given per alphabet letter (sequence or dict, str/int/Fraction)."""
        if isinstance(lengths, dict):
            lengths = [lengths[a] for a in datum.alphabet]
        return cls(datum, tuple(map(Fraction, lengths)))

    def on_integer_grid(self) -> tuple["ExactIET", int]:
        """The map scaled by the common denominator ``D`` of its lengths, and ``D``.

        The scaled map has ``int`` lengths; a point ``x`` of this map is the
        point ``x * D`` of the scaled one.

        >>> T = ExactIET.from_lengths(parse_datum("A B", "B A"), ["1/3", "1/6"])
        >>> grid, D = T.on_integer_grid()
        >>> grid.lengths, D, grid.eval(0)
        ((2, 1), 6, 1)
        """
        D = lcm(*(Fraction(x).denominator for x in self.lengths))
        return ExactIET(self.datum, tuple(int(x * D) for x in self.lengths)), D

    def successors(self) -> list:
        """The image of every point of a map on its integer grid:
        ``successors()[x]`` is ``eval(x)``.  A letter's top interval moves as
        one block, so each letter costs one ``eval`` and one slice.

        >>> ExactIET(parse_datum("A B", "B A"), (1, 2)).successors()
        [2, 0, 1]
        """
        succ = [0] * self.total
        for _, lo, hi in self.top_intervals():
            image = self.eval(lo)
            succ[lo:hi] = range(image, image + hi - lo)
        return succ

    def length(self, letter: str) -> Fraction:
        return self.lengths[self.datum.alphabet.index(letter)]

    @cached_property
    def total(self) -> Fraction:
        return sum(self.lengths)

    def lengths_by_letter(self) -> dict[str, Fraction]:
        return dict(zip(self.datum.alphabet, self.lengths))

    @cached_property
    def branches(self) -> dict:
        """Each letter's ``Translation`` of its top interval onto its bottom
        one, in exact arithmetic: its inverse of ``y`` is ``y - (u^b - u^t)``.
        The rows are the lengths laid out along them (``lay_out``).
        """
        lam = self.lengths_by_letter()
        top, bottom = lay_out(self.datum.top, lam), lay_out(self.datum.bottom, lam)
        return {a: Translation(top[a], bottom[a]) for a in lam}

    def eval(self, x):
        """Image of ``x``: translate by the letter's displacement."""
        return x + self.branches[self.letter_at(x)].shift

    def rauzy_step(self):
        """One exact induction step: ``(induced map, arrow)``.

        Raises ``TieError`` when the two rightmost subintervals have equal
        length, in which case the induction is undefined.  The induced map
        skips the checks of ``__init__``, which its positive lengths pass.
        """
        alpha_t = self.datum.top[-1]
        alpha_b = self.datum.bottom[-1]
        lt, lb = self.length(alpha_t), self.length(alpha_b)
        if lt == lb:
            raise TieError(f"equal lengths {lt} for {alpha_t} and {alpha_b}")
        arrow = rauzy_step(self.datum, "t" if lt > lb else "b")
        new_lengths = list(self.lengths)
        w = self.datum.alphabet.index(arrow.winner)
        l = self.datum.alphabet.index(arrow.loser)
        new_lengths[w] = new_lengths[w] - new_lengths[l]
        induced = object.__new__(ExactIET)
        induced.__dict__.update(datum=arrow.target, lengths=tuple(new_lengths))
        return induced, arrow

    def rauzy_path(self, r: int, kinds: str | None = None,
                   max_points: int | None = None) -> InductionResult:
        """Iterate induction up to ``r`` steps, stopping early on a tie.

        With ``kinds``, also stop after the first arrow whose kind differs;
        with ``max_points``, raise a ``GietlabError`` once N passes it
        (``induce``).
        """
        return induce(self, r, kinds, max_points)
