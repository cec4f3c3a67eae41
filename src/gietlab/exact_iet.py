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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import NamedTuple

from .branches import Translation
from .combinatorics import CombinatorialDatum, RauzyPath, is_admissible, parse_datum, rauzy_step
from .errors import BadLengths, InductionFailed, OutOfDomain, TieError


class InductionResult(NamedTuple):
    """The arrows a map follows, the induced map, and whether a tie cut it short."""

    path: RauzyPath
    map: object
    tie: bool


def induce(m, r: int, kinds: str | None = None) -> InductionResult:
    """Iterate ``m.rauzy_step()`` up to ``r`` times, stopping early on a tie.

    With ``kinds``, also stop after the first arrow whose kind differs from
    the prescribed one, so a path check pays only for the matching prefix
    and the first wrong arrow.  Exact IETs and float GIETs share this loop;
    each supplies its own step.  A datum that is not admissible has no
    arrow at all, so inducing it (``r > 0``) raises ``InductionFailed``.
    """
    if r > 0 and not is_admissible(m.datum):
        raise InductionFailed(f"datum {m.datum} is not admissible: no Rauzy arrow leaves it")
    arrows = []
    current = m
    tie = False
    for i in range(r):
        try:
            current, arrow = current.rauzy_step()
        except TieError:
            tie = True
            break
        arrows.append(arrow)
        if kinds is not None and arrow.kind != kinds[i]:
            break
    return InductionResult(RauzyPath(m.datum, tuple(arrows)), current, tie)


def _row_index(cuts, x, snap):
    """Index of the interval containing ``x`` in a row cut at ``cuts``.

    Points computed as orbit images may land a few ulp left of the
    breakpoint they belong to: one within ``snap`` of it is read in the
    interval to its right.  With ``snap = 0`` no point moves.
    """
    i = bisect_right(cuts, x)
    if i < len(cuts) and cuts[i] - x <= snap:
        i += 1
    return i


class Exchange:
    """The row model both interval exchanges share: the top and bottom rows
    cut ``[0, total)`` into one interval per letter, in row order.

    A subclass supplies ``datum``, ``total``, ``branches``, one per letter
    from its top interval onto its bottom one, and the class constant
    ``snap``: how far left of 0 a point is still in the domain, and how far
    left of a breakpoint it is read in the interval to its right.  An exact
    map has ``snap = 0``, so every comparison is exact.  The rows are read
    off the branches.  Each subclass keeps its own ``eval``: the traced
    benchmark run counts ``ExactIET.eval`` calls by rebinding the method on
    that class.
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
    def _top_cuts(self):
        """Left ends of the top intervals after the first, in row order."""
        return [self.top_breaks[a] for a in self.datum.top[1:]]

    @cached_property
    def _bottom_cuts(self):
        """Left ends of the bottom intervals after the first, in row order."""
        return [self.bottom_breaks[a] for a in self.datum.bottom[1:]]

    def _check_domain(self, x):
        # written so that a NaN, which fails every comparison, is outside
        if not -self.snap <= x < self.total:
            raise OutOfDomain(f"{x} outside [0, {self.total})")

    def letter_at(self, x):
        """Letter whose top interval contains ``x``."""
        self._check_domain(x)
        return self.datum.top[_row_index(self._top_cuts, x, self.snap)]

    def eval_inverse(self, y):
        self._check_domain(y)
        letter = self.datum.bottom[_row_index(self._bottom_cuts, y, self.snap)]
        return self.branches[letter].inverse(y)

    def tower(self, lo, hi, n):
        """``[lo, hi)`` and its first ``n - 1`` images: each floor is the
        image of the one below it under the branch of the letter that holds
        that floor's left end.

        Each step checks the domain, snaps to a breakpoint as ``letter_at``
        does, and raises ``InductionFailed`` when a floor straddles the right
        end of its letter by more than ``snap``.

        >>> T = ExactIET(parse_datum("A B", "B A"), (1, 2))  # on its integer grid
        >>> T.tower(0, 1, 3)
        [(0, 1), (2, 3), (1, 2)]
        >>> T.tower(0, 2, 2)
        Traceback (most recent call last):
        ...
        gietlab.errors.InductionFailed: interval [0, 2) straddles the right end of letter A
        """
        cuts, row, snap, total = self._top_cuts, self.datum.top, self.snap, self.total
        spans = [(br.eval, br.domain[1]) for br in map(self.branches.get, row)]
        floors = [(lo, hi)]
        for _ in range(n - 1):
            if not -snap <= lo < total:  # the domain check, inlined
                if len(floors) == 1:
                    self._check_domain(lo)  # raises
                raise OutOfDomain(
                    f"the branch of letter {row[i]!r} maps floor {len(floors) - 2} of the "
                    f"tower over [{floors[0][0]}, {floors[0][1]}) to floor {len(floors) - 1} "
                    f"at {lo}, outside [0, {total})"
                )
            i = _row_index(cuts, lo, snap)
            image, end = spans[i]
            if hi > end + snap:
                raise InductionFailed(
                    f"interval [{lo}, {hi}) straddles the right end of letter {row[i]}"
                )
            lo, hi = image(lo), image(hi if hi < end else end)
            floors.append((lo, hi))
        return floors


@dataclass(frozen=True)
class ExactIET(Exchange):
    """An IET given by a datum and one positive rational length per letter.

    ``lengths`` is a tuple aligned with ``datum.alphabet``, all ``Fraction``
    or, for a map on an integer grid, all ``int``.  The map acts on
    ``[0, sum(lengths))``; constructors normalize to total 1 unless asked not to.
    The breakpoints are built once per map, on first use.
    """

    datum: CombinatorialDatum
    lengths: tuple[Fraction, ...] | tuple[int, ...]
    snap = 0

    def __post_init__(self):
        if len(self.lengths) != self.datum.d:
            d, n = self.datum.d, len(self.lengths)
            raise BadLengths(f"{self.datum} needs {d} lengths, one per letter, got {n}")
        for a, l in zip(self.datum.alphabet, self.lengths):
            if l <= 0:
                raise BadLengths(f"length of letter {a!r} must be positive, got {l}")

    @classmethod
    def from_lengths(cls, datum: CombinatorialDatum, lengths, normalize: bool = True) -> "ExactIET":
        """Build from lengths given per alphabet letter (sequence or dict, str/int/Fraction)."""
        if isinstance(lengths, dict):
            vec = [Fraction(lengths[a]) for a in datum.alphabet]
        else:
            vec = [Fraction(x) for x in lengths]
        if normalize:
            total = sum(vec)
            vec = [x / total for x in vec]
        return cls(datum, tuple(vec))

    def on_integer_grid(self) -> tuple["ExactIET", int]:
        """The map scaled by the common denominator ``D`` of its lengths, and ``D``.

        The scaled map has ``int`` lengths; a point ``x`` of this map is the
        point ``x * D`` of the scaled one.

        >>> T = ExactIET.from_lengths(parse_datum("A B", "B A"), ["1/3", "1/6"], normalize=False)
        >>> grid, D = T.on_integer_grid()
        >>> grid.lengths, D, grid.eval(0)
        ((2, 1), 6, 1)
        """
        D = lcm(*(Fraction(x).denominator for x in self.lengths))
        return ExactIET(self.datum, tuple(int(x * D) for x in self.lengths)), D

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

        The rows are laid out here, and only here: each letter's interval
        starts at the sum of the lengths before it in the row, summed from a
        zero of the lengths' own type, so ``int`` lengths give ``int`` ends.
        """
        lam = self.lengths_by_letter()
        zero = type(self.lengths[0])()  # 0 or Fraction(0)
        u_t, u_b = (dict(zip(row, accumulate(map(lam.get, row[:-1]), initial=zero)))
                    for row in (self.datum.top, self.datum.bottom))
        return {
            a: Translation((u_t[a], u_t[a] + l), (u_b[a], u_b[a] + l)) for a, l in lam.items()
        }

    def eval(self, x):
        """Image of ``x``: translate by the letter's displacement."""
        return x + self.branches[self.letter_at(x)].shift

    def rauzy_step(self):
        """One exact induction step: ``(induced map, arrow)``.

        Raises ``TieError`` when the two rightmost subintervals have equal
        length, in which case the induction is undefined.
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
        return ExactIET(arrow.target, tuple(new_lengths)), arrow

    def rauzy_path(self, r: int, kinds: str | None = None) -> InductionResult:
        """Iterate induction up to ``r`` steps, stopping early on a tie.

        With ``kinds``, also stop after the first arrow whose kind differs.
        """
        return induce(self, r, kinds)
