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


class _Breaks(NamedTuple):
    """Breakpoints of an ``ExactIET``: ``u^t``, ``u^b``, the interior cuts of
    each row, and each letter's displacement ``u^b - u^t``."""

    u_t: dict
    u_b: dict
    cuts_t: list
    cuts_b: list
    shift: dict


@dataclass(frozen=True)
class ExactIET:
    """An IET given by a datum and one positive rational length per letter.

    ``lengths`` is a tuple aligned with ``datum.alphabet``, all ``Fraction``
    or, for a map on an integer grid, all ``int``.  The map acts on
    ``[0, sum(lengths))``; constructors normalize to total 1 unless asked not to.
    The breakpoints are built once per map, on first use.
    """

    datum: CombinatorialDatum
    lengths: tuple[Fraction, ...] | tuple[int, ...]

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
    def _breaks(self) -> "_Breaks":
        u_t, u_b = {}, {}
        zero = type(self.lengths[0])()  # Fraction(0) or 0
        for row, u in ((self.datum.top, u_t), (self.datum.bottom, u_b)):
            acc = zero
            for a in row:
                u[a] = acc
                acc += self.length(a)
        return _Breaks(
            u_t,
            u_b,
            [u_t[a] for a in self.datum.top[1:]],
            [u_b[a] for a in self.datum.bottom[1:]],
            {a: u_b[a] - u_t[a] for a in self.datum.alphabet},
        )

    def breakpoints(self):
        """Critical points ``u^t`` and critical values ``u^b``, letter-indexed.

        ``u^t`` of a letter is the total length of the letters preceding it in
        the top row; ``u^b`` uses the bottom row.
        """
        return dict(self._breaks.u_t), dict(self._breaks.u_b)

    def top_intervals(self):
        """Continuity intervals ``(letter, lo, hi)`` left to right."""
        u_t = self._breaks.u_t
        return [(a, u_t[a], u_t[a] + self.length(a)) for a in self.datum.top]

    @cached_property
    def branches(self) -> dict:
        """Each letter's ``Translation`` of its top interval onto its bottom
        one, in exact arithmetic: its inverse of ``y`` is ``y - (u^b - u^t)``."""
        u_t, u_b = self._breaks.u_t, self._breaks.u_b
        return {
            a: Translation((u_t[a], u_t[a] + l), (u_b[a], u_b[a] + l))
            for a, l in zip(self.datum.alphabet, self.lengths)
        }

    def _check_domain(self, x):
        # written so that a NaN, which fails every comparison, is outside
        if not 0 <= x < self.total:
            raise OutOfDomain(f"{x} outside [0, {self.total})")

    def letter_at(self, x):
        """Letter whose top interval contains ``x``."""
        self._check_domain(x)
        return self.datum.top[bisect_right(self._breaks.cuts_t, x)]

    def eval(self, x):
        """Image of ``x``: translate by the letter's displacement."""
        return x + self._breaks.shift[self.letter_at(x)]

    def tower(self, lo, hi, n):
        """``[lo, hi)`` and its first ``n - 1`` exact images; every floor but
        the last must sit inside one top interval.

        >>> T = ExactIET(parse_datum("A B", "B A"), (1, 2))  # on its integer grid
        >>> T.tower(0, 1, 3)
        [(0, 1), (2, 3), (1, 2)]
        >>> T.tower(0, 2, 2)
        Traceback (most recent call last):
        ...
        gietlab.errors.InductionFailed: interval [0, 2) straddles the right end of letter A
        """
        breaks, row = self._breaks, self.datum.top
        cuts = breaks.cuts_t
        spans = [(breaks.u_t[a] + self.length(a), breaks.shift[a]) for a in row]
        floors = [(lo, hi)]
        for _ in range(n - 1):
            self._check_domain(lo)
            i = bisect_right(cuts, lo)
            end, delta = spans[i]
            if hi > end:
                raise InductionFailed(
                    f"interval [{lo}, {hi}) straddles the right end of letter {row[i]}"
                )
            lo, hi = lo + delta, hi + delta
            floors.append((lo, hi))
        return floors

    def eval_inverse(self, y):
        self._check_domain(y)
        a = self.datum.bottom[bisect_right(self._breaks.cuts_b, y)]
        return y - self._breaks.shift[a]

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
