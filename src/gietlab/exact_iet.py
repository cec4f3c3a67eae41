"""Interval exchange transformations with exact rational lengths.

Lengths are ``fractions.Fraction`` values, so Rauzy induction, cone membership
and connection search are decided exactly: a tie is an exact event, never a
floating-point accident.

>>> T = ExactIET.from_lengths(parse_datum("A B", "B A"), ["1/3", "2/3"])
>>> T.eval(Fraction(0))
Fraction(2, 3)
>>> step, arrow = T.rauzy_step()
>>> arrow.winner, step.lengths
('B', (Fraction(1, 3), Fraction(1, 3)))
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import CombinatorialDatum, RauzyPath, parse_datum, rauzy_step
from .errors import InductionFailed, OutOfDomain, TieError


class InductionResult(NamedTuple):
    """The arrows a map follows, the induced map, and whether a tie cut it short."""

    path: RauzyPath
    map: object
    tie: bool


def induce(m, r: int) -> InductionResult:
    """Iterate ``m.rauzy_step()`` up to ``r`` times, stopping early on a tie.

    Exact IETs and float GIETs share this loop; each supplies its own step.
    """
    arrows = []
    current = m
    tie = False
    for _ in range(r):
        try:
            current, arrow = current.rauzy_step()
        except TieError:
            tie = True
            break
        arrows.append(arrow)
    return InductionResult(RauzyPath(m.datum, tuple(arrows)), current, tie)


@dataclass(frozen=True)
class ExactIET:
    """An IET given by a datum and one positive rational length per letter.

    ``lengths`` is a tuple aligned with ``datum.alphabet``.  The map acts on
    ``[0, sum(lengths))``; constructors normalize to total 1 unless asked not to.
    """

    datum: CombinatorialDatum
    lengths: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lengths) != self.datum.d:
            raise ValueError("one length per letter required")
        if any(l <= 0 for l in self.lengths):
            raise ValueError("lengths must be positive")

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

    def length(self, letter: str) -> Fraction:
        return self.lengths[self.datum.alphabet.index(letter)]

    @property
    def total(self) -> Fraction:
        return sum(self.lengths)

    def lengths_by_letter(self) -> dict[str, Fraction]:
        return dict(zip(self.datum.alphabet, self.lengths))

    def breakpoints(self):
        """Critical points ``u^t`` and critical values ``u^b``, letter-indexed.

        ``u^t`` of a letter is the total length of the letters preceding it in
        the top row; ``u^b`` uses the bottom row.
        """
        u_t, u_b = {}, {}
        acc = Fraction(0)
        for a in self.datum.top:
            u_t[a] = acc
            acc += self.length(a)
        acc = Fraction(0)
        for a in self.datum.bottom:
            u_b[a] = acc
            acc += self.length(a)
        return u_t, u_b

    def top_intervals(self):
        """Continuity intervals ``(letter, lo, hi)`` left to right."""
        u_t, _ = self.breakpoints()
        return [(a, u_t[a], u_t[a] + self.length(a)) for a in self.datum.top]

    def letter_at(self, x):
        """Letter whose top interval contains ``x``."""
        if x < 0 or x >= self.total:
            raise OutOfDomain(f"{x} outside [0, {self.total})")
        acc = Fraction(0)
        for a in self.datum.top:
            acc += self.length(a)
            if x < acc:
                return a
        raise OutOfDomain(f"{x} outside [0, {self.total})")

    def eval(self, x):
        """Image of ``x``: translate by the letter's displacement."""
        a = self.letter_at(x)
        u_t, u_b = self.breakpoints()
        return x + (u_b[a] - u_t[a])

    def image_of_interval(self, lo, hi):
        """Exact image of ``[lo, hi)``, which must sit inside one top interval."""
        a = self.letter_at(lo)
        u_t, u_b = self.breakpoints()
        if hi > u_t[a] + self.length(a):
            raise InductionFailed(f"interval [{lo}, {hi}) straddles the right end of letter {a}")
        delta = u_b[a] - u_t[a]
        return lo + delta, hi + delta

    __call__ = eval

    def eval_inverse(self, y):
        if y < 0 or y >= self.total:
            raise OutOfDomain(f"{y} outside [0, {self.total})")
        u_t, u_b = self.breakpoints()
        acc = Fraction(0)
        for a in self.datum.bottom:
            acc += self.length(a)
            if y < acc:
                return y - (u_b[a] - u_t[a])
        raise OutOfDomain(f"{y} outside [0, {self.total})")

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
        kind = "t" if lt > lb else "b"
        winner = alpha_t if kind == "t" else alpha_b
        loser = alpha_b if kind == "t" else alpha_t
        arrow = rauzy_step(self.datum, kind)
        assert (arrow.winner, arrow.loser) == (winner, loser)
        new_lengths = list(self.lengths)
        w = self.datum.alphabet.index(winner)
        l = self.datum.alphabet.index(loser)
        new_lengths[w] = new_lengths[w] - new_lengths[l]
        return ExactIET(arrow.target, tuple(new_lengths)), arrow

    def rauzy_path(self, r: int) -> InductionResult:
        """Iterate induction up to ``r`` steps, stopping early on a tie."""
        return induce(self, r)

    def find_connection(self, n_max: int):
        """Search for a critical orbit collision ``T^n(u^b_beta) = u^t_alpha``.

        Only letters with ``pi_b(beta) >= 2`` and ``pi_t(alpha) >= 2`` count.
        Returns the first hit in lexicographic ``(beta, alpha, n)`` order
        (letters compared by alphabet position), or None within the bound.
        The search horizon is supplied by the caller; absence of a hit within
        ``n_max`` is not a renormalizability certificate.
        """
        u_t, u_b = self.breakpoints()
        targets = {u_t[a]: a for a in self.datum.alphabet if self.datum.pi_t(a) >= 2}
        hits = []
        for beta in self.datum.alphabet:
            if self.datum.pi_b(beta) < 2:
                continue
            x = u_b[beta]
            for n in range(n_max + 1):
                if x in targets:
                    hits.append((beta, targets[x], n))
                x = self.eval(x)
        if not hits:
            return None
        index = {a: i for i, a in enumerate(self.datum.alphabet)}
        return min(hits, key=lambda h: (index[h[0]], index[h[1]], h[2]))


def in_cone(lengths, path: RauzyPath) -> bool:
    """Exact test that a length vector lies in the open cone of a path.

    Equivalent to checking that the inverse transposed path matrix sends the
    vector to a strictly positive one: its cone coordinates are all positive.
    """
    vec = _length_vector(lengths, path)
    if any(v <= 0 for v in vec.values()):
        raise ValueError("lengths must be positive")
    return all(v > 0 for v in _replay(vec, path).values())


def cone_coordinates(lengths, path: RauzyPath) -> dict[str, Fraction]:
    """The vector obtained after replaying the path's subtraction steps.

    These are the lengths of the induced map when the test of ``in_cone``
    passes.
    """
    return _replay(_length_vector(lengths, path), path)


def _length_vector(lengths, path: RauzyPath) -> dict[str, Fraction]:
    """``lengths`` (a dict, or a sequence in the path's alphabet order) as fractions."""
    if isinstance(lengths, dict):
        return {a: Fraction(v) for a, v in lengths.items()}
    return {a: Fraction(v) for a, v in zip(path.source.alphabet, lengths)}


def _replay(vec: dict[str, Fraction], path: RauzyPath) -> dict[str, Fraction]:
    """Replay the path on ``vec`` in place: each arrow's winner loses the loser's length."""
    for arrow in path.arrows:
        vec[arrow.winner] -= vec[arrow.loser]
    return vec
