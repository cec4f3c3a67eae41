"""Permutation pairs, Rauzy operations, classes, paths and the integer cocycle.

A combinatorial datum is a pair of orderings (top and bottom row) of a common
finite alphabet.  The two elementary Rauzy operations act on admissible data;
iterating them generates a Rauzy class, whose oriented graph carries paths.
Every path has an integer matrix, built as a product of elementary
transvections, one per arrow.

>>> pi = parse_datum("A B C D", "D C B A")
>>> is_admissible(pi)
True
>>> arrow = rauzy_step(pi, "b")
>>> arrow.winner, arrow.loser
('A', 'D')
>>> str(arrow.target)
'A D B C / D C B A'

All values are immutable; operations are pure functions.  Deterministic
enumeration uses lexicographic order on the two-row text encoding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import DuplicateLetter, EmptySubset, NotInClass, RowMismatch

KIND_TOP = "t"
KIND_BOTTOM = "b"
KINDS = (KIND_TOP, KIND_BOTTOM)


@dataclass(frozen=True)
class CombinatorialDatum:
    """A pair of rows over a common alphabet.

    ``top`` and ``bottom`` are the letters read off in position order.  The
    alphabet is the sorted tuple of letters; matrices and vectors elsewhere in
    the package are indexed in alphabet order.  Reductions may produce data
    with a single letter; the Rauzy operations themselves require ``d >= 2``.
    """

    top: tuple[str, ...]
    bottom: tuple[str, ...]

    def __post_init__(self):
        if len(self.top) != len(set(self.top)):
            raise DuplicateLetter(f"duplicate letter in top row {self.top}")
        if len(self.bottom) != len(set(self.bottom)):
            raise DuplicateLetter(f"duplicate letter in bottom row {self.bottom}")
        if sorted(self.top) != sorted(self.bottom) or not self.top:
            raise RowMismatch(
                f"rows {' '.join(self.top)!r} and {' '.join(self.bottom)!r} do not match"
            )

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted(self.top))

    @property
    def d(self) -> int:
        return len(self.top)

    def pi_t(self, letter: str) -> int:
        """Position (1-based) of ``letter`` in the top row."""
        return self.top.index(letter) + 1

    def pi_b(self, letter: str) -> int:
        """Position (1-based) of ``letter`` in the bottom row."""
        return self.bottom.index(letter) + 1

    def encode(self) -> str:
        return " ".join(self.top) + " / " + " ".join(self.bottom)

    def __str__(self) -> str:
        return self.encode()


def parse_datum(top_row, bottom_row) -> CombinatorialDatum:
    """Build a datum from two rows given as strings or token sequences.

    >>> str(parse_datum("A B", "B A"))
    'A B / B A'
    """
    top = tuple(top_row.split()) if isinstance(top_row, str) else tuple(top_row)
    bottom = tuple(bottom_row.split()) if isinstance(bottom_row, str) else tuple(bottom_row)
    return CombinatorialDatum(top, bottom)


def parse_datum_text(text: str) -> CombinatorialDatum:
    """Parse the ``"A B / B A"`` encoding."""
    parts = text.split("/")
    if len(parts) != 2:
        raise RowMismatch(f"expected 'top / bottom', got {text!r}")
    return parse_datum(parts[0], parts[1])


def is_admissible(datum: CombinatorialDatum) -> bool:
    """True when no proper prefix of the top row equals the same-size bottom prefix.

    >>> is_admissible(parse_datum("A B", "B A"))
    True
    >>> is_admissible(parse_datum("A B", "A B"))
    False
    """
    for k in range(1, datum.d):
        if set(datum.top[:k]) == set(datum.bottom[:k]):
            return False
    return True


def sigma_and_cyclicity(datum: CombinatorialDatum):
    """Return the composed permutation sigma = pi_b o pi_t^{-1} and whether it is a single d-cycle.

    ``sigma`` is a tuple with 1-based semantics: ``sigma[i-1]`` is the image of i.
    """
    sigma = tuple(datum.pi_b(datum.top[i]) for i in range(datum.d))
    seen = 1
    j = sigma[0]
    while j != 1:
        j = sigma[j - 1]
        seen += 1
    return sigma, seen == datum.d


@dataclass(frozen=True)
class RauzyArrow:
    """One elementary operation: source datum, kind, winner/loser, target datum."""

    source: CombinatorialDatum
    kind: str
    winner: str
    loser: str
    target: CombinatorialDatum

    def __str__(self) -> str:
        return f"{self.source} --{self.kind}({self.winner}>{self.loser})--> {self.target}"


def rauzy_step(datum: CombinatorialDatum, kind: str) -> RauzyArrow:
    """Apply the top or bottom operation to an admissible datum.

    The winner of the top operation is the last letter of the top row; the
    loser (last letter of the bottom row) is moved right after the winner's
    position in the bottom row.  The bottom operation is symmetric.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be 't' or 'b', got {kind!r}")
    if datum.d < 2:
        raise ValueError("Rauzy operations need at least two letters")
    alpha_t = datum.top[-1]
    alpha_b = datum.bottom[-1]
    if kind == KIND_TOP:
        winner, loser = alpha_t, alpha_b
        p = datum.pi_b(winner)
        new_bottom = datum.bottom[:p] + (loser,) + datum.bottom[p : datum.d - 1]
        target = CombinatorialDatum(datum.top, new_bottom)
    else:
        winner, loser = alpha_b, alpha_t
        p = datum.pi_t(winner)
        new_top = datum.top[:p] + (loser,) + datum.top[p : datum.d - 1]
        target = CombinatorialDatum(new_top, datum.bottom)
    return RauzyArrow(datum, kind, winner, loser, target)


@dataclass(frozen=True)
class RauzyPath:
    """A compatible concatenation of arrows (possibly empty)."""

    source: CombinatorialDatum
    arrows: tuple[RauzyArrow, ...] = ()

    def __post_init__(self):
        prev = self.source
        for a in self.arrows:
            if a.source != prev:
                raise ValueError("arrows are not compatible")
            prev = a.target

    @property
    def target(self) -> CombinatorialDatum:
        return self.arrows[-1].target if self.arrows else self.source

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def kinds(self) -> str:
        return "".join(a.kind for a in self.arrows)

    @property
    def winners(self) -> tuple[str, ...]:
        return tuple(a.winner for a in self.arrows)

    def concat(self, other: "RauzyPath") -> "RauzyPath":
        if other.source != self.target:
            raise ValueError("paths are not composable")
        return RauzyPath(self.source, self.arrows + other.arrows)

    def prefix(self, r: int) -> "RauzyPath":
        return RauzyPath(self.source, self.arrows[:r])

    @classmethod
    def from_kinds(cls, datum: CombinatorialDatum, kinds: str) -> "RauzyPath":
        arrows = []
        current = datum
        for k in kinds:
            arrow = rauzy_step(current, k)
            arrows.append(arrow)
            current = arrow.target
        return cls(datum, tuple(arrows))

    def __str__(self) -> str:
        return f"{self.source} [{self.kinds}]"


@dataclass(frozen=True)
class IntMatrix:
    """Dense square integer matrix indexed by the letters of an alphabet.

    Entries are Python ints, so products along long paths never overflow.
    """

    alphabet: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def identity(cls, alphabet) -> "IntMatrix":
        alphabet = tuple(alphabet)
        d = len(alphabet)
        return cls(alphabet, tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @classmethod
    def arrow_matrix(cls, alphabet, winner: str, loser: str) -> "IntMatrix":
        """Elementary transvection: column(winner) = e_winner + e_loser."""
        alphabet = tuple(alphabet)
        d = len(alphabet)
        w, l = alphabet.index(winner), alphabet.index(loser)
        rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        rows[l][w] = 1
        return cls(alphabet, tuple(tuple(r) for r in rows))

    def entry(self, row_letter: str, col_letter: str) -> int:
        return self.rows[self.alphabet.index(row_letter)][self.alphabet.index(col_letter)]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        assert self.alphabet == other.alphabet
        d = len(self.alphabet)
        b = other.rows
        rows = tuple(
            tuple(sum(self.rows[i][k] * b[k][j] for k in range(d)) for j in range(d))
            for i in range(d)
        )
        return IntMatrix(self.alphabet, rows)

    def row_sums(self) -> dict[str, int]:
        return {a: sum(self.rows[i]) for i, a in enumerate(self.alphabet)}

    def col_sums(self) -> dict[str, int]:
        d = len(self.alphabet)
        return {a: sum(self.rows[i][j] for i in range(d)) for j, a in enumerate(self.alphabet)}

    def transpose(self) -> "IntMatrix":
        d = len(self.alphabet)
        return IntMatrix(self.alphabet, tuple(tuple(self.rows[i][j] for i in range(d)) for j in range(d)))

    def det(self) -> int:
        """Exact determinant by fraction-free elimination."""
        d = len(self.alphabet)
        m = [[Fraction(x) for x in row] for row in self.rows]
        det = Fraction(1)
        for col in range(d):
            pivot = next((r for r in range(col, d) if m[r][col] != 0), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, d):
                factor = m[r][col] * inv
                if factor:
                    m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
        num = det
        assert num.denominator == 1
        return num.numerator

    def inverse(self) -> "IntMatrix":
        """Exact inverse; entries must come out integral (det = +-1)."""
        d = len(self.alphabet)
        m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
             for i, row in enumerate(self.rows)]
        for col in range(d):
            pivot = next(r for r in range(col, d) if m[r][col] != 0)
            m[col], m[pivot] = m[pivot], m[col]
            inv = 1 / m[col][col]
            m[col] = [a * inv for a in m[col]]
            for r in range(d):
                if r != col and m[r][col]:
                    factor = m[r][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
        rows = []
        for i in range(d):
            row = m[i][d:]
            assert all(x.denominator == 1 for x in row)
            rows.append(tuple(x.numerator for x in row))
        return IntMatrix(self.alphabet, tuple(rows))

    def apply(self, vec: dict) -> dict:
        """Matrix times a letter-indexed vector."""
        d = len(self.alphabet)
        return {
            a: sum(self.rows[i][j] * vec[self.alphabet[j]] for j in range(d))
            for i, a in enumerate(self.alphabet)
        }

    def __str__(self) -> str:
        width = max(len(str(x)) for row in self.rows for x in row)
        lines = ["  ".join(str(x).rjust(width) for x in row) for row in self.rows]
        return "\n".join(f"{a}: [{line}]" for a, line in zip(self.alphabet, lines))


def path_matrix(path: RauzyPath) -> IntMatrix:
    """Cocycle matrix of a path: product of arrow transvections, later arrows on the left.

    Left-multiplying by an arrow's transvection adds the winner's row to the
    loser's row, so each arrow costs one row addition.
    """
    alphabet = path.source.alphabet
    index = {a: i for i, a in enumerate(alphabet)}
    rows = [list(r) for r in IntMatrix.identity(alphabet).rows]
    for arrow in path.arrows:
        w, l = index[arrow.winner], index[arrow.loser]
        rows[l] = [x + y for x, y in zip(rows[l], rows[w])]
    return IntMatrix(alphabet, tuple(map(tuple, rows)))


def return_times(path: RauzyPath):
    """Row sums of the path matrix plus their total.

    Returns ``(q, N)`` where ``q`` maps each letter to the return time of its
    induced subinterval and ``N`` is the sum of all return times.
    """
    q = path_matrix(path).row_sums()
    return q, sum(q.values())


def path_predicates(path: RauzyPath):
    """``(is_positive, is_complete)``: all matrix entries > 0 / every letter wins."""
    m = path_matrix(path)
    is_positive = all(x > 0 for row in m.rows for x in row)
    is_complete = set(path.winners) == set(path.source.alphabet)
    return is_positive, is_complete


@dataclass(frozen=True)
class RauzyClass:
    """Closure of a datum under both operations, with all outgoing arrows.

    ``data`` is sorted lexicographically on the text encoding, so enumeration
    order is reproducible.
    """

    data: tuple[CombinatorialDatum, ...]
    arrows: tuple[RauzyArrow, ...]
    _members: frozenset = field(repr=False, hash=False, compare=False, default=frozenset())

    def __contains__(self, datum: CombinatorialDatum) -> bool:
        return datum in self._members

    def __len__(self) -> int:
        return len(self.data)


def rauzy_class(seed: CombinatorialDatum) -> RauzyClass:
    """Breadth-first closure of ``seed`` under both Rauzy operations."""
    if not is_admissible(seed):
        raise ValueError(f"seed {seed} is not admissible")
    seen = {seed}
    queue = deque([seed])
    arrows = []
    while queue:
        current = queue.popleft()
        for kind in (KIND_BOTTOM, KIND_TOP):
            arrow = rauzy_step(current, kind)
            arrows.append(arrow)
            if arrow.target not in seen:
                seen.add(arrow.target)
                queue.append(arrow.target)
    data = tuple(sorted(seen, key=CombinatorialDatum.encode))
    order = {d: i for i, d in enumerate(data)}
    arrows.sort(key=lambda a: (order[a.source], a.kind))
    return RauzyClass(data, tuple(arrows), frozenset(seen))


def find_cyclic(cls: RauzyClass):
    """First cyclic datum in enumeration order, or None when the class has none."""
    for datum in cls.data:
        if sigma_and_cyclicity(datum)[1]:
            return datum
    return None


def find_path(cls: RauzyClass, start: CombinatorialDatum, end: CombinatorialDatum) -> RauzyPath:
    """A shortest path between two members of the class (breadth-first)."""
    if start not in cls or end not in cls:
        raise NotInClass(f"endpoint outside the class of {cls.data[0]}")
    if start == end:
        return RauzyPath(start)
    parent: dict[CombinatorialDatum, RauzyArrow] = {}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for kind in (KIND_BOTTOM, KIND_TOP):
            arrow = rauzy_step(current, kind)
            if arrow.target not in parent and arrow.target != start:
                parent[arrow.target] = arrow
                if arrow.target == end:
                    chain = []
                    node = end
                    while node != start:
                        chain.append(parent[node])
                        node = parent[node].source
                    return RauzyPath(start, tuple(reversed(chain)))
                queue.append(arrow.target)
    raise NotInClass(f"{end} unreachable from {start}")


def reduction(datum: CombinatorialDatum, keep) -> CombinatorialDatum:
    """Restrict both rows to a letter subset, re-indexing positions in order.

    The result need not be admissible even when the input is.
    """
    keep = set(keep)
    if not keep:
        raise EmptySubset("cannot reduce onto the empty set")
    if not keep <= set(datum.top):
        raise EmptySubset(f"letters {keep - set(datum.top)} not in the alphabet")
    top = tuple(a for a in datum.top if a in keep)
    bottom = tuple(a for a in datum.bottom if a in keep)
    return CombinatorialDatum(top, bottom)


def all_admissible_data(letters) -> list[CombinatorialDatum]:
    """Every admissible datum over the given letters, in lexicographic order."""
    from itertools import permutations

    letters = tuple(letters)
    out = []
    for top in permutations(letters):
        for bottom in permutations(letters):
            datum = CombinatorialDatum(top, bottom)
            if is_admissible(datum):
                out.append(datum)
    out.sort(key=CombinatorialDatum.encode)
    return out
