import random
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from math import gcd

import pytest

from conftest import admissible, eval_inverse, int_product, random_exact_iet, unit_iet
from gietlab.branches import EPS_BRANCH
from gietlab.combinatorics import RauzyPath, parse_datum, path_matrix
from gietlab.errors import GietlabError, InductionFailed, TieError
from gietlab.exact_iet import ExactIET
from gietlab.giet import giet_from_iet

D2 = parse_datum("A B", "B A")
D4 = parse_datum("A B C D", "D C B A")
LAMBDA_G = {"A": Fraction(6, 11), "B": Fraction(2, 11), "C": Fraction(1, 11), "D": Fraction(2, 11)}


def fixture_T2():
    return ExactIET.from_lengths(D2, [Fraction(1, 3), Fraction(2, 3)])


def fixture_Tg():
    return ExactIET.from_lengths(D4, LAMBDA_G)


def test_breakpoints():
    T = fixture_T2()
    u_t, u_b = T.top_breaks, T.bottom_breaks
    assert u_t == {"A": 0, "B": Fraction(1, 3)}
    assert u_b == {"A": Fraction(2, 3), "B": 0}
    u_b4 = fixture_Tg().bottom_breaks
    assert u_b4["A"] == Fraction(5, 11)
    # the first top letter always starts at 0
    assert fixture_Tg().top_breaks["A"] == 0


def test_eval_basic():
    T = fixture_T2()
    assert T.eval(Fraction(0)) == Fraction(2, 3)
    assert fixture_Tg().eval(Fraction(0)) == Fraction(5, 11)
    with pytest.raises(GietlabError, match=r"^1 outside \[0, 1\)$"):
        T.eval(Fraction(1))
    with pytest.raises(GietlabError, match=r"^-1/10 outside \[0, 1\)$"):
        T.eval(Fraction(-1, 10))


def test_eval_inverse_roundtrip():
    rng = random.Random(3)
    for T in (fixture_T2(), fixture_Tg()):
        for _ in range(1000):
            x = Fraction(rng.randint(0, 10**6), 10**6 + 1)
            assert eval_inverse(T, T.eval(x)) == x
            assert T.eval(eval_inverse(T, x)) == x


def test_tower_across_a_breakpoint():
    T = fixture_T2()  # A on [0, 1/3), B on [1/3, 1)
    assert T.tower(Fraction(0), Fraction(1, 3), 2) == [
        (Fraction(0), Fraction(1, 3)), (Fraction(2, 3), Fraction(1))
    ]
    with pytest.raises(InductionFailed, match="letter A"):
        T.tower(Fraction(1, 6), Fraction(1, 2), 2)


def test_rauzy_step_and_tie():
    T = fixture_T2()
    T1, arrow = T.rauzy_step()
    assert arrow.kind == "t" and arrow.winner == "B"
    assert T1.lengths == (Fraction(1, 3), Fraction(1, 3))
    with pytest.raises(TieError):
        T1.rauzy_step()


def test_fibonacci_induction_winners():
    T = ExactIET.from_lengths(D2, [Fraction(8, 21), Fraction(13, 21)])
    result = T.rauzy_path(10)
    assert result.path.winners == ("B", "A", "B", "A", "B")
    assert result.tie
    assert len(result.path) == 5


def test_worked_example_iet_path():
    T = fixture_Tg()
    result = T.rauzy_path(5)
    assert not result.tie
    assert result.path.kinds == "bbbtb"
    assert result.path.winners == ("A", "A", "A", "D", "B")
    assert result.map.lengths == (Fraction(1, 11),) * 4
    assert result.map.datum == parse_datum("A B D C", "D A C B")


def test_rauzy_path_zero():
    T = fixture_T2()
    result = T.rauzy_path(0)
    assert len(result.path) == 0 and result.map is T and not result.tie


def test_in_cone():
    # the cone of a path is the set of lengths whose exact induction follows it
    result = fixture_Tg().rauzy_path(5, "bbbtb")
    assert result.path == RauzyPath.from_kinds(D4, "bbbtb")
    assert result.map.lengths_by_letter() == {a: Fraction(1, 11) for a in "ABCD"}
    assert unit_iet(D2, [1, 2]).rauzy_path(0).path == RauzyPath(D2)
    # (1/3, 2/3) follows one top arrow, then ties: it is off the cone of "tt"
    assert fixture_T2().rauzy_path(2, "tt").path.kinds != "tt"


def test_lengths_after_steps_match_cone_coordinates():
    rng = random.Random(4)
    for _ in range(25):
        d = rng.choice((2, 3, 4, 5))
        datum = rng.choice(admissible("ABCDE"[:d]))
        lengths = [Fraction(rng.randint(1, 50), 1) for _ in range(d)]
        T = unit_iet(datum, lengths)
        result = T.rauzy_path(rng.randint(1, 12))
        # the induced lengths are the cone coordinates: lengths = M^T induced
        (lengths,) = int_product((result.map.lengths,), path_matrix(result.path).rows)
        assert lengths == T.lengths
        # any sibling path differing in the last arrow is off the cone
        kinds = result.path.kinds
        if kinds:
            sibling = kinds[:-1] + ("t" if kinds[-1] == "b" else "b")
            assert T.rauzy_path(len(sibling), sibling).path.kinds != sibling


def test_first_return_identity():
    # iterating eval q_alpha times from the induced interval lands where the
    # induced map sends it
    T = fixture_Tg()
    result = T.rauzy_path(5)
    q = path_matrix(result.path).row_sums()
    induced = result.map
    for a, lo, hi in induced.top_intervals():
        x = (lo + hi) / 2
        y = x
        for _ in range(q[a]):
            y = T.eval(y)
        assert y == induced.eval(x)


def test_integer_lengths_give_integer_breakpoints():
    T = ExactIET(D4, (6, 2, 1, 2))
    u_t, u_b = T.top_breaks, T.bottom_breaks
    assert u_t == {"A": 0, "B": 6, "C": 8, "D": 9} and u_b["A"] == 5
    assert all(type(x) is int for x in [*u_t.values(), *u_b.values(), T.total, T.eval(0)])
    induced = T.rauzy_path(5).map
    assert all(type(x) is int for x in induced.lengths)
    # fraction lengths keep fraction breakpoints, the first one included
    T = fixture_Tg()
    u_t, u_b = T.top_breaks, T.bottom_breaks
    assert all(type(x) is Fraction for x in [*u_t.values(), *u_b.values()])
    assert u_t["A"] == Fraction(0)


def test_integer_grid_is_the_map_scaled_by_its_denominator():
    rng = random.Random(11)
    for _ in range(40):
        datum = rng.choice([D2, D4, parse_datum("A B C", "C B A")])
        T = unit_iet(
            datum, [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(datum.d)]
        )
        grid, D = T.on_integer_grid()
        assert all(type(x) is int for x in grid.lengths)
        assert grid.lengths == tuple(x * D for x in T.lengths)
        # the least such scale: no common factor is left between D and the lengths
        assert gcd(D, *grid.lengths) == 1
        for _ in range(20):
            k = rng.randrange(grid.total)
            assert grid.eval(k) == T.eval(Fraction(k, D)) * D


def test_induction_of_a_non_admissible_datum_is_an_error():
    T = unit_iet(parse_datum("A B", "A B"), [1, 2])
    # no arrow leaves the datum; order 0 asks for none
    assert T.rauzy_path(0).path.kinds == ""
    with pytest.raises(InductionFailed, match="A B / A B is not admissible"):
        T.rauzy_path(1)


def test_bad_lengths_are_typed_errors_that_name_the_letter():
    cases = [
        (lambda: ExactIET.from_lengths(parse_datum("A B", "B A"), [0, 1]),
         r"length of letter 'A' must be positive, got 0"),
        (lambda: ExactIET.from_lengths(D4, ["6/11", "2/11", "-1/11", "2/11"]),
         r"letter 'C' must be positive, got -1/11"),
        (lambda: ExactIET(D4, (1, 2, 3)), r"A B C D / D C B A needs 4 lengths, one per letter, got 3"),
    ]
    for call, message in cases:
        with pytest.raises(GietlabError, match=message) as excinfo:
            call()
        assert isinstance(excinfo.value, GietlabError) and not isinstance(excinfo.value, ValueError)


def test_branches_invert_exactly_like_eval_inverse():
    grid, D = fixture_Tg().on_integer_grid()
    fraction_map = fixture_Tg()
    for T, ys in (
        (grid, range(grid.total)),
        (fraction_map, [Fraction(k, 3 * D) for k in range(3 * D)]),
    ):
        u_t, u_b = T.top_breaks, T.bottom_breaks
        for a, br in T.branches.items():
            assert br.domain == (u_t[a], u_t[a] + T.length(a))
            assert br.range_ == (u_b[a], u_b[a] + T.length(a))
        for y in ys:
            a = T.datum.bottom[sum(u_b[b] <= y for b in T.datum.bottom) - 1]
            x = T.branches[a].inverse(y)
            assert x == eval_inverse(T, y) and type(x) is type(eval_inverse(T, y))
            assert T.eval(x) == y


def test_exact_maps_keep_zero_tolerance():
    """An exact map shares the row code of a float GIET with ``snap = 0``:
    a point any distance left of a breakpoint is read in the letter to its
    left, and nothing left of 0 is in the domain."""
    T = fixture_Tg()
    e = Fraction(1, 10**15)
    assert T.snap == 0
    top, bottom = T.datum.top, T.datum.bottom
    for left, a in zip(top, top[1:]):
        cut = T.top_breaks[a]
        assert T.letter_at(cut - e) == left and T.letter_at(cut) == a
        # a floor of the left letter that ends e past its right end straddles it
        with pytest.raises(InductionFailed, match=f"right end of letter {left}"):
            T.tower(T.top_breaks[left], cut + e, 2)
    for left, b in zip(bottom, bottom[1:]):
        y = T.bottom_breaks[b] - e
        assert eval_inverse(T, y) == T.branches[left].inverse(y)
    for call in (T.letter_at, T.eval, partial(eval_inverse, T)):
        with pytest.raises(GietlabError, match=rf"^{-e} outside \[0, "):
            call(-e)
    with pytest.raises(GietlabError, match=rf"^{-e} outside \[0, "):
        T.tower(-e, e, 2)

    # the float copy still snaps within EPS_BRANCH
    f = giet_from_iet(T)
    assert f.snap == EPS_BRANCH
    d = EPS_BRANCH / 2
    for left, a in zip(top, top[1:]):
        cut = f.top_breaks[a]
        assert f.letter_at(cut - d) == a and f.letter_at(cut - 4 * d) == left
        end = f.branches[left].domain[1]
        assert f.tower(f.top_breaks[left], end + d, 2)[1][1] == f.branches[left].eval(end)
    for left, b in zip(bottom, bottom[1:]):
        y = f.bottom_breaks[b] - d
        assert eval_inverse(f, y) == f.branches[b].inverse(y)
    assert f.letter_at(-d) == top[0]
    with pytest.raises(GietlabError, match=r"outside \[0, "):
        f.letter_at(-4 * d)

    # exact floors keep the type of the lengths
    grid, D = T.on_integer_grid()
    for m, lo, width, kind in ((grid, 3, 1, int), (T, Fraction(3, D), Fraction(1, D), Fraction)):
        floors = m.tower(lo, lo + width, 12)
        assert len(floors) == 12
        assert all(type(x) is kind for floor in floors for x in floor)
        assert type(m.eval(lo)) is kind and type(eval_inverse(m, lo)) is kind


def walked_by_displacement(T, lo, hi, n):
    """The exact tower as a walk that adds each letter's displacement
    ``u^b - u^t``: how ``ExactIET`` built its towers before it shared the
    row model of ``Giet``."""
    u_t, u_b = T.top_breaks, T.bottom_breaks
    row = T.datum.top
    cuts = [u_t[a] for a in row[1:]]
    floors = [(lo, hi)]
    for _ in range(n - 1):
        if not 0 <= lo < T.total:
            raise GietlabError(f"{lo} outside [0, {T.total})")
        a = row[bisect_right(cuts, lo)]
        if hi > u_t[a] + T.length(a):
            raise InductionFailed(f"interval [{lo}, {hi}) straddles the right end of letter {a}")
        lo, hi = lo + (u_b[a] - u_t[a]), hi + (u_b[a] - u_t[a])
        floors.append((lo, hi))
    return floors


def tower_outcome(tower, lo, hi, n):
    try:
        return repr(tower(lo, hi, n))
    except GietlabError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_tower_is_the_walk_by_displacement():
    rng = random.Random(17)
    straddled = 0
    for _ in range(30):
        fraction_map = random_exact_iet(rng, rng.choice((2, 3, 4, 5)))
        grid, D = fraction_map.on_integer_grid()
        for T, unit in ((grid, 1), (fraction_map, Fraction(1, D))):
            result = T.rauzy_path(rng.randint(1, 8))
            q = path_matrix(result.path).row_sums()
            cases = [(lo, hi, q[a]) for a, lo, hi in result.map.top_intervals()]
            for _ in range(10):
                lo = rng.randrange(D) * unit
                cases.append((lo, lo + rng.randint(1, 4) * unit, rng.randint(2, 6)))
            for lo, hi, n in cases:
                got = tower_outcome(T.tower, lo, hi, n)
                assert got == tower_outcome(lambda *a: walked_by_displacement(T, *a), lo, hi, n)
                straddled += got.startswith("InductionFailed")
    assert straddled > 0
