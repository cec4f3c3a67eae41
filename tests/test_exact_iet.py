import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import admissible, int_product
from gietlab.combinatorics import RauzyPath, parse_datum, path_matrix
from gietlab.errors import BadLengths, GietlabError, InductionFailed, OutOfDomain, TieError
from gietlab.exact_iet import ExactIET

D2 = parse_datum("A B", "B A")
D4 = parse_datum("A B C D", "D C B A")
LAMBDA_G = {"A": Fraction(6, 11), "B": Fraction(2, 11), "C": Fraction(1, 11), "D": Fraction(2, 11)}


def fixture_T2():
    return ExactIET.from_lengths(D2, [Fraction(1, 3), Fraction(2, 3)])


def fixture_Tg():
    return ExactIET.from_lengths(D4, LAMBDA_G, normalize=False)


def test_breakpoints():
    u_t, u_b = fixture_T2().breakpoints()
    assert u_t == {"A": 0, "B": Fraction(1, 3)}
    assert u_b == {"A": Fraction(2, 3), "B": 0}
    _, u_b4 = fixture_Tg().breakpoints()
    assert u_b4["A"] == Fraction(5, 11)
    # the first top letter always starts at 0
    assert fixture_Tg().breakpoints()[0]["A"] == 0


def test_eval_basic():
    T = fixture_T2()
    assert T.eval(Fraction(0)) == Fraction(2, 3)
    assert fixture_Tg().eval(Fraction(0)) == Fraction(5, 11)
    with pytest.raises(OutOfDomain):
        T.eval(Fraction(1))
    with pytest.raises(OutOfDomain):
        T.eval(Fraction(-1, 10))


def test_eval_inverse_roundtrip():
    rng = random.Random(3)
    for T in (fixture_T2(), fixture_Tg()):
        for _ in range(1000):
            x = Fraction(rng.randint(0, 10**6), 10**6 + 1)
            assert T.eval_inverse(T.eval(x)) == x
            assert T.eval(T.eval_inverse(x)) == x


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
    assert ExactIET.from_lengths(D2, [1, 2]).rauzy_path(0).path == RauzyPath(D2)
    # (1/3, 2/3) follows one top arrow, then ties: it is off the cone of "tt"
    assert fixture_T2().rauzy_path(2, "tt").path.kinds != "tt"


def test_lengths_after_steps_match_cone_coordinates():
    rng = random.Random(4)
    for _ in range(25):
        d = rng.choice((2, 3, 4, 5))
        datum = rng.choice(admissible("ABCDE"[:d]))
        lengths = [Fraction(rng.randint(1, 50), 1) for _ in range(d)]
        T = ExactIET.from_lengths(datum, lengths)
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
    u_t, u_b = T.breakpoints()
    assert u_t == {"A": 0, "B": 6, "C": 8, "D": 9} and u_b["A"] == 5
    assert all(type(x) is int for x in [*u_t.values(), *u_b.values(), T.total, T.eval(0)])
    induced = T.rauzy_path(5).map
    assert all(type(x) is int for x in induced.lengths)
    # fraction lengths keep fraction breakpoints, the first one included
    u_t, u_b = fixture_Tg().breakpoints()
    assert all(type(x) is Fraction for x in [*u_t.values(), *u_b.values()])
    assert u_t["A"] == Fraction(0)


def test_integer_grid_is_the_map_scaled_by_its_denominator():
    rng = random.Random(11)
    for _ in range(40):
        datum = rng.choice([D2, D4, parse_datum("A B C", "C B A")])
        T = ExactIET.from_lengths(
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
    T = ExactIET.from_lengths(parse_datum("A B", "A B"), [1, 2])
    # no arrow leaves the datum; order 0 asks for none
    assert T.rauzy_path(0).path.kinds == ""
    with pytest.raises(InductionFailed, match="A B / A B is not admissible"):
        T.rauzy_path(1)


def test_bad_lengths_are_typed_errors_that_name_the_letter():
    with pytest.raises(BadLengths, match=r"length of letter 'A' must be positive, got 0"):
        ExactIET.from_lengths(parse_datum("A B", "B A"), [0, 1])
    with pytest.raises(BadLengths, match=r"letter 'C' must be positive, got -1/11"):
        ExactIET.from_lengths(D4, ["6/11", "2/11", "-1/11", "2/11"], normalize=False)
    with pytest.raises(BadLengths, match=r"A B C D / D C B A needs 4 lengths, one per letter, got 3"):
        ExactIET(D4, (1, 2, 3))
    assert issubclass(BadLengths, GietlabError) and not issubclass(BadLengths, ValueError)


def test_branches_invert_exactly_like_eval_inverse():
    grid, D = fixture_Tg().on_integer_grid()
    fraction_map = fixture_Tg()
    for T, ys in (
        (grid, range(grid.total)),
        (fraction_map, [Fraction(k, 3 * D) for k in range(3 * D)]),
    ):
        u_t, u_b = T.breakpoints()
        for a, br in T.branches.items():
            assert br.domain == (u_t[a], u_t[a] + T.length(a))
            assert br.range_ == (u_b[a], u_b[a] + T.length(a))
        for y in ys:
            a = T.datum.bottom[sum(u_b[b] <= y for b in T.datum.bottom) - 1]
            x = T.branches[a].inverse(y)
            assert x == T.eval_inverse(y) and type(x) is type(T.eval_inverse(y))
            assert T.eval(x) == y
