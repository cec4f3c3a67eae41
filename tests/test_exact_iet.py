import random
from fractions import Fraction

import pytest

from gietlab.combinatorics import RauzyPath, parse_datum, path_matrix, rauzy_step
from gietlab.errors import InductionFailed, OutOfDomain, TieError
from gietlab.exact_iet import ExactIET, cone_coordinates, in_cone

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


def test_image_of_interval_across_a_breakpoint():
    T = fixture_T2()  # A on [0, 1/3), B on [1/3, 1)
    assert T.image_of_interval(Fraction(0), Fraction(1, 3)) == (Fraction(2, 3), Fraction(1))
    with pytest.raises(InductionFailed, match="letter A"):
        T.image_of_interval(Fraction(1, 6), Fraction(1, 2))


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
    path = RauzyPath.from_kinds(D4, "bbbtb")
    assert in_cone(LAMBDA_G, path)
    coords = cone_coordinates(LAMBDA_G, path)
    assert coords == {a: Fraction(1, 11) for a in "ABCD"}
    assert in_cone({"A": Fraction(1), "B": Fraction(2)}, RauzyPath(D2))
    two_tops = RauzyPath.from_kinds(D2, "tt")
    assert not in_cone([Fraction(1, 3), Fraction(2, 3)], two_tops)


def test_lengths_after_steps_match_cone_coordinates():
    rng = random.Random(4)
    from gietlab.combinatorics import all_admissible_data

    for _ in range(25):
        d = rng.choice((2, 3, 4, 5))
        datum = rng.choice(all_admissible_data("ABCDE"[:d]))
        lengths = [Fraction(rng.randint(1, 50), 1) for _ in range(d)]
        T = ExactIET.from_lengths(datum, lengths)
        result = T.rauzy_path(rng.randint(1, 12))
        coords = cone_coordinates(T.lengths_by_letter(), result.path)
        assert result.map.lengths_by_letter() == coords
        assert in_cone(T.lengths_by_letter(), result.path)
        # any sibling path differing in the last arrow is off the cone
        if len(result.path):
            flipped = "t" if result.path.arrows[-1].kind == "b" else "b"
            sibling = result.path.prefix(len(result.path) - 1)
            sibling = RauzyPath(
                sibling.source,
                sibling.arrows + (rauzy_step(sibling.target, flipped),),
            )
            assert not in_cone(T.lengths_by_letter(), sibling)


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


def test_find_connection_periodic_half():
    T = ExactIET.from_lengths(D2, [Fraction(1, 2), Fraction(1, 2)])
    hit = T.find_connection(2)
    assert hit == ("A", "B", 0)


def test_find_connection_on_model_lengths():
    # the worked-example lengths are rational, so critical orbits do collide;
    # none of the collisions blocks the 5 clean induction steps (tested above).
    # oracle: enumerate the critical orbits directly and take the first hit.
    T = fixture_Tg()
    u_t, u_b = T.breakpoints()
    hits = []
    for beta in "ABCD":
        if T.datum.pi_b(beta) < 2:
            continue
        x = u_b[beta]
        for n in range(5):
            for alpha in "ABCD":
                if T.datum.pi_t(alpha) >= 2 and x == u_t[alpha]:
                    hits.append((beta, alpha, n))
            x = T.eval(x)
    assert ("A", "B", 3) in hits
    assert T.find_connection(4) == min(hits)
    assert T.find_connection(2) == ("B", "C", 1)


def test_rational_iets_have_connections():
    rng = random.Random(5)
    from gietlab.combinatorics import all_admissible_data

    for _ in range(10):
        d = rng.choice((2, 3))
        datum = rng.choice(all_admissible_data("ABC"[:d]))
        denominator = rng.randint(5, 12)
        cuts = sorted(rng.sample(range(1, denominator), d - 1))
        parts = [Fraction(b - a, denominator) for a, b in zip([0, *cuts], [*cuts, denominator])]
        T = ExactIET.from_lengths(datum, parts, normalize=False)
        assert T.find_connection(2 * denominator) is not None
