import random
from itertools import permutations
from math import prod

import pytest

from conftest import admissible, int_product
from gietlab.combinatorics import (
    CombinatorialDatum,
    IntMatrix,
    RauzyPath,
    all_admissible_data,
    find_cyclic,
    find_path,
    is_admissible,
    parse_datum,
    parse_datum_text,
    path_matrix,
    rauzy_class,
    rauzy_step,
    reduction,
    return_times,
    sigma_and_cyclicity,
)
from gietlab.errors import (
    DuplicateLetter,
    GietlabError,
    IncompatibleArrows,
    NoRauzyArrow,
    NotAdmissible,
    NotInClass,
    RowMismatch,
)

D4 = parse_datum("A B C D", "D C B A")
D4_STAR = parse_datum("A B D C", "D A C B")
D2 = parse_datum("A B", "B A")


def arrow_rows(alphabet, winner, loser):
    """Rows of an arrow's elementary transvection: column(winner) = e_winner + e_loser."""
    rows = [list(r) for r in IntMatrix.identity(alphabet).rows]
    rows[alphabet.index(loser)][alphabet.index(winner)] = 1
    return tuple(map(tuple, rows))


def undone_arrows(path):
    """Rows of the inverse path matrix: undo the arrows in reverse order, one
    row subtraction each."""
    index = {a: i for i, a in enumerate(path.source.alphabet)}
    rows = [list(r) for r in IntMatrix.identity(path.source.alphabet).rows]
    for arrow in reversed(path.arrows):
        w, l = index[arrow.winner], index[arrow.loser]
        rows[l] = [x - y for x, y in zip(rows[l], rows[w])]
    return tuple(map(tuple, rows))


def determinant(rows):
    """Leibniz expansion, enough for the d <= 5 matrices here."""
    d = len(rows)
    return sum(
        (-1) ** sum(p[i] > p[j] for i in range(d) for j in range(i + 1, d))
        * prod(rows[i][p[i]] for i in range(d))
        for p in permutations(range(d))
    )


# --- independent oracle: a second implementation of the two operations on
# --- plain strings, used to cross-check class enumeration

def _oracle_step(top, bottom, kind):
    top, bottom = list(top), list(bottom)
    if kind == "t":
        winner, loser = top[-1], bottom.pop()
        bottom.insert(bottom.index(winner) + 1, loser)
    else:
        winner, loser = bottom[-1], top.pop()
        top.insert(top.index(winner) + 1, loser)
    return "".join(top), "".join(bottom)


def _oracle_class_size(top, bottom):
    seen = set()
    stack = [(top, bottom)]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        for kind in "tb":
            stack.append(_oracle_step(*node, kind))
    return len(seen)


def test_parse_datum():
    assert parse_datum("A B", "B A").d == 2
    assert parse_datum("A B C D", "D C B A") == D4
    with pytest.raises(RowMismatch):
        parse_datum("A B", "A B C")
    with pytest.raises(DuplicateLetter):
        parse_datum("A A", "A A")
    assert parse_datum_text("A B / B A") == D2
    with pytest.raises(RowMismatch):
        parse_datum_text("A B B A")


def test_is_admissible():
    assert is_admissible(D2)
    assert not is_admissible(parse_datum("A B", "A B"))
    assert is_admissible(D4)
    assert is_admissible(D4_STAR)


def test_sigma_and_cyclicity():
    sigma, cyclic = sigma_and_cyclicity(D4_STAR)
    assert sigma == (2, 4, 1, 3)  # the cycle 1 -> 2 -> 4 -> 3 -> 1
    assert cyclic
    sigma, cyclic = sigma_and_cyclicity(D2)
    assert sigma == (2, 1) and cyclic
    sigma, cyclic = sigma_and_cyclicity(D4)
    assert sigma == (4, 3, 2, 1) and not cyclic


def test_rauzy_step_small():
    arrow = rauzy_step(D2, "t")
    assert arrow.target == D2
    assert (arrow.winner, arrow.loser) == ("B", "A")
    arrow = rauzy_step(D4, "b")
    assert arrow.target == parse_datum("A D B C", "D C B A")
    assert (arrow.winner, arrow.loser) == ("A", "D")


def test_rauzy_step_admissibility_preserved_everywhere():
    for d in range(2, 6):
        letters = "ABCDE"[:d]
        for datum in admissible(letters):
            for kind in "tb":
                assert is_admissible(rauzy_step(datum, kind).target)


def test_worked_example_path():
    path = RauzyPath.from_kinds(D4, "bbbtb")
    assert path.winners == ("A", "A", "A", "D", "B")
    assert path.target == D4_STAR


def test_path_matrix():
    assert path_matrix(RauzyPath(D2)).rows == ((1, 0), (0, 1))
    one = RauzyPath(D2, (rauzy_step(D2, "t"),))  # winner B, loser A
    assert path_matrix(one).rows == ((1, 1), (0, 1))
    path = RauzyPath.from_kinds(D4, "bbbtb")
    assert path_matrix(path).rows == ((2, 0, 0, 1), (1, 1, 0, 0), (1, 0, 1, 0), (2, 1, 0, 1))


def test_path_matrix_equals_the_dense_product_of_arrow_matrices():
    rng = random.Random(7)
    for letters in ("ABCD", "ABCDE"):
        for _ in range(15):
            datum = rng.choice(admissible(letters))
            kinds = "".join(rng.choice("tb") for _ in range(rng.randint(0, 40)))
            path = RauzyPath.from_kinds(datum, kinds)
            dense = IntMatrix.identity(datum.alphabet).rows
            for arrow in path.arrows:
                dense = int_product(arrow_rows(datum.alphabet, arrow.winner, arrow.loser), dense)
            assert path_matrix(path).rows == dense


def test_transposed_inverse_of_worked_example():
    m = path_matrix(RauzyPath.from_kinds(D4, "bbbtb"))
    transposed_inverse = (
        (1, -1, -1, -1),
        (1, 0, -1, -2),
        (0, 0, 1, 0),
        (-1, 1, 1, 2),
    )
    identity = IntMatrix.identity(m.alphabet).rows
    assert int_product(tuple(zip(*m.rows)), transposed_inverse) == identity


def test_return_times():
    q, n = return_times(RauzyPath(D4))
    assert q == {a: 1 for a in "ABCD"} and n == 4
    q, n = return_times(RauzyPath.from_kinds(D4, "bbbtb"))
    assert q == {"A": 3, "B": 2, "C": 2, "D": 4} and n == 11
    q, n = return_times(RauzyPath(D2, (rauzy_step(D2, "t"),)))
    assert q == {"A": 2, "B": 1}


def test_matrix_determinant_and_concatenation():
    rng = random.Random(1)
    for _ in range(20):
        datum = rng.choice(admissible("ABCD"))
        kinds = "".join(rng.choice("tb") for _ in range(rng.randint(0, 30)))
        path = RauzyPath.from_kinds(datum, kinds)
        m = path_matrix(path)
        assert determinant(m.rows) == 1
        cut = rng.randint(0, len(path))
        left = path.prefix(cut)
        right = RauzyPath(left.target, path.arrows[cut:])
        assert int_product(path_matrix(right).rows, path_matrix(left).rows) == m.rows


def test_return_times_nondecreasing_along_path():
    rng = random.Random(2)
    for _ in range(10):
        datum = rng.choice(admissible("ABC"))
        path = RauzyPath.from_kinds(datum, "".join(rng.choice("tb") for _ in range(12)))
        prev = {a: 0 for a in datum.alphabet}
        for r in range(len(path) + 1):
            q, _ = return_times(path.prefix(r))
            assert all(q[a] >= prev[a] for a in datum.alphabet)
            prev = q


def test_rauzy_class_small():
    cls = rauzy_class(D2)
    assert len(cls) == 1
    # both arrows out of D2 loop back to it
    assert all(rauzy_step(D2, kind).target == D2 for kind in "tb")
    cls4 = rauzy_class(D4)
    assert D4_STAR in cls4


def test_rauzy_class_against_oracle():
    for d in range(3, 7):
        letters = "ABCDEF"[:d]
        top = "".join(letters)
        bottom = top[::-1]
        cls = rauzy_class(parse_datum(" ".join(top), " ".join(bottom)))
        assert len(cls) == _oracle_class_size(top, bottom)


def test_rauzy_class_seed_independent():
    for d in (3, 4):
        letters = "ABCD"[:d]
        seed = parse_datum(" ".join(letters), " ".join(reversed(letters)))
        cls = rauzy_class(seed)
        for other in cls.data:
            assert rauzy_class(other).data == cls.data


def test_find_cyclic():
    assert find_cyclic(rauzy_class(D2)) == D2
    witness = find_cyclic(rauzy_class(D4))
    assert witness is not None and sigma_and_cyclicity(witness)[1]
    assert D4_STAR in rauzy_class(D4)


def test_alternating_operations_reach_cyclic_from_hyperelliptic():
    for d in range(2, 7):
        letters = "ABCDEF"[:d]
        datum = parse_datum(" ".join(letters), " ".join(reversed(letters)))
        for first in "tb":
            current = datum
            kind = first
            found = sigma_and_cyclicity(current)[1]
            for _ in range(3 * d):
                current = rauzy_step(current, kind).target
                kind = "t" if kind == "b" else "b"
                if sigma_and_cyclicity(current)[1]:
                    found = True
                    break
            if found:
                break
        assert found, f"no cyclic datum by alternating from d={d}"


def test_find_path():
    cls = rauzy_class(D4)
    assert len(find_path(cls, D4, D4)) == 0
    path = find_path(cls, D4, D4_STAR)
    assert path.target == D4_STAR and len(path) <= 5
    with pytest.raises(NotInClass):
        find_path(cls, D4, parse_datum("A B D C", "D C A B"))


def test_reduction():
    assert reduction(D2, {"A"}) == CombinatorialDatum(("A",), ("A",))
    assert reduction(D4, set("ABCD")) == D4
    five = parse_datum("A B E C D", "E A D C B")
    assert is_admissible(five)
    reduced = reduction(five, {"A", "B", "C"})
    assert reduced == parse_datum("A B C", "A C B")
    assert not is_admissible(reduced)


def test_every_class_with_small_alphabet_has_cyclic_datum():
    # full sweep happens in the acceptance suite; spot-check d <= 4 here
    seen = set()
    for datum in admissible("ABCD"):
        if datum in seen:
            continue
        cls = rauzy_class(datum)
        seen.update(cls.data)
        assert find_cyclic(cls) is not None


def test_all_admissible_count_matches_brute_force():
    letters = "ABC"
    count = 0
    for top in permutations(letters):
        for bottom in permutations(letters):
            ok = all(set(top[:k]) != set(bottom[:k]) for k in range(1, 3))
            count += ok
    assert len(all_admissible_data(letters)) == count


def test_matrix_inverse_property():
    rng = random.Random(40)
    for _ in range(10):
        datum = rng.choice(admissible("ABCDE"))
        path = RauzyPath.from_kinds(datum, "".join(rng.choice("tb") for _ in range(15)))
        m = path_matrix(path)
        inverse = undone_arrows(path)
        assert all(type(x) is int for row in inverse for x in row)
        identity = IntMatrix.identity(datum.alphabet).rows
        assert int_product(m.rows, inverse) == int_product(inverse, m.rows) == identity


def test_rauzy_errors_are_typed_and_name_their_inputs():
    with pytest.raises(NoRauzyArrow, match=r"got 'x' at A B / B A"):
        rauzy_step(D2, "x")
    with pytest.raises(NoRauzyArrow, match=r"A / A has 1"):
        rauzy_step(parse_datum("A", "A"), "t")
    t, b = rauzy_step(D4, "t"), rauzy_step(D4, "b")
    with pytest.raises(IncompatibleArrows, match=r"arrow 1 \(.*--b\(A>D\)--> .*\) does not start at"):
        RauzyPath(D4, (t, b))
    with pytest.raises(IncompatibleArrows, match=r"does not start at A B C D / D A C B"):
        RauzyPath(D4, (t,)).concat(RauzyPath(D4, (b,)))
    with pytest.raises(NotAdmissible, match=r"seed A B / A B is not admissible"):
        rauzy_class(parse_datum("A B", "A B"))
    for error in (NoRauzyArrow, IncompatibleArrows, NotAdmissible):
        assert issubclass(error, GietlabError) and not issubclass(error, ValueError)


def test_memoized_rauzy_step_equals_the_plain_one():
    for data in (admissible("ABCD"), admissible("ABCDE")):
        for datum in data:
            for kind in "tb":
                assert rauzy_step(datum, kind) == rauzy_step.__wrapped__(datum, kind)
    # an equal datum built afresh gets an equal arrow
    fresh = parse_datum("A B C D", "D C B A")
    assert fresh is not D4 and rauzy_step(fresh, "b") == rauzy_step(D4, "b")
    assert is_admissible(fresh) == is_admissible.__wrapped__(fresh)
