import json
import math
import random
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import admissible, random_unit_giet, shrinking_circle_map, smooth_two_letter_map
from gietlab import fileio
from gietlab.branches import (
    EPS_BRANCH,
    Affine,
    Chain,
    PiecewiseLinear,
    SmoothParam,
    Translation,
    compose,
    restrict,
)
from gietlab.combinatorics import RauzyPath, parse_datum, path_matrix
from gietlab.errors import (
    DatumMismatch,
    GietlabError,
    InductionFailed,
    OutOfDomain,
    TieError,
)
from gietlab.exact_iet import ExactIET
from gietlab.full_family import extended_distance
from gietlab.giet import (
    dynamical_partition,
    giet_from_branches,
    giet_from_iet,
    partitions_equivalent,
    verify_matrix_counts,
)

D2 = parse_datum("A B", "B A")
D4 = parse_datum("A B C D", "D C B A")
LAMBDA_G = {"A": Fraction(6, 11), "B": Fraction(2, 11), "C": Fraction(1, 11), "D": Fraction(2, 11)}


def model_iet():
    return ExactIET.from_lengths(D4, LAMBDA_G, normalize=False)


def random_exact_iet(rng, d):
    datum = rng.choice(admissible("ABCDE"[:d]))
    lengths = [Fraction(rng.randint(1, 60)) for _ in range(d)]
    return ExactIET.from_lengths(datum, lengths)


def test_giet_from_iet():
    T = ExactIET.from_lengths(D2, [Fraction(1, 3), Fraction(2, 3)])
    f = giet_from_iet(T)
    f.validate()
    assert all(isinstance(b, Translation) for b in f.branches.values())
    g = giet_from_iet(model_iet())
    assert g.bottom_breaks["A"] == pytest.approx(5 / 11, abs=1e-15)
    rng = random.Random(0)
    for _ in range(100):
        x = rng.random()
        assert abs(f.eval(x) - float(T.eval(Fraction(x)))) < 1e-12


def test_eval_inverse_roundtrip():
    f = giet_from_iet(model_iet())
    rng = random.Random(1)
    for _ in range(200):
        x = rng.random()
        assert f.eval_inverse(f.eval(x)) == pytest.approx(x, abs=1e-12)


def test_nonlinear_eval_monotone_within_branches():
    f = giet_from_branches(
        D2, [0.4, 0.6], [0.6, 0.4], lambda a, d, r: SmoothParam(d, r, k=1.0)
    )
    f.validate()
    for lo, hi in [(0.0, 0.4), (0.4, 1.0)]:
        xs = [lo + (hi - lo) * i / 50 for i in range(50)]
        ys = [f.eval(x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))


def test_induction_matches_exact_iet():
    T = ExactIET.from_lengths(D2, [Fraction(1, 3), Fraction(2, 3)])
    f = giet_from_iet(T)
    induced, arrow = f.rauzy_step()
    exact, exact_arrow = T.rauzy_step()
    assert arrow.kind == exact_arrow.kind == "t"
    assert induced.length == pytest.approx(float(exact.total), abs=1e-12)
    for a, lo, hi in induced.top_intervals():
        x = (lo + hi) / 2
        assert induced.eval(x) == pytest.approx(float(exact.eval(Fraction(x))), abs=1e-12)


def test_top_case_composed_branch_domain():
    # when the top letter wins, the composed branch acts on the loser's top
    # interval
    g = giet_from_branches(D2, [0.3, 0.7], [0.3, 0.7], lambda a, d, r: Translation(d, r))
    induced, arrow = g.rauzy_step()
    assert arrow.kind == "t" and arrow.loser == "A"
    composed = induced.branches[arrow.loser]
    assert isinstance(composed, Chain)
    assert composed.domain == pytest.approx((0.0, 0.3))  # the loser's top interval


def test_tower_across_a_breakpoint():
    g = giet_from_branches(D2, [0.3, 0.7], [0.7, 0.3], lambda a, d, r: PiecewiseLinear((
        (d[0], r[0]), ((d[0] + d[1]) / 2, (r[0] + r[1]) / 2), (d[1], r[1]))))
    floors = g.tower(0.0, 0.3, 2)
    assert floors[0] == (0.0, 0.3) and floors[1] == pytest.approx((0.3, 1.0))
    with pytest.raises(InductionFailed, match=r"\[0.1, 0.5\).*letter A"):
        g.tower(0.1, 0.5, 2)


def test_tie_error():
    g = giet_from_branches(D2, [0.5, 0.5], [0.5, 0.5], lambda a, d, r: Translation(d, r))
    with pytest.raises(TieError):
        g.rauzy_step()


def test_a_split_that_leaves_an_empty_piece_is_a_tie():
    g = shrinking_circle_map()
    result = g.rauzy_path(30)
    assert result.tie and result.path.kinds == "t" + "b" * 14
    # the bottom step would cut A's domain within EPS_TIE of its right end
    with pytest.raises(TieError, match=r"^letter 'A' splits at .*, too near an end of \[0\.0, "):
        result.map.rauzy_step()
    with pytest.raises(InductionFailed, match="tie after 15 of 30 steps"):
        dynamical_partition(g, 30)
    # a top step whose image of x_b is the right end of the top branch's range
    g = smooth_two_letter_map(0.4, 0.4, -1000.0, 0.0)
    with pytest.raises(TieError, match=r"^letter 'B' splits at (\S+), too near an end of "
                                       r"\[0\.0, \1\)$"):
        g.rauzy_path(2).map.rauzy_step()


def test_worked_example_partition_exact():
    P = dynamical_partition(model_iet(), 5)
    assert len(P.atoms) == 11
    assert all(l == Fraction(1, 11) for l in P.lengths())
    assert P.labels() == [
        ("A", 0), ("B", 0), ("D", 0), ("C", 0), ("D", 2), ("A", 1),
        ("B", 1), ("D", 1), ("C", 1), ("D", 3), ("A", 2),
    ]
    P.validate(Fraction(1))


def test_partition_order_zero():
    f = giet_from_iet(model_iet())
    P = dynamical_partition(f, 0)
    assert P.labels() == [("A", 0), ("B", 0), ("C", 0), ("D", 0)]


def test_partition_refinement():
    T = model_iet()
    coarse = dynamical_partition(T, 4)
    fine = dynamical_partition(T, 5)
    for atom in fine.atoms:
        assert any(c.lo <= atom.lo and atom.hi <= c.hi for c in coarse.atoms)


def test_partitions_equivalent():
    T = model_iet()
    P = dynamical_partition(T, 5)
    assert partitions_equivalent(P, P)
    f = giet_from_branches(
        D4,
        [float(LAMBDA_G[a]) for a in "ABCD"],
        [float(LAMBDA_G[a]) for a in "ABCD"],
        lambda a, d, r: SmoothParam(d, r, k=0.5 if a == "A" else 0.0),
    )
    assert f.rauzy_path(5).path.kinds == "bbbtb"
    assert partitions_equivalent(P, dynamical_partition(f, 5))


def test_order_one_partitions_distinguish_kinds():
    top_first = giet_from_branches(D2, [0.3, 0.7], [0.3, 0.7], lambda a, d, r: Translation(d, r))
    bottom_first = giet_from_branches(D2, [0.7, 0.3], [0.7, 0.3], lambda a, d, r: Translation(d, r))
    assert top_first.rauzy_path(1).path.kinds == "t"
    assert bottom_first.rauzy_path(1).path.kinds == "b"
    P = dynamical_partition(top_first, 1)
    Q = dynamical_partition(bottom_first, 1)
    assert not partitions_equivalent(P, Q)


def test_matrix_counts_worked_example():
    T = model_iet()
    assert verify_matrix_counts(T, 5)
    # entry (D, A) = 2: two D-atoms inside the top interval of A
    P = dynamical_partition(T, 5)
    u_t = T.top_breaks
    inside = [
        a for a in P.atoms
        if a.letter == "D" and u_t["A"] <= a.lo and a.hi <= u_t["A"] + T.length("A")
    ]
    assert len(inside) == 2
    assert verify_matrix_counts(T, 0)


def test_matrix_counts_random():
    rng = random.Random(6)
    done = 0
    while done < 12:
        T = random_exact_iet(rng, rng.choice((2, 3, 4)))
        r = rng.randint(1, 10)
        result = T.rauzy_path(r)
        if len(result.path) < r:
            continue
        assert verify_matrix_counts(T, r)
        done += 1


def test_first_return_identity_at_midpoints():
    T = model_iet()
    f = giet_from_iet(T)
    result = f.rauzy_path(5)
    q = path_matrix(result.path).row_sums()
    for a, lo, hi in result.map.top_intervals():
        x = (lo + hi) / 2
        y = x
        for _ in range(q[a]):
            y = f.eval(y)
        assert y == pytest.approx(result.map.eval(x), abs=1e-9)


def test_partition_tiling_sums():
    rng = random.Random(7)
    for _ in range(5):
        T = random_exact_iet(rng, 3)
        result = T.rauzy_path(6)
        if len(result.path) < 6:
            continue
        f = giet_from_iet(T)
        P = dynamical_partition(f, 6)
        assert sum(P.lengths()) == pytest.approx(1.0, abs=T.datum.d * 1e-12)
        P.validate(1.0)


def test_chain_branches_strictly_increasing():
    f = giet_from_branches(
        D4,
        [float(LAMBDA_G[a]) for a in "ABCD"],
        [float(LAMBDA_G[a]) for a in "ABCD"],
        lambda a, d, r: SmoothParam(d, r, k=1.0 if a in "AB" else 0.0),
    )
    result = f.rauzy_path(5)
    for br in result.map.branches.values():
        br.validate(samples=64)


@pytest.mark.parametrize("branch, fault", [
    (Translation((0.5, 0.5), (0.25, 0.25)), "is degenerate"),
    (Translation((0.0, 0.5), (0.5, 0.75)), r"maps its domain onto \[0.5, 1.0\]"),
])
def test_branch_validate_raises_a_typed_error_naming_the_branch(branch, fault):
    with pytest.raises(GietlabError, match=fault) as exc:
        branch.validate()
    assert f"Translation branch {branch.domain} -> {branch.range_}" in str(exc.value)


def test_smooth_k_whose_exponential_overflows_is_a_typed_error():
    # math.expm1(k) overflows above k = log(max float) = 709.78...
    with pytest.raises(GietlabError, match=r"^k must be at most about 709\.78, as e\^k "
                                           r"overflows, got 710\.0$"):
        SmoothParam((0.0, 1.0), (0.0, 1.0), 710.0)
    assert SmoothParam((0.0, 1.0), (0.0, 1.0), 709.0).eval(1.0) == 1.0
    assert SmoothParam((0.0, 1.0), (0.0, 1.0), -1000.0).eval(0.0) == 0.0


def test_partition_validate_raises_a_typed_error_naming_the_atom():
    P = dynamical_partition(model_iet(), 5)
    gap = replace(P, atoms=P.atoms[:3] + P.atoms[4:])
    with pytest.raises(GietlabError, match=r"^atom D2 \[4/11, 5/11\) does not start where atom D0 "
                                           r"ends, 3/11$"):
        gap.validate(Fraction(1))
    short = replace(P, atoms=P.atoms[:-1])
    with pytest.raises(GietlabError, match=r"^atom D3 \[9/11, 10/11\) ends at 10/11, not at the "
                                           r"total length 1$"):
        short.validate(Fraction(1))


def test_path_partition_equivalence_both_directions():
    rng = random.Random(8)
    pairs_same = pairs_diff = 0
    while pairs_same < 6 or pairs_diff < 6:
        d = rng.choice((2, 3, 4))
        T1 = random_exact_iet(rng, d)
        T2 = ExactIET.from_lengths(
            T1.datum, [Fraction(rng.randint(1, 60)) for _ in range(d)]
        )
        r = rng.randint(1, 6)
        r1, r2 = T1.rauzy_path(r), T2.rauzy_path(r)
        if len(r1.path) < r or len(r2.path) < r:
            continue
        same_path = r1.path.kinds == r2.path.kinds
        equivalent = partitions_equivalent(
            dynamical_partition(T1, r), dynamical_partition(T2, r)
        )
        assert same_path == equivalent
        if same_path:
            pairs_same += 1
        else:
            pairs_diff += 1


def test_giet_distance():
    f = giet_from_iet(model_iet())
    assert extended_distance(f, f) == 0.0
    # shift one branch by delta: distance lands within the geometric envelope
    delta = 0.01
    shifted = {}
    for a in "ABCD":
        lo, hi = f.branches[a].domain
        off = delta if a == "C" else 0.0
        shifted[a] = Translation((lo, hi), (f.branches[a].range_[0] + off,
                                            f.branches[a].range_[1] + off))
    from gietlab.giet import Giet

    g = Giet(f.datum, f.length, shifted)
    dist = extended_distance(f, g, samples=256)
    assert delta / 2 <= dist <= 2 * delta
    assert abs(extended_distance(f, g, 64) - extended_distance(g, f, 64)) < 1e-12


def test_giet_distance_datum_mismatch():
    f = giet_from_iet(model_iet())
    g = giet_from_iet(ExactIET.from_lengths(D2, [Fraction(1, 3), Fraction(2, 3)]))
    with pytest.raises(DatumMismatch):
        extended_distance(f, g)


def test_piecewise_linear_branch_in_giet():
    def maker(a, dom, rng_):
        if a == "A":
            mx = 0.5 * (dom[0] + dom[1])
            my = rng_[0] + 0.3 * (rng_[1] - rng_[0])
            return PiecewiseLinear(((dom[0], rng_[0]), (mx, my), (dom[1], rng_[1])))
        return SmoothParam(dom, rng_, k=0.0)

    f = giet_from_branches(D2, [0.4, 0.6], [0.7, 0.3], maker)
    f.validate()
    result = f.rauzy_path(3)
    assert len(result.path) == 3


def test_five_branch_giet_evaluates_each_branch():
    # the five-interval shape: each branch maps its own interval monotonically
    five = parse_datum("A B E C D", "E A D C B")
    rng = random.Random(9)
    from conftest import admissible, random_unit_giet, shrinking_circle_map, smooth_two_letter_map

    f = random_unit_giet(rng, datum=five)
    f.validate()
    for a, lo, hi in f.top_intervals():
        xs = [lo + (hi - lo) * (i + 0.5) / 8 for i in range(8)]
        ys = [f.eval(x) for x in xs]
        assert all(b > a_ for a_, b in zip(ys, ys[1:]))
        rlo, rhi = f.branches[a].range_
        assert all(rlo <= y < rhi for y in ys)


def test_perturbed_nonlinear_giet_keeps_model_path():
    # openness: a mildly nonlinear map near the model follows the same arrows
    lam = [float(LAMBDA_G[a]) for a in "ABCD"]
    for k in (0.05, 0.2, 0.5):
        f = giet_from_branches(
            D4, lam, lam, lambda a, d, r, k=k: SmoothParam(d, r, k=k)
        )
        assert f.rauzy_path(5).path.kinds == "bbbtb"


def test_matrix_counts_on_realized_nonlinear_map():
    from gietlab.thurston import GietFamily, realize
    from gietlab.combinatorics import RauzyPath

    lam = [float(LAMBDA_G[a]) for a in "ABCD"]
    seed = giet_from_branches(
        D4, lam, lam, lambda a, d, r: SmoothParam(d, r, k=1.5 if a == "A" else 0.0)
    )
    path = RauzyPath.from_kinds(D4, "bbbtb")
    out = realize(GietFamily(seed), path)
    f = GietFamily(seed).at(out.tau)
    assert verify_matrix_counts(f, 5)


def test_float_and_exact_induction_agree_on_random_maps():
    rng = random.Random(31)
    checked = 0
    while checked < 15:
        T = random_exact_iet(rng, rng.choice((2, 3, 4)))
        r = rng.randint(1, 8)
        exact = T.rauzy_path(r)
        if len(exact.path) < r:
            continue
        f = giet_from_iet(T)
        approx = f.rauzy_path(r)
        assert approx.path.kinds == exact.path.kinds
        assert approx.map.length == pytest.approx(float(exact.map.total), rel=1e-12)
        checked += 1


def located_per_call(row, breaks, x):
    """The letter of ``row`` whose interval holds ``x``, from a cut list built
    on the call, with the snap forward of points within ``EPS_BRANCH`` left of
    a breakpoint."""
    cuts = [breaks[a] for a in row[1:]]
    i = bisect_right(cuts, x)
    if i < len(cuts) and cuts[i] - x <= EPS_BRANCH:
        i += 1
    return row[i]


def test_cached_cuts_locate_like_a_per_call_cut_list():
    rng = random.Random(44)
    for trial in range(30):
        f = random_unit_giet(rng, d=rng.choice((2, 3, 4, 5)))
        if trial % 2:
            f = f.rauzy_path(rng.randint(1, 6)).map
        for row, breaks in ((f.datum.top, f.top_breaks), (f.datum.bottom, f.bottom_breaks)):
            xs = [rng.random() * f.length for _ in range(50)]
            for a in row[1:]:
                x = breaks[a]
                for _ in range(4):  # the breakpoint and three ulp steps left of it
                    xs.append(x)
                    x = math.nextafter(x, 0.0)
            xs.sort()
            letters = [located_per_call(row, breaks, x) for x in xs]
            if row is f.datum.top:
                assert [f.letter_at(x) for x in xs] == letters
            else:
                pointwise = [f.branches[a].inverse(y) for a, y in zip(letters, xs)]
                assert [f.eval_inverse(y) for y in xs] == pointwise


def batched_branches():
    chain = compose(SmoothParam((0.25, 0.5), (0.125, 0.75), k=1.75),
                    Affine((0.125, 0.75), (0.0, 0.5)))
    return {
        "translation": Translation((0.2, 0.5), (0.4, 0.7)),
        "affine": Affine((0.2, 0.5), (0.1, 0.9)),
        "pl": PiecewiseLinear(((0.0, 0.1), (0.3, 0.5), (0.7, 0.6), (1.0, 0.9))),
        "smooth-k0": SmoothParam((0.1, 0.6), (0.3, 0.5), k=0.0),
        "smooth-k+": SmoothParam((0.1, 0.6), (0.3, 0.5), k=2.5),
        "smooth-k-": SmoothParam((0.1, 0.6), (0.3, 0.5), k=-1.5),
        "restricted-chain": restrict(chain, 0.3, 0.45, chain.eval(0.3), chain.eval(0.45)),
    }


@pytest.mark.parametrize("name", list(batched_branches()))
def test_inverse_many_is_bitwise_the_scalar_inverse(name):
    branch = batched_branches()[name]
    if name == "restricted-chain":
        assert isinstance(branch, Chain) and len(branch.parts) == 2
    rng = random.Random(47)
    c, d = branch.range_
    ys = sorted([c] + [c + (d - c) * rng.random() for _ in range(300)])
    assert branch.inverse_many(ys) == [branch.inverse(y) for y in ys]
    assert branch.inverse_many([]) == []


def test_eval_inverse_rejects_points_outside_the_domain():
    f = giet_from_iet(model_iet())
    for y in (1.0, -1e-9, float("nan")):
        with pytest.raises(OutOfDomain):
            f.eval_inverse(y)
    # within EPS_BRANCH left of 0 is still in the domain, in the first letter
    y = -0.5 * EPS_BRANCH
    assert f.eval_inverse(y) == f.branches[f.datum.bottom[0]].inverse(y)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_nan_and_infinite_points_are_outside_the_domain(x):
    for m in (giet_from_iet(model_iet()), model_iet()):
        for call in (m.eval, m.eval_inverse, m.letter_at):
            with pytest.raises(OutOfDomain):
                call(x)


def flip(kind):
    return "b" if kind == "t" else "t"


def test_early_stopped_path_ends_at_the_first_wrong_arrow():
    rng = random.Random(43)
    checked = 0
    while checked < 20:
        T = random_exact_iet(rng, rng.choice((2, 3, 4)))
        full = T.rauzy_path(10)
        if len(full.path) < 10:
            continue
        for m in (T, giet_from_iet(T)):
            j = rng.randrange(10)
            kinds = full.path.kinds[:j] + flip(full.path.kinds[j]) + full.path.kinds[j + 1:]
            stopped = m.rauzy_path(10, kinds)
            assert stopped.path.kinds == full.path.kinds[: j + 1]
            assert not stopped.tie
            assert stopped.map.datum == m.rauzy_path(j + 1).map.datum
            # the prescribed kinds themselves run to the end
            assert m.rauzy_path(10, full.path.kinds).path.kinds == full.path.kinds
        checked += 1


def test_path_without_kinds_is_the_plain_step_loop():
    rng = random.Random(44)
    for _ in range(10):
        f = random_unit_giet(rng, d=rng.choice((2, 3, 4)))
        result = f.rauzy_path(8)
        m, arrows = f, []
        for _ in range(len(result.path)):
            m, arrow = m.rauzy_step()
            arrows.append(arrow)
        assert result.path.arrows == tuple(arrows)
        assert result.map.length == m.length
        assert result.map.top_breaks == m.top_breaks and result.map.bottom_breaks == m.bottom_breaks
        if not result.tie:
            assert len(result.path) == 8


def _partition_in_fractions(T, r):
    """The order-``r`` partition of an exact IET computed on its fractions."""
    result = T.rauzy_path(r)
    q = path_matrix(result.path).row_sums()
    atoms = []
    for letter, lo, hi in result.map.top_intervals():
        for i, (lo_i, hi_i) in enumerate(T.tower(lo, hi, q[letter])):
            atoms.append((lo_i, hi_i, letter, i))
    return sorted(atoms)


def test_exact_partition_on_the_integer_grid_equals_the_fraction_one():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        T = random_exact_iet(rng, rng.choice((2, 3, 4, 5)))
        r = len(T.rauzy_path(rng.randint(1, 14)).path)
        if r == 0:
            continue
        P = dynamical_partition(T, r)
        assert [tuple(a) for a in P.atoms] == _partition_in_fractions(T, r)
        assert all(type(a.lo) is Fraction and type(a.hi) is Fraction for a in P.atoms)
        checked += 1


def _walked_partition(m, r):
    """The order-``r`` atoms as ``dynamical_partition`` made them before
    ``tower``: each floor's image taken on its own, under the branch of the
    letter at its left end."""
    exact = isinstance(m, ExactIET)
    if exact:
        m, D = m.on_integer_grid()
    result = m.rauzy_path(r)
    q = path_matrix(result.path).row_sums()
    atoms = []
    for letter, lo, hi in result.map.top_intervals():
        for i in range(q[letter]):
            atoms.append((lo, hi, letter, i))
            if i + 1 < q[letter]:
                a = m.letter_at(lo)
                if exact:
                    lo, hi = m.eval(lo), m.eval(lo) + (hi - lo)
                else:
                    br = m.branches[a]
                    assert hi <= br.domain[1] + EPS_BRANCH
                    lo, hi = br.eval(lo), br.eval(min(hi, br.domain[1]))
    atoms.sort(key=lambda atom: atom[0])
    if exact:
        atoms = [(Fraction(lo, D), Fraction(hi, D), a, i) for lo, hi, a, i in atoms]
    return atoms


def _per_atom_document(p, total, labels=None):
    """The partition document as it was built before: one atom at a time,
    each endpoint through ``_num_out``."""
    atoms = []
    for i, atom in enumerate(p.atoms):
        atoms.append(
            {
                "left": fileio._num_out(atom.lo),
                "right": fileio._num_out(atom.hi),
                "letter": atom.letter,
                "index": atom.index,
                "label": labels[i] if labels else f"{atom.letter}{atom.index}",
            }
        )
    return {"kind": "partition", "order": p.order, "total": fileio._num_out(total), "atoms": atoms}


def _partition_cases():
    """30 random GIETs (every other one an induced map, with chain branches)
    and 30 random exact IETs, each with an order its induction reaches."""
    rng = random.Random(1207)
    cases = []
    while len(cases) < 60:
        if len(cases) % 2:
            m = random_exact_iet(rng, rng.choice((2, 3, 4, 5)))
        else:
            m = random_unit_giet(rng, d=rng.choice((2, 3, 4, 5)))
            if len(cases) % 4 == 0:
                m = m.rauzy_path(rng.randint(1, 6)).map
        r = len(m.rauzy_path(rng.randint(1, 16)).path)
        if r:
            cases.append((m, r))
    return cases


def test_tower_partition_equals_the_step_by_step_walk():
    for m, r in _partition_cases():
        atoms = [tuple(a) for a in dynamical_partition(m, r).atoms]
        assert repr(atoms) == repr(_walked_partition(m, r))  # bit for bit


def test_partition_document_bytes_equal_the_per_atom_builder():
    kinds = set()
    for k, (m, r) in enumerate(_partition_cases()):
        p = dynamical_partition(m, r)
        labels = [f"c{j}" for j in range(len(p.atoms))] if k % 3 == 0 else None
        names = labels or [f"{atom.letter}{atom.index}" for atom in p.atoms]
        text = fileio.partition_json(p, m.total, names)
        assert text == json.dumps(_per_atom_document(p, m.total, labels), sort_keys=True)
        kinds.add(type(json.loads(text)["atoms"][0]["left"]))
    assert kinds == {float, str}


PRIMITIVES = (Translation, Affine, PiecewiseLinear, SmoothParam)


def test_induced_branches_are_flat_chains_of_primitives():
    # the 4-letter GIET of the conjugacy benchmark, induced 60 steps
    raw = [2 ** 0.5, 3 ** 0.5, 5 ** 0.5, 7 ** 0.5]
    ks = {"A": 1.0, "C": -0.7}
    lengths = [x / sum(raw) for x in raw]
    f = giet_from_branches(
        D4, lengths, lengths, lambda a, d, r: SmoothParam(d, r, k=ks.get(a, 0.0))
    )
    result = f.rauzy_path(60)
    assert len(result.path) == 60
    for br in result.map.branches.values():
        parts = br.parts if isinstance(br, Chain) else (br,)
        assert all(isinstance(p, PRIMITIVES) for p in parts)


def smooth_or_pl_giet(rng):
    """A unit-interval GIET whose branches are all smooth or piecewise linear."""
    datum = rng.choice(admissible("ABCD"[: rng.choice((2, 3, 4))]))

    def lengths():
        raw = [rng.uniform(0.05, 1.0) for _ in datum.alphabet]
        return [x / sum(raw) for x in raw]

    def maker(a, dom, rng_):
        if rng.random() < 0.5:
            return SmoothParam(dom, rng_, k=rng.uniform(-2.0, 2.0))
        mx = dom[0] + rng.uniform(0.25, 0.75) * (dom[1] - dom[0])
        my = rng_[0] + rng.uniform(0.25, 0.75) * (rng_[1] - rng_[0])
        return PiecewiseLinear(((dom[0], rng_[0]), (mx, my), (dom[1], rng_[1])))

    return giet_from_branches(datum, lengths(), lengths(), maker)


def test_induced_branch_is_the_first_return_map():
    # each part of an induced chain is one application of an original branch,
    # evaluated as the original map evaluates it, so the values are equal
    rng = random.Random(53)
    for _ in range(20):
        f = smooth_or_pl_giet(rng)
        g = f.rauzy_path(20).map
        for a, lo, hi in g.top_intervals():
            for i in range(1, 8):
                x = lo + (hi - lo) * i / 8
                y, steps = f.eval(x), 1
                while y >= g.length:
                    y, steps = f.eval(y), steps + 1
                assert g.eval(x) == y
                br = g.branches[a]
                assert len(br.parts if isinstance(br, Chain) else (br,)) == steps


def test_partition_carries_the_path_of_its_induction():
    T = model_iet()
    for m in (T, giet_from_iet(T)):
        assert dynamical_partition(m, 5).path == m.rauzy_path(5).path


@pytest.mark.parametrize("side", ["top", "bottom"])
def test_lengths_that_do_not_sum_to_one_are_an_error(side):
    good, bad = [0.25, 0.75], [0.25, 0.5]
    top, bottom = (bad, good) if side == "top" else (good, bad)
    with pytest.raises(GietlabError, match=f"{side} lengths must sum to 1, got 0.75"):
        giet_from_branches(D2, top, bottom, lambda a, d, r: Affine(d, r))
