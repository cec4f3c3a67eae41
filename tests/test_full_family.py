import json
import random
from fractions import Fraction

import pytest

from conftest import random_simplex, random_unit_giet
from gietlab import fileio
from gietlab.branches import Affine, Chain, PiecewiseLinear, SmoothParam, Translation
from gietlab.combinatorics import parse_datum
from gietlab.errors import AllZero, DegenerateTau
from gietlab.exact_iet import ExactIET
from gietlab.full_family import apply, boundary_apply, extended_distance, slopes
from gietlab.giet import giet_distance, giet_from_branches, giet_from_iet

D2 = parse_datum("A B", "B A")
D4 = parse_datum("A B C D", "D C B A")
LAMBDA_G = [6 / 11, 2 / 11, 1 / 11, 2 / 11]
FIVE = parse_datum("A B E C D", "E A D C B")  # five branches, two will collapse


def model_giet():
    T = ExactIET.from_lengths(
        D4, {"A": Fraction(6, 11), "B": Fraction(2, 11), "C": Fraction(1, 11), "D": Fraction(2, 11)},
        normalize=False,
    )
    return giet_from_iet(T)


def bottom_lengths(f):
    return {a: hi - lo for a, lo, hi in f.bottom_intervals()}


def test_slopes_identity_when_tau_matches_bottom():
    rng = random.Random(10)
    f = random_unit_giet(rng, d=3)
    sl = slopes(f, bottom_lengths(f))
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in sl.phi.values())
    assert sl.rescale == pytest.approx(1.0, abs=1e-12)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in sl.psi.values())


def test_slopes_on_iet_with_own_lengths():
    f = model_giet()
    sl = slopes(f, LAMBDA_G)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in sl.phi.values())
    assert sl.rescale == pytest.approx(1.0, abs=1e-12)


def test_slopes_equal_tau_on_model():
    f = model_giet()
    sl = slopes(f, [0.25] * 4)
    assert sl.phi["C"] == pytest.approx(11 / 4, rel=1e-12)
    assert sl.phi["A"] == pytest.approx((1 / 4) / (6 / 11), rel=1e-12)
    # phi-weighted bottom lengths always sum to 1
    assert sum(sl.phi[a] * (hi - lo) for a, lo, hi in f.bottom_intervals()) == pytest.approx(1.0)


def test_slopes_rejects_boundary_tau():
    with pytest.raises(DegenerateTau):
        slopes(model_giet(), [0.5, 0.5, 0.0, 0.0])


def test_apply_identity():
    rng = random.Random(11)
    for _ in range(5):
        f = random_unit_giet(rng, d=rng.choice((2, 3, 4)))
        g = apply(f, bottom_lengths(f))
        assert giet_distance(f, g, samples=64) < 1e-11


def test_apply_marks_critical_values():
    g = apply(model_giet(), [0.25] * 4)
    # bottom row order D, C, B, A
    assert g.bottom_breaks["D"] == pytest.approx(0.0, abs=1e-15)
    assert g.bottom_breaks["C"] == pytest.approx(0.25, abs=1e-12)
    assert g.bottom_breaks["B"] == pytest.approx(0.5, abs=1e-12)
    assert g.bottom_breaks["A"] == pytest.approx(0.75, abs=1e-12)
    g.validate()


def test_apply_on_iet_family_gives_iet():
    # deforming a translation map lands on the translation map with the new
    # lengths
    f = model_giet()
    tau = {"A": 0.4, "B": 0.3, "C": 0.2, "D": 0.1}
    g = apply(f, tau)
    T = giet_from_iet(ExactIET.from_lengths(
        D4, {a: Fraction(v).limit_denominator(10**9) for a, v in tau.items()}
    ))
    assert giet_distance(g, T, samples=64) < 1e-9


def regularity(b):
    """The regularity class a deformation must keep: translations become affine."""
    if isinstance(b, (Translation, Affine)):
        return ("affine",)
    if isinstance(b, SmoothParam):
        return ("smooth", b.k)
    if isinstance(b, PiecewiseLinear):
        return ("pl", len(b.nodes))
    return (type(b).__name__,)


def three_part_chain(b, domain, range_):
    return Chain((Affine(domain, b.domain), b, Affine(b.range_, range_)))


def test_apply_preserves_branch_structure():
    rng = random.Random(12)
    for _ in range(10):
        f = random_unit_giet(rng, d=4)
        tau = random_simplex(rng, f.datum.alphabet)
        g = apply(f, tau)
        for a in f.datum.alphabet:
            new = g.branches[a]
            assert regularity(new) == regularity(f.branches[a])
            old = three_part_chain(f.branches[a], new.domain, new.range_)
            lo, hi = new.domain
            for i in range(17):
                x = lo + (hi - lo) * i / 16
                assert new.eval(x) == pytest.approx(old.eval(x), abs=1e-12)


def primitive_and_wrapped_branches():
    """One branch of every kind on ``[0.2, 0.5) -> [0.1, 0.7)``."""
    dom, rng = (0.2, 0.5), (0.1, 0.7)
    smooth = SmoothParam(dom, rng, k=1.3)
    return [
        Translation(dom, (0.3, 0.6)),
        Affine(dom, rng),
        PiecewiseLinear(((0.2, 0.1), (0.3, 0.15), (0.45, 0.5), (0.5, 0.7))),
        smooth,
        SmoothParam(dom, rng, k=0.0),
        Chain((smooth,), (0.25, 0.4), (smooth.eval(0.25), smooth.eval(0.4))),
        Chain((Affine(dom, (0.0, 1.0)), SmoothParam((0.0, 1.0), (0.0, 1.0), -0.8),
               Affine((0.0, 1.0), rng))),
        Chain((smooth,)),
    ]


def test_rescaled_matches_the_three_part_chain():
    new_dom, new_rng = (0.05, 0.3), (0.6, 0.95)
    for b in primitive_and_wrapped_branches():
        new = b.rescaled(new_dom, new_rng)
        old = three_part_chain(b, new_dom, new_rng)
        assert regularity(new) == regularity(b) or isinstance(b, Chain)
        assert new.domain == pytest.approx(new_dom, abs=1e-15)
        assert new.range_ == pytest.approx(new_rng, abs=1e-15)
        for i in range(33):
            x = new_dom[0] + (new_dom[1] - new_dom[0]) * i / 32
            y = new_rng[0] + (new_rng[1] - new_rng[0]) * i / 32
            assert new.eval(x) == pytest.approx(old.eval(x), abs=1e-12)
            assert new.inverse(y) == pytest.approx(old.inverse(y), abs=1e-12)


def test_rescaling_a_chain_twice_stays_flat():
    for b in primitive_and_wrapped_branches():
        if not isinstance(b, Chain):
            continue
        twice = b.rescaled((0.05, 0.3), (0.6, 0.95)).rescaled((0.1, 0.9), (0.0, 1.0))
        assert twice.parts[2:-2] == b.parts
        assert all(isinstance(p, Affine) for p in twice.parts[:2] + twice.parts[-2:])
        assert (twice.domain, twice.range_) == ((0.1, 0.9), (0.0, 1.0))


def test_applying_twice_does_not_nest():
    rng = random.Random(19)
    for _ in range(10):
        f = random_unit_giet(rng, d=rng.choice((2, 3, 4)))
        tau1 = random_simplex(rng, f.datum.alphabet)
        tau2 = random_simplex(rng, f.datum.alphabet)
        twice = apply(apply(f, tau1), tau2)
        for a in f.datum.alphabet:
            assert not isinstance(twice.branches[a], Chain)
            assert regularity(twice.branches[a]) == regularity(f.branches[a])


def test_semigroup_law():
    rng = random.Random(13)
    for _ in range(10):
        f = random_unit_giet(rng, d=rng.choice((2, 3, 4)))
        tau1 = random_simplex(rng, f.datum.alphabet)
        tau2 = random_simplex(rng, f.datum.alphabet)
        lhs = apply(apply(f, tau1), tau2)
        rhs = apply(f, tau2)
        worst = 0.0
        for a in f.datum.alphabet:
            lo, hi = lhs.branches[a].domain
            lo2, hi2 = rhs.branches[a].domain
            assert lo == pytest.approx(lo2, abs=1e-9) and hi == pytest.approx(hi2, abs=1e-9)
            for i in range(257):
                x = lo + (hi - lo) * i / 256
                x2 = min(max(lo2, x), hi2)
                worst = max(worst, abs(lhs.branches[a].eval(x) - rhs.branches[a].eval(x2)))
        assert worst <= 1e-9


def test_rescale_bounds_strict():
    rng = random.Random(14)
    for _ in range(50):
        f = random_unit_giet(rng, d=rng.choice((2, 3, 4, 5)))
        tau = random_simplex(rng, f.datum.alphabet)
        sl = slopes(f, tau)
        tops = {a: hi - lo for a, lo, hi in f.top_intervals()}
        assert min(tops.values()) < sl.rescale < sum(1 / v for v in tops.values())


def test_marking_exactness_random():
    rng = random.Random(15)
    for _ in range(40):
        f = random_unit_giet(rng, d=rng.choice((2, 3, 4)))
        tau = random_simplex(rng, f.datum.alphabet)
        g = apply(f, tau)
        acc = 0.0
        for a in g.datum.bottom:
            assert g.bottom_breaks[a] == pytest.approx(acc, abs=1e-10)
            acc += tau[a]


def test_continuity_in_tau():
    rng = random.Random(16)
    f = random_unit_giet(rng, d=3)
    tau = random_simplex(rng, f.datum.alphabet)
    base = apply(f, tau)
    prev = None
    for eps in (1e-2, 1e-4, 1e-6):
        moved = dict(tau)
        letters = f.datum.alphabet
        moved[letters[0]] += eps
        moved[letters[1]] -= eps
        dist = giet_distance(base, apply(f, moved), samples=64)
        if prev is not None:
            assert dist < prev
        prev = dist
    assert prev < 1e-4


def test_boundary_two_letter():
    f = giet_from_branches(
        D2, [1 / 3, 2 / 3], [1 / 3, 2 / 3], lambda a, d, r: Translation(d, r)
    )
    deg = boundary_apply(f, {"A": 0.0, "B": 1.0})
    assert deg.reduced_datum == parse_datum("B", "B")
    assert deg.removed == ("A",)
    assert deg.singular["A"] == (pytest.approx(0.0), pytest.approx(1.0))
    # the surviving branch is the identity on [0, 1)
    br = deg.regular.branches["B"]
    for i in range(9):
        x = (i + 0.5) / 10
        assert br.eval(x) == pytest.approx(x, abs=1e-12)


def test_boundary_five_branch_double_collapse():
    rng = random.Random(17)
    f = random_unit_giet(rng, datum=FIVE)
    tau = random_simplex(rng, "ABC")
    tau.update({"D": 0.0, "E": 0.0})
    deg = boundary_apply(f, tau)
    assert deg.reduced_datum == parse_datum("A B C", "A C B")
    assert len(deg.singular) == 2
    deg.regular.validate()
    # singular coordinates sit on breakpoints of the regular part or at 1
    anchors_x = sorted([deg.regular.top_breaks[a] for a in "ABC"] + [1.0])
    anchors_y = sorted([deg.regular.bottom_breaks[a] for a in "ABC"] + [1.0])
    for x, y in deg.singular.values():
        assert min(abs(x - t) for t in anchors_x) < 1e-9
        assert min(abs(y - t) for t in anchors_y) < 1e-9


def test_boundary_five_branch_fixed_tau():
    f = random_unit_giet(random.Random(30), datum=FIVE)
    deg = boundary_apply(f, {"A": 0.3, "B": 0.3, "C": 0.4, "D": 0.0, "E": 0.0})
    assert deg.reduced_datum == parse_datum("A B C", "A C B")
    assert deg.removed == ("D", "E")
    deg.regular.validate()
    # the regular part round-trips through its own document
    again = fileio.giet_from_document(json.loads(json.dumps(fileio.giet_document(deg.regular))))
    assert again == deg.regular


def test_boundary_rejects_interior_and_zero():
    f = model_giet()
    with pytest.raises(DegenerateTau):
        boundary_apply(f, [0.25] * 4)
    with pytest.raises(AllZero):
        boundary_apply(f, [0.0] * 4)


def test_boundary_is_limit_of_interior():
    rng = random.Random(18)
    f = random_unit_giet(rng, d=3)
    letters = f.datum.alphabet
    tau0 = {letters[0]: 0.0, letters[1]: 0.45, letters[2]: 0.55}
    deg = boundary_apply(f, tau0)
    prev = None
    for k in (2, 4, 6):
        eps = 10.0 ** -k
        tau = {letters[0]: eps, letters[1]: 0.45 - eps / 2, letters[2]: 0.55 - eps / 2}
        dist = extended_distance(deg, apply(f, tau), samples=64)
        if prev is not None:
            assert dist < prev
        prev = dist
    assert prev < 1e-3
