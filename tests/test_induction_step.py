"""One float induction step against a reference copy of the straightforward
step, and the constants that branches and data keep to make the step cheap.

The reference builds every chain through ``Chain.__init__``, keeps both
rows by hand, constructs the induced ``Giet`` through its dataclass
``__init__`` and checks that the rows it kept are the ones the map reads off
its branches; the package's step must give the same map bit for bit.
"""

import json
import math
import random

import pytest

from conftest import admissible, random_exact_iet
from gietlab import fileio
from gietlab.branches import (
    Affine,
    Chain,
    PiecewiseLinear,
    SmoothParam,
    Translation,
    compose,
    restrict,
)
from gietlab.combinatorics import parse_datum, rauzy_step as datum_step
from gietlab.errors import TieError
from gietlab.giet import EPS_TIE, Giet, giet_from_branches, giet_from_iet


def reference_restrict(branch, lo, hi, c, d):
    if isinstance(branch, (Translation, Affine)):
        return type(branch)((lo, hi), (c, d))
    return Chain((branch,), (lo, hi), (c, d))


def reference_step(g):
    """``Giet.rauzy_step`` as it read before the step was made cheap, with
    the tie rule it has since gained: no piece of a split branch may be
    ``EPS_TIE`` long or shorter."""
    alpha_t = g.datum.top[-1]
    alpha_b = g.datum.bottom[-1]
    x_t = g.top_breaks[alpha_t]
    x_b = g.bottom_breaks[alpha_b]
    if abs(x_t - x_b) <= EPS_TIE:
        raise TieError(f"critical data coincide at {x_t}")
    branches = dict(g.branches)
    top_breaks = dict(g.top_breaks)
    br_t, br_b = g.branches[alpha_t], g.branches[alpha_b]
    if x_t < x_b:
        arrow = datum_step(g.datum, "t")
        new_length = x_b
        y = br_t.eval(x_b)
        c, d = br_t.range_
        if y - c <= EPS_TIE or d - y <= EPS_TIE:
            raise TieError(f"letter {alpha_t!r} splits at {y}, too near an end of [{c}, {d})")
        branches[alpha_t] = reference_restrict(br_t, x_t, x_b, c, y)
        branches[alpha_b] = Chain((br_b, reference_restrict(br_t, x_b, g.length, y, d)))
        bottom_breaks = {a: branches[a].range_[0] for a in g.datum.alphabet}
    else:
        arrow = datum_step(g.datum, "b")
        new_length = x_t
        cut = br_b.inverse(x_t)
        lo, hi = br_b.domain
        if cut - lo <= EPS_TIE or hi - cut <= EPS_TIE:
            raise TieError(f"letter {alpha_b!r} splits at {cut}, too near an end of [{lo}, {hi})")
        c, d = br_b.range_
        branches[alpha_b] = reference_restrict(br_b, g.top_breaks[alpha_b], cut, c, x_t)
        branches[alpha_t] = Chain((reference_restrict(br_b, cut, hi, x_t, d), br_t))
        top_breaks[alpha_t] = cut
        bottom_breaks = dict(g.bottom_breaks)
    induced = Giet(arrow.target, new_length, branches)
    # the rows this step still keeps by hand are the ones the map reads off its branches
    for row, kept in (("top_breaks", top_breaks), ("bottom_breaks", bottom_breaks)):
        assert bits(sorted(getattr(induced, row).items())) == bits(sorted(kept.items()))
    return induced, arrow


def bits(value):
    """``repr`` tells every two floats apart, 0.0 from -0.0 included."""
    return repr(value)


def outcome(fn, x):
    """The bits of ``fn(x)``, or the error it raises: deep induction can
    shrink an interval to a point, where a chain overflows on both sides."""
    try:
        return bits(fn(x))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


def assert_same_map(new, ref):
    assert type(new) is Giet and new == ref
    assert new.datum is ref.datum
    assert bits(new.length) == bits(ref.length)
    for row in ("top_breaks", "bottom_breaks"):
        assert bits(list(getattr(new, row).items())) == bits(list(getattr(ref, row).items()))
    assert list(new.branches) == list(ref.branches)
    for a, br in new.branches.items():
        old = ref.branches[a]
        assert type(br) is type(old)
        assert bits((br.domain, br.range_)) == bits((old.domain, old.range_))
        if isinstance(br, Chain):
            assert br.parts == old.parts
        (lo, hi), (c, d) = br.domain, br.range_
        for i in range(5):
            x, y = lo + (hi - lo) * i / 4, c + (d - c) * i / 4
            assert outcome(br.eval, x) == outcome(old.eval, x)
            assert outcome(br.inverse, y) == outcome(old.inverse, y)


def induce_both(g, depth=30):
    """Step ``g`` and its reference copy side by side until ``depth`` or the
    first tie; returns the kinds of the arrows."""
    new, ref = g, g
    kinds = ""
    for _ in range(depth):
        try:
            expected, expected_arrow = reference_step(ref)
        except TieError:
            with pytest.raises(TieError):
                new.rauzy_step()
            break
        rows = bits((list(new.top_breaks.items()), list(new.bottom_breaks.items())))
        branches = dict(new.branches)
        induced, arrow = new.rauzy_step()
        # the step leaves its input as it was, shared rows included
        assert bits((list(new.top_breaks.items()), list(new.bottom_breaks.items()))) == rows
        assert new.branches == branches
        new, ref = induced, expected
        assert arrow is expected_arrow
        assert_same_map(new, ref)
        kinds += arrow.kind
    return kinds


def smooth_giet(rng, sign):
    datum = rng.choice(admissible("ABCDE"[: rng.randint(2, 5)]))

    def lengths():
        raw = [rng.uniform(0.05, 1.0) for _ in datum.alphabet]
        return [x / sum(raw) for x in raw]

    def maker(a, dom, rng_):
        return SmoothParam(dom, rng_, k=sign * rng.uniform(0.2, 3.0))

    return giet_from_branches(datum, lengths(), lengths(), maker)


@pytest.mark.parametrize("sign", [-1.0, 0.0, 1.0])
def test_step_equals_the_reference_on_smooth_giets(sign):
    rng = random.Random(61 + int(sign))
    kinds = "".join(induce_both(smooth_giet(rng, sign)) for _ in range(8))
    assert "t" in kinds and "b" in kinds


def test_step_equals_the_reference_on_a_piecewise_linear_seed():
    d4 = parse_datum("A B C D", "D C B A")
    raw = [2 ** 0.5, 3 ** 0.5, 5 ** 0.5, 7 ** 0.5]
    tops = [x / sum(raw) for x in raw]
    bottoms = tops[1:] + tops[:1]

    def maker(a, dom, rng_):
        mid = ((dom[0] + dom[1]) / 2, rng_[0] + 0.3 * (rng_[1] - rng_[0]))
        return PiecewiseLinear(((dom[0], rng_[0]), mid, (dom[1], rng_[1])))

    # the 25th step would split C's domain 8.5e-11 from its end: a tie, on
    # both sides
    assert len(induce_both(giet_from_branches(d4, tops, bottoms, maker))) == 24


def test_step_equals_the_reference_on_float_copies_of_iets():
    rng = random.Random(62)
    kinds = ""
    for d in (2, 3, 4, 5):
        for _ in range(4):
            f = giet_from_iet(random_exact_iet(rng, d))
            assert all(isinstance(b, Translation) for b in f.branches.values())
            kinds += induce_both(f)
    assert "t" in kinds and "b" in kinds


def test_step_equals_the_reference_when_ranges_are_off_the_bottom_breakpoints():
    # a document may put a branch's range start up to about 1e-12 off its
    # bottom breakpoint; the map is its branches, at the root as after a step
    d4 = parse_datum("A B C D", "D C B A")
    raw = [2 ** 0.5, 3 ** 0.5, 5 ** 0.5, 7 ** 0.5]
    lengths = [x / sum(raw) for x in raw]
    ks = {"A": 1.0, "C": -0.7}
    f = giet_from_branches(
        d4, lengths, lengths, lambda a, d, r: SmoothParam(d, r, k=ks.get(a, 0.0))
    )
    doc = json.loads(json.dumps(fileio.giet_document(f)))
    for a, off in zip("BCD", (4e-13, -6e-13, 3e-13)):
        doc["branches"][a]["range"][0] += off
    g = fileio.giet_from_document(doc)
    # the loaded map reads its rows off its branches, not off the document's rows
    assert g.top_breaks == {a: br.domain[0] for a, br in g.branches.items()}
    assert g.bottom_breaks == {a: br.range_[0] for a, br in g.branches.items()}
    assert len(induce_both(g)) == 30


@pytest.mark.parametrize("k", [0.0, 1.5, -1.5, 700.0, -700.0])
def test_smooth_branch_equals_the_scalar_formula(k):
    domain, range_ = (0.1, 0.6), (0.3, 0.5)
    branch = SmoothParam(domain, range_, k=k)

    def eval_(x):
        (a, b), (c, d) = domain, range_
        t = (x - a) / (b - a)
        s = t if k == 0.0 else math.expm1(k * t) / math.expm1(k)
        return c + (d - c) * s

    def inverse(y):
        (a, b), (c, d) = domain, range_
        s = (y - c) / (d - c)
        t = s if k == 0.0 else math.log1p(s * math.expm1(k)) / k
        return a + (b - a) * t

    rng = random.Random(63)
    xs = [0.1, 0.6] + [0.1 + 0.5 * rng.random() for _ in range(200)]
    # the range is right-open: at its end log1p(-1) fails for k = -700
    ys = [0.3] + [0.3 + 0.2 * rng.random() for _ in range(200)]
    assert bits([branch.eval(x) for x in xs]) == bits([eval_(x) for x in xs])
    assert bits([branch.inverse(y) for y in ys]) == bits([inverse(y) for y in ys])
    assert bits(branch.inverse_many(ys)) == bits([inverse(y) for y in ys])


def test_smooth_branch_computes_its_constants_once(monkeypatch):
    branch = SmoothParam((0.1, 0.6), (0.3, 0.5), k=1.5)
    calls = []
    expm1 = math.expm1
    monkeypatch.setattr(math, "expm1", lambda v: calls.append(v) or expm1(v))
    branch.eval(0.2)
    branch.inverse(0.4)
    branch.inverse_many([0.35, 0.45])
    # only e^{kt} - 1 of ``eval``: e^k - 1 was computed at construction
    assert calls == [1.5 * ((0.2 - 0.1) / (0.6 - 0.1))]


def test_composed_and_restricted_chains_equal_the_chain_constructor():
    smooth = SmoothParam((0.0, 0.5), (0.5, 1.0), k=1.2)
    pl = PiecewiseLinear(((0.5, 0.0), (0.7, 0.3), (1.0, 0.5)))
    shift = Translation((0.5, 1.0), (0.0, 0.5))
    squeeze = Affine((0.5, 1.0), (0.0, 0.25))
    chain = Chain((smooth, pl))
    cases = [
        (compose(smooth, pl), Chain((smooth, pl))),
        (compose(chain, shift), Chain((smooth, pl, shift))),
        (compose(shift, chain), Chain((shift, chain))),
        (compose(chain, chain), Chain((chain, chain))),
        (compose(squeeze, restrict(smooth, 0.0, 0.25, 0.5, 0.75)),
         Chain((squeeze, restrict(smooth, 0.0, 0.25, 0.5, 0.75)))),
        (compose(restrict(shift, 0.6, 0.9, 0.1, 0.4), smooth),
         Chain((Translation((0.6, 0.9), (0.1, 0.4)), smooth))),
        (compose(restrict(chain, 0.1, 0.2, 0.5, 0.6), smooth),
         Chain((Chain((chain,), (0.1, 0.2), (0.5, 0.6)), smooth))),
        (compose(smooth, restrict(squeeze, 0.5, 0.75, 0.0, 0.125)),
         Chain((smooth, Affine((0.5, 0.75), (0.0, 0.125))))),
        (restrict(smooth, 0.1, 0.2, 0.6, 0.7), Chain((smooth,), (0.1, 0.2), (0.6, 0.7))),
        (restrict(chain, 0.1, 0.2, 0.3, 0.4), Chain((chain,), (0.1, 0.2), (0.3, 0.4))),
    ]
    for built, expected in cases:
        assert type(built) is Chain and built == expected
        assert built.parts == expected.parts
        assert all(not isinstance(p, Chain) for p in built.parts)
        assert (built.domain, built.range_) == (expected.domain, expected.range_)
    assert restrict(shift, 0.6, 0.9, 0.1, 0.4) == Translation((0.6, 0.9), (0.1, 0.4))
