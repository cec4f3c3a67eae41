"""Shared builders for randomized sweeps.

Every test draws from an explicitly seeded ``random.Random``, so failures
reproduce deterministically.
"""

from fractions import Fraction
from functools import cache

import gietlab.thurston as thurston
from gietlab.branches import PiecewiseLinear, SmoothParam, Translation
from gietlab.combinatorics import all_admissible_data, parse_datum
from gietlab.errors import OrderViolation
from gietlab.exact_iet import ExactIET
from gietlab.giet import giet_from_branches


@cache
def admissible(letters):
    """``all_admissible_data(letters)``, enumerated once per alphabet; draws
    from it are the draws from a fresh enumeration."""
    return tuple(all_admissible_data(letters))


def orbit_order(ref):
    """The orbit position of each grid point of a reference's model:
    ``orbit_order(ref)[x]`` is the class at grid point ``x``.  It walks the
    orbit of 0 on ``ref.grid`` once and fills the whole table, as
    ``build_reference`` used to."""
    order = [None] * ref.N
    x = 0
    for c in range(ref.N):
        order[x] = c
        x = ref.grid.eval(x)
    return tuple(order)


def class_at(ref, c):
    """The class at orbit position ``c``: ``(alpha_0, c)``, since the orbit
    starts at 0, the critical point of the first top letter."""
    return ref.canonical_label(ref.datum.top[0], c)


def random_exact_iet(rng, d, max_num=60):
    datum = rng.choice(admissible("ABCDE"[:d]))
    lengths = [Fraction(rng.randint(1, max_num)) for _ in range(d)]
    return ExactIET.from_lengths(datum, lengths)


def int_product(a, b):
    """The matrix product of two matrices given as tuples of rows."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def random_lengths(rng, d, floor=0.05):
    raw = [rng.uniform(floor, 1.0) for _ in range(d)]
    total = sum(raw)
    return [x / total for x in raw]


def random_unit_giet(rng, d=None, datum=None):
    """A unit-interval GIET with mixed branch kinds.

    Some letters get translation branches (equal top and bottom lengths); the
    rest get affine, piecewise-linear or smooth branches.
    """
    if datum is None:
        datum = rng.choice(admissible("ABCDE"[:d]))
    d = datum.d
    top = random_lengths(rng, d)
    translated = [i for i in range(d) if rng.random() < 0.3 and d > 1][: d - 1]
    rest = [i for i in range(d) if i not in translated]
    budget = 1.0 - sum(top[i] for i in translated)
    raw = [rng.uniform(0.05, 1.0) for _ in rest]
    scale = budget / sum(raw)
    bottom = list(top)
    for i, r in zip(rest, raw):
        bottom[i] = r * scale

    kinds = {}
    for i, a in enumerate(datum.alphabet):
        if i in translated:
            kinds[a] = "translation"
        else:
            kinds[a] = rng.choice(("affine", "pl", "smooth"))
    ks = {a: rng.uniform(-2.0, 2.0) for a in datum.alphabet}
    mids = {a: rng.uniform(0.25, 0.75) for a in datum.alphabet}
    bends = {a: rng.uniform(0.25, 0.75) for a in datum.alphabet}

    def maker(a, dom, rng_):
        kind = kinds[a]
        if kind == "translation":
            return Translation(dom, rng_)
        if kind == "affine":
            return SmoothParam(dom, rng_, k=0.0)
        if kind == "smooth":
            return SmoothParam(dom, rng_, k=ks[a])
        mx = dom[0] + mids[a] * (dom[1] - dom[0])
        my = rng_[0] + bends[a] * (rng_[1] - rng_[0])
        return PiecewiseLinear(((dom[0], rng_[0]), (mx, my), (dom[1], rng_[1])))

    return giet_from_branches(datum, top, bottom, maker)


def smooth_two_letter_map(top, bottom, k_a, k_b):
    """``A B / B A`` on ``[0, 1)`` with top and bottom lengths ``top`` and
    ``bottom`` for A and smooth branches of parameters ``k_a`` and ``k_b``."""
    ks = {"A": k_a, "B": k_b}
    return giet_from_branches(parse_datum("A B", "B A"), [top, 1 - top], [bottom, 1 - bottom],
                              lambda a, d, r: SmoothParam(d, r, k=ks[a]))


def shrinking_circle_map():
    """A smooth ``A B / B A`` map whose bottom steps shrink B's top interval
    geometrically: 5.2e-11 wide after step 16, and 0.0 after step 29 unless
    the induction stops."""
    return smooth_two_letter_map(0.1709278197011611, 0.8126903632435094,
                                 2.3385689331345194, 0.9141932720703807)


def random_simplex(rng, letters, floor=0.02):
    raw = {a: rng.uniform(floor, 1.0) for a in letters}
    total = sum(raw.values())
    return {a: v / total for a, v in raw.items()}


def breaking_step(k):
    """``thurston.step`` whose k-th call raises ``OrderViolation``, as a
    pullback out of the reference order does; install it with
    ``monkeypatch.setattr(thurston, "step", breaking_step(k))``."""
    original = thurston.step
    calls = []

    def step_breaking_on_call_k(*args):
        calls.append(None)
        if len(calls) == k:
            raise OrderViolation("the pullback broke the reference order")
        return original(*args)

    return step_breaking_on_call_k
