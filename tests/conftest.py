"""Shared builders for randomized sweeps, and the oracles that only the tests
read: the sampled graph distance, the exact IET family and its fraction
reference, the bottom-row inverse, the enumeration of admissible data, the
spot checks of branches and maps, and the extension of a full family to
the closed simplex.

Every test draws from an explicitly seeded ``random.Random``, so failures
reproduce deterministically.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import permutations

import gietlab.thurston as thurston
from gietlab.branches import EPS_BRANCH, PiecewiseLinear, SmoothParam, Translation
from gietlab.combinatorics import (
    CombinatorialDatum,
    RauzyPath,
    is_admissible,
    parse_datum,
    path_matrix,
)
from gietlab.errors import GietlabError, OrderViolation
from gietlab.exact_iet import ExactIET, lay_out
from gietlab.full_family import _sum, _top_widths
from gietlab.giet import Giet, dynamical_partition, giet_from_branches
from gietlab.value import Frozen


def all_admissible_data(letters) -> list:
    """Every admissible datum over the given letters, in lexicographic order."""
    letters = tuple(letters)
    out = []
    for top in permutations(letters):
        for bottom in permutations(letters):
            datum = CombinatorialDatum(top, bottom)
            if is_admissible(datum):
                out.append(datum)
    out.sort(key=CombinatorialDatum.encode)
    return out


def prefix(path, r):
    """The first ``r`` arrows of a Rauzy path, as a path."""
    return RauzyPath(path.source, path.arrows[:r])


def bottom_letter_at(m, y):
    """Letter whose bottom interval contains ``y``, read by the snap rule of
    ``letter_at``: a point within ``m.snap`` left of a breakpoint is in the
    interval to its right, and one within ``m.snap`` left of 0 in the first."""
    if not -m.snap <= y < m.total:  # a NaN fails every comparison
        raise GietlabError(f"{y} outside [0, {m.total})")
    cuts = [m.bottom_breaks[a] for a in m.datum.bottom[1:]]
    i = bisect_right(cuts, y)
    if i < len(cuts) and cuts[i] - y <= m.snap:
        i += 1
    return m.datum.bottom[i]


def eval_inverse(m, y):
    """The preimage of ``y`` under the map ``m`` (an ``ExactIET`` or a
    ``Giet``), through the branch of the bottom interval that holds it."""
    return m.branches[bottom_letter_at(m, y)].inverse(y)


class ExactIETFamily:
    """The family of exact IETs over a datum: parameter = length vector."""

    def __init__(self, datum):
        self.datum = datum

    def at(self, tau: dict) -> ExactIET:
        return ExactIET.from_lengths(self.datum, tau)


def unit_iet(datum, lengths) -> ExactIET:
    """The exact IET whose lengths are ``lengths`` scaled to total 1."""
    vec = [Fraction(x) for x in lengths]
    total = sum(vec)
    return ExactIET(datum, tuple(x / total for x in vec))


def exact_reference(ref) -> tuple:
    """The reference configuration in fractions: the class at grid point
    ``x`` sits at ``Fraction(x, N)``."""
    return tuple(Fraction(x, ref.N) for x in range(ref.N))


def averaged_loop(family, ref, config, max_iter=100):
    """The bare averaged pullback, in the numbers of ``config``: replace the
    points by the average of them and their pullback (``thurston.step``)
    until the map they select follows the path.  Returns that configuration
    and the number of averaged steps taken."""
    for steps in range(max_iter + 1):
        f = family.at(thurston.tau_of(ref, config))
        if f.rauzy_path(len(ref.path)).path.kinds == ref.path.kinds:
            return config, steps
        pulled = thurston.step(ref, config, f)
        config = tuple((c + p) / 2 for c, p in zip(config, pulled))
    raise GietlabError(f"the averaged loop did not realize the path in {max_iter} steps")


def validate_branch(br, samples: int = 16, eps: float = EPS_BRANCH) -> None:
    """Spot-check monotonicity, endpoint matching and inverse consistency."""
    a, b = br.domain
    c, d = br.range_
    name = f"{type(br).__name__} branch {br.domain} -> {br.range_}"
    if not (b > a and d > c):
        raise GietlabError(f"{name} is degenerate")
    xs = [a + (b - a) * i / samples for i in range(samples + 1)]
    ys = [br.eval(x) for x in xs]
    for x, y0, y1 in zip(xs[1:], ys, ys[1:]):
        if not y1 > y0:
            raise GietlabError(f"{name} is not strictly increasing at x = {x}")
    if not (abs(ys[0] - c) <= eps and abs(ys[-1] - d) <= eps):
        raise GietlabError(f"{name} maps its domain onto [{ys[0]}, {ys[-1]}]")
    for x in xs[1:-1]:
        if not abs(br.inverse(br.eval(x)) - x) <= max(eps, 1e-9 * (b - a)):
            raise GietlabError(f"{name} inverse does not round-trip x = {x}")


def validate_giet(g) -> None:
    """Check that the branches of ``g`` tile both rows and spot-check each branch."""
    g.check_intervals()
    for a in g.datum.alphabet:
        validate_branch(g.branches[a], eps=1e-9)


class EmptySubset(GietlabError):
    """A reduction was requested onto an empty letter set."""


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


class Degeneration(Frozen):
    """Limit object at the simplex boundary: a reduced GIET plus singular points."""

    _fields = ("datum", "reduced_datum", "regular", "singular")

    def __init__(self, datum: CombinatorialDatum, reduced_datum: CombinatorialDatum,
                 regular: Giet, singular: dict):
        self.__dict__.update(datum=datum, reduced_datum=reduced_datum, regular=regular,
                             singular=singular)

    @property
    def removed(self):
        return tuple(sorted(self.singular))


def boundary_apply(f: Giet, tau) -> Degeneration:
    """The paper's deformation at a boundary parameter of the closed simplex:
    zero entries collapse letters.  ``tau`` is checked as
    ``full_family.apply`` checks it, but for its sign: its entries must be
    non-negative, and one at least must be zero.

    Both rows are laid out in full.  A collapsed letter has zero width on
    each, so its top and bottom intervals are points, and together they are
    the singular point its branch graph shrinks to.  Adding a zero width is
    exact, so the kept letters sit where they would without it, and both
    coordinates land on breakpoints of the regular part or at 1.
    """
    values = [tau[a] for a in f.datum.alphabet] if isinstance(tau, dict) else tau
    tau = dict(zip(f.datum.alphabet, map(float, values)))
    if not all(map(math.isfinite, tau.values())):
        raise GietlabError(f"tau entries must be finite numbers, got {tau}")
    if not any(tau.values()):
        raise GietlabError("tau vanishes identically")
    total = _sum(tau.values())
    if not abs(total - 1.0) <= 1e-9:
        raise GietlabError(f"tau must sum to 1, got {total!r}")
    if any(v < 0 for v in tau.values()):
        raise GietlabError(f"tau must be non-negative, got {tau}")
    zeros = {a for a, v in tau.items() if v == 0.0}
    if not zeros:
        raise GietlabError("boundary deformation needs at least one zero entry")
    top, bottom = lay_out(f.datum.top, _top_widths(f, tau)), lay_out(f.datum.bottom, tau)
    branches = {a: f.branches[a].rescaled(top[a], bottom[a]) for a in f.datum.top if a not in zeros}
    reduced = reduction(f.datum, set(branches))
    singular = {a: (top[a][0], bottom[a][0]) for a in zeros}
    return Degeneration(f.datum, reduced, Giet(reduced, 1.0, branches), singular)


def extended_distance(a, b, samples: int = 64) -> float:
    """Sampled graph-Hausdorff distance, summed over letters, between two GIETs
    or degenerations: a collapsed letter compares as its singular point.

    Between two GIETs the approximation error is bounded by the largest gap
    between consecutive sample points along either graph.
    """
    if a.datum != b.datum:
        raise GietlabError(f"{a.datum} != {b.datum}")

    def component(obj, letter):
        if isinstance(obj, Degeneration):
            if letter in obj.singular:
                return [obj.singular[letter]]
            obj = obj.regular
        return _graph(obj, letter, samples)

    return _sum(_hausdorff(component(a, x), component(b, x)) for x in a.datum.alphabet)


def _graph(g, letter: str, samples: int):
    """``samples + 1`` evenly spaced points on the graph of one branch."""
    br = g.branches[letter]
    lo, hi = br.domain
    xs = [lo + (hi - lo) * i / samples for i in range(samples + 1)]
    return [(x, br.eval(x)) for x in xs]


def _hausdorff(p, q):
    def one_sided(src, dst):
        worst = 0.0
        for x, y in src:
            best = min((x - u) ** 2 + (y - v) ** 2 for u, v in dst)
            worst = max(worst, best)
        return worst ** 0.5

    return max(one_sided(p, q), one_sided(q, p))


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
    """The class at orbit position ``c`` (mod N), named after the nearest
    critical position at or before it, found by bisection over the sorted
    critical positions: an oracle apart from ``RefConfig.names`` and
    ``class_of_atom``.  Position 0 is the first top letter's, so one exists."""
    c %= ref.N
    letters = sorted(ref.crit_pos, key=ref.crit_pos.get)
    starts = [ref.crit_pos[a] for a in letters]
    i = bisect_right(starts, c) - 1
    return thurston.LabelClass(letters[i], c - starts[i], c)


def verify_matrix_counts(m, r: int) -> bool:
    """Check every path-matrix entry against brute containment counts.

    Entry (alpha, beta) must equal the number of order-``r`` atoms with letter
    ``alpha`` contained in the top interval of ``beta``: exactly for an
    ``int`` or ``Fraction`` total, to within 1e-9 for a float one, as
    ``giet.check_tiling`` reads exactness.
    """
    partition = dynamical_partition(m, r)
    matrix = path_matrix(partition.path)
    tol = 1e-9 if isinstance(m.total, float) else 0
    counts = {}
    for atom in partition.atoms:
        for beta, lo, hi in m.top_intervals():
            if atom.lo >= lo - tol and atom.hi <= hi + tol:
                counts[(atom.letter, beta)] = counts.get((atom.letter, beta), 0) + 1
                break
        else:
            return False
    for a in m.datum.alphabet:
        for b in m.datum.alphabet:
            if entry(matrix, a, b) != counts.get((a, b), 0):
                return False
    return True


def entry(matrix, row_letter: str, col_letter: str) -> int:
    """The entry of an ``IntMatrix`` in the row and column of two letters."""
    return matrix.rows[matrix.alphabet.index(row_letter)][matrix.alphabet.index(col_letter)]


def random_exact_iet(rng, d, max_num=60):
    datum = rng.choice(admissible("ABCDE"[:d]))
    return unit_iet(datum, [rng.randint(1, max_num) for _ in range(d)])


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


def exchanged_cells(cells, k):
    """``cells`` with the cells ``k`` and ``k + 1`` exchanged."""
    cells = {a: list(c) for a, c in cells.items()}
    (a, i), = [(a, i) for a, c in cells.items() for i, x in enumerate(c) if x == k]
    (b, j), = [(b, j) for b, c in cells.items() for j, x in enumerate(c) if x == k + 1]
    cells[a][i], cells[b][j] = k + 1, k
    return cells


def conjugacy_maps():
    """The smooth 2- and 4-letter maps of the ``conjugacy`` benchmark workload,
    each with the order of its deepest partition there."""
    def smooth(datum, lengths, ks):
        return giet_from_branches(
            datum, lengths, lengths, lambda a, d, rng: SmoothParam(d, rng, k=ks.get(a, 0.0))
        )

    g = (math.sqrt(5) - 1) / 2
    raw = [math.sqrt(p) for p in (2, 3, 5, 7)]
    yield smooth(parse_datum("A B", "B A"), [1 - g, g], {"A": 2.0, "B": -1.5}), 21
    yield smooth(parse_datum("A B C D", "D C B A"), [x / sum(raw) for x in raw],
                 {"A": 1.0, "C": -0.7}), 40
