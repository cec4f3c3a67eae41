"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned in the assertions.
"""

import random
import time
from fractions import Fraction

from conftest import (
    admissible,
    class_at,
    int_product,
    orbit_order,
    random_simplex,
    random_unit_giet,
)
from gietlab.branches import SmoothParam
from gietlab.combinatorics import (
    IntMatrix,
    RauzyPath,
    find_cyclic,
    find_path,
    parse_datum,
    path_matrix,
    rauzy_class,
    sigma_and_cyclicity,
)
from gietlab.exact_iet import ExactIET
from gietlab.full_family import apply, slopes
from gietlab.giet import (
    dynamical_partition,
    giet_from_branches,
    giet_from_iet,
    partitions_equivalent,
    verify_matrix_counts,
)
from gietlab.semiconjugacy import build_semiconjugacy, residual
from gietlab.thurston import (
    ExactIETFamily,
    GietFamily,
    build_reference,
    realize,
    reference_configuration,
    step,
    tau_of,
)

D2 = parse_datum("A B", "B A")
D4 = parse_datum("A B C D", "D C B A")
FIG_LABELS = ["A0", "A3", "C1", "B1", "C3", "A1", "B0", "C2", "C0", "D0", "A2"]


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, f"runtime {self.elapsed:.1f}s over {self.limit}s"
        return False


def report(number, text, timer):
    print(f"PASS criterion {number}: {text} [{timer.elapsed:.2f}s]")


def smooth_seed(datum, lengths, k=2.0, letter="A"):
    return giet_from_branches(
        datum, lengths, lengths,
        lambda a, d, r: SmoothParam(d, r, k=k if a == letter else 0.0),
    )


def random_exact_iet(rng, d):
    datum = rng.choice(admissible("ABCDE"[:d]))
    return ExactIET.from_lengths(datum, [Fraction(rng.randint(1, 60)) for _ in range(d)])


def test_criterion_1_worked_example_exact():
    with Timer(1.0) as t:
        path = RauzyPath.from_kinds(D4, "bbbtb")
        assert path.winners == ("A", "A", "A", "D", "B")
        assert path.target == parse_datum("A B D C", "D A C B")
        matrix = path_matrix(path)
        assert matrix.rows == ((2, 0, 0, 1), (1, 1, 0, 0), (1, 0, 1, 0), (2, 1, 0, 1))
        transposed_inverse = ((1, -1, -1, -1), (1, 0, -1, -2), (0, 0, 1, 0), (-1, 1, 1, 2))
        assert int_product(tuple(zip(*matrix.rows)), transposed_inverse) == (
            IntMatrix.identity(matrix.alphabet).rows
        )
        q = matrix.row_sums()
        assert q == {"A": 3, "B": 2, "C": 2, "D": 4}
        assert sum(q.values()) == 11
        ref = build_reference(path)
        assert ref.base_iet.lengths_by_letter() == {
            "A": Fraction(6, 11), "B": Fraction(2, 11),
            "C": Fraction(1, 11), "D": Fraction(2, 11),
        }
        assert ref.h == {"A": 0, "B": 1, "C": 1, "D": 3}
    report(1, "worked example reproduced exactly (winners, matrix, inverse, q, N, lengths, h)", t)


def test_criterion_2_figure_partition():
    with Timer(1.0) as t:
        path = RauzyPath.from_kinds(D4, "bbbtb")
        ref = build_reference(path)
        partition = dynamical_partition(ref.base_iet, 5)
        assert len(partition.atoms) == 11
        assert all(length == Fraction(1, 11) for length in partition.lengths())
        labels = [ref.class_of_atom(a.letter, a.index).name for a in partition.atoms]
        assert labels == FIG_LABELS
        assert [class_at(ref, c).name for c in orbit_order(ref)] == FIG_LABELS
    report(2, "order-5 partition of the model map: 11 cells of width 1/11 in figure order", t)


def test_criterion_3_matrix_counts():
    with Timer(30.0) as t:
        rng = random.Random(101)
        done = 0
        while done < 100:
            T = random_exact_iet(rng, rng.choice((3, 4, 5)))
            r = rng.randint(1, 10)
            if len(T.rauzy_path(r).path) < r:
                continue  # tie: resample
            assert verify_matrix_counts(T, r)
            done += 1
    report(3, "matrix entries equal containment counts on 100 random exact maps", t)


def test_criterion_4_path_partition_equivalence():
    with Timer(30.0) as t:
        rng = random.Random(102)
        sharing = 0
        while sharing < 50:
            d = rng.choice((2, 3, 4))
            datum = rng.choice(admissible("ABCD"[:d]))
            r = rng.randint(1, 6)
            path = RauzyPath.from_kinds(datum, "".join(rng.choice("tb") for _ in range(r)))
            matrix = path_matrix(path).rows
            pair = []
            for _ in range(2):
                weights = [Fraction(rng.randint(1, 9)) for _ in datum.alphabet]
                (lengths,) = int_product((weights,), matrix)  # M^T w, as a row vector
                pair.append(ExactIET.from_lengths(datum, lengths))
            p0, p1 = (T.rauzy_path(r).path for T in pair)
            assert p0.kinds == p1.kinds == path.kinds
            assert partitions_equivalent(
                dynamical_partition(pair[0], r), dynamical_partition(pair[1], r)
            )
            sharing += 1
        differing = 0
        while differing < 50:
            d = rng.choice((2, 3, 4))
            datum = rng.choice(admissible("ABCD"[:d]))
            r = rng.randint(1, 6)
            T1 = ExactIET.from_lengths(datum, [Fraction(rng.randint(1, 60)) for _ in range(d)])
            T2 = ExactIET.from_lengths(datum, [Fraction(rng.randint(1, 60)) for _ in range(d)])
            r1, r2 = T1.rauzy_path(r), T2.rauzy_path(r)
            if len(r1.path) < r or len(r2.path) < r or r1.path.kinds == r2.path.kinds:
                continue
            assert not partitions_equivalent(
                dynamical_partition(T1, r), dynamical_partition(T2, r)
            )
            differing += 1
    report(4, "partition equivalence agrees with path equality on 50 + 50 pairs", t)


def test_criterion_5_full_family_laws():
    with Timer(60.0) as t:
        rng = random.Random(103)
        for _ in range(200):
            f = random_unit_giet(rng, d=rng.choice((2, 3, 4)))
            tau = random_simplex(rng, f.datum.alphabet)
            g = apply(f, tau)
            acc = 0.0
            for a in g.datum.bottom:
                assert abs(g.bottom_breaks[a] - acc) <= 1e-10, "marking drift"
                acc += tau[a]
            sl = slopes(f, tau)
            tops = {a: hi - lo for a, lo, hi in f.top_intervals()}
            assert min(tops.values()) < sl.rescale < sum(1 / v for v in tops.values())
            tau2 = random_simplex(rng, f.datum.alphabet)
            lhs = apply(g, tau2)
            rhs = apply(f, tau2)
            for a in f.datum.alphabet:
                lo, hi = lhs.branches[a].domain
                lo2, hi2 = rhs.branches[a].domain
                for i in range(257):
                    x = lo + (hi - lo) * i / 256
                    x2 = min(max(lo2, lo2 + (hi2 - lo2) * i / 256), hi2)
                    assert abs(lhs.branches[a].eval(x) - rhs.branches[a].eval(x2)) <= 1e-9
    report(5, "marking, rescale bounds and the two-parameter collapse on 200 deformations", t)


def pull(family, ref, config):
    """One pullback step under the family map that ``config`` selects."""
    return step(ref, config, family.at(tau_of(ref, config)))


def test_criterion_6_pullback_fixed_point():
    with Timer(30.0) as t:
        rng = random.Random(104)
        cases = [RauzyPath.from_kinds(D4, "bbbtb")]
        while len(cases) < 11:
            d = rng.choice((2, 3, 4))
            datum = rng.choice(admissible("ABCD"[:d]))
            path = RauzyPath.from_kinds(
                datum, "".join(rng.choice("tb") for _ in range(rng.randint(0, 8)))
            )
            if sigma_and_cyclicity(path.target)[1]:
                cases.append(path)
        for path in cases:
            ref = build_reference(path)
            reference = reference_configuration(ref, True).points
            exact = pull(ExactIETFamily(path.source), ref, reference_configuration(ref, True))
            assert exact.points == reference
            approx = pull(
                GietFamily(giet_from_iet(ref.base_iet)), ref, reference_configuration(ref, False)
            )
            assert max(
                abs(a - float(b)) for a, b in zip(approx.points, reference)
            ) <= 1e-12
    report(6, "reference configuration is fixed: exact for rational maps, 1e-12 in floats", t)


def test_criterion_7_realization():
    with Timer(10.0) as t:
        path = RauzyPath.from_kinds(D4, "bbbtb")
        seed = smooth_seed(D4, [6 / 11, 2 / 11, 1 / 11, 2 / 11], k=2.0)
        result = realize(GietFamily(seed), path, max_iter=500)
        assert result.report.realized and result.report.iterations <= 500
        assert result.certificate
        f = GietFamily(seed).at(result.tau)
        assert partitions_equivalent(
            dynamical_partition(f, 5), dynamical_partition(result.ref.base_iet, 5)
        )
    report(7, "worked-example path realized with certificate "
              f"(iterations {result.report.iterations})", t)
    with Timer(30.0) as t2:
        rng = random.Random(105)
        for _ in range(5):
            datum = rng.choice(admissible("ABCD"))
            kinds = "".join(rng.choice("tb") for _ in range(rng.randint(1, 8)))
            target = RauzyPath.from_kinds(datum, kinds)
            seed = smooth_seed(datum, [0.25] * 4, k=2.0, letter=datum.alphabet[0])
            out = realize(GietFamily(seed), target, max_iter=500)
            assert out.report.realized and out.certificate
            fam_map = GietFamily(seed).at(out.tau)
            assert fam_map.rauzy_path(len(target)).path.kinds == target.kinds
    report(7, "5 random length-<=8 paths realized after cyclic completion", t2)


def test_criterion_8_every_small_class_has_cyclic_datum():
    with Timer(60.0) as t:
        for d in range(2, 6):
            letters = "ABCDE"[:d]
            remaining = set(admissible(letters))
            classes = 0
            while remaining:
                seed = min(remaining, key=lambda x: x.encode())
                cls = rauzy_class(seed)
                assert set(cls.data) <= remaining
                remaining -= set(cls.data)
                classes += 1
                assert find_cyclic(cls) is not None, f"class of {seed} has no cyclic datum"
    report(8, "every Rauzy class over at most five letters contains a cyclic datum", t)


def test_criterion_9_semiconjugacy_residuals():
    with Timer(30.0) as t:
        # two-letter case with slowly alternating lengths
        T = ExactIET.from_lengths(D2, [Fraction(2584, 6765), Fraction(4181, 6765)])
        path = T.rauzy_path(15).path
        seed2 = giet_from_branches(
            D2, [0.5, 0.5], [0.5, 0.5],
            lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else -1.5),
        )
        out2 = realize(GietFamily(seed2), path, max_iter=500)
        assert out2.report.realized
        pairs = [(GietFamily(seed2).at(out2.tau), out2.ref.base_iet)]
        # four-letter case built over the worked example
        cls = rauzy_class(D4)
        p5 = RauzyPath.from_kinds(D4, "bbbtb")
        back = find_path(cls, p5.target, D4)
        long_path = p5
        while len(long_path) < 15:
            long_path = long_path.concat(back).concat(p5)
        seed4 = smooth_seed(D4, [6 / 11, 2 / 11, 1 / 11, 2 / 11], k=2.0)
        out4 = realize(GietFamily(seed4), long_path, max_iter=500)
        assert out4.report.realized
        pairs.append((GietFamily(seed4).at(out4.tau), out4.ref.base_iet))
        for f, T_model in pairs:
            values = []
            for r in (5, 10, 15):
                h = build_semiconjugacy(f, T_model, r)
                bound = float(max(dynamical_partition(T_model, r).lengths()))
                value = residual(h, f, T_model, 128)
                assert value <= bound + 1e-9
                values.append(value)
            assert all(b <= 2 * a for a, b in zip(values, values[1:]))
    report(9, "residuals bounded by atom length and shrinking over depths 5, 10, 15", t)


def test_criterion_10_truncation_parameters_settle():
    with Timer(30.0) as t:
        T = ExactIET.from_lengths(D2, [Fraction(377, 987), Fraction(610, 987)])
        full = T.rauzy_path(12).path
        seed = giet_from_branches(
            D2, [0.5, 0.5], [0.5, 0.5],
            lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else -1.5),
        )
        family = GietFamily(seed)
        taus = {}
        for r in (4, 8, 12):
            out = realize(family, full.prefix(r), max_iter=500)
            assert out.report.realized
            taus[r] = out.tau
        gaps = [
            max(abs(taus[8][a] - taus[4][a]) for a in "AB"),
            max(abs(taus[12][a] - taus[8][a]) for a in "AB"),
        ]
        assert gaps[1] < gaps[0], f"gaps {gaps} do not shrink"
    report(10, f"truncation parameters settle: successive gaps {gaps[0]:.2e} -> {gaps[1]:.2e}", t)
