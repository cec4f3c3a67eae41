import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from conftest import conjugacy_maps, shrinking_circle_map
from gietlab.branches import PiecewiseLinear, SmoothParam
from gietlab.combinatorics import parse_datum, path_matrix
from gietlab.errors import GietlabError
from gietlab.exact_iet import ExactIET
from gietlab.giet import dynamical_partition, giet_from_branches, giet_from_iet
from gietlab.semiconjugacy import build_semiconjugacy, defect, residual
from gietlab.thurston import GietFamily, build_reference, realize

D2 = parse_datum("A B", "B A")
D4 = parse_datum("A B C D", "D C B A")


def model_iet():
    return ExactIET.from_lengths(
        D4,
        {"A": Fraction(6, 11), "B": Fraction(2, 11), "C": Fraction(1, 11), "D": Fraction(2, 11)},
    )


from functools import lru_cache


@lru_cache(maxsize=None)
def realized_pair(r_full=15):
    T = ExactIET.from_lengths(D2, [Fraction(2584, 6765), Fraction(4181, 6765)])
    path = T.rauzy_path(r_full).path
    seed = giet_from_branches(
        D2, [0.5, 0.5], [0.5, 0.5],
        lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else -1.5),
    )
    result = realize(GietFamily(seed), path)
    return GietFamily(seed).at(result.report.tau), result.ref.base_iet


def test_identity_when_f_comes_from_T():
    T = model_iet()
    f = giet_from_iet(T)
    h = build_semiconjugacy(f, T, 5)
    for i in range(50):
        x = (i + 0.5) / 50
        assert h.eval(x) == pytest.approx(x, abs=1e-12)
    assert residual(h, f, T, 64) < 1e-12


def test_node_count_matches_partition():
    f, T = realized_pair(8)
    n = sum(q for q in path_matrix(T.rauzy_path(8).path).row_sums().values())
    h = build_semiconjugacy(f, T, 8)
    # nodes: one per atom boundary, plus both unit-interval endpoints
    assert len(h.nodes) == n + 1


def test_path_mismatch_rejected():
    T = model_iet()
    skew = ExactIET.from_lengths(D4, [Fraction(1, 9), Fraction(1, 9), Fraction(1, 9), Fraction(6, 9)])
    f = giet_from_iet(skew)
    assert skew.rauzy_path(5).path.kinds != T.rauzy_path(5).path.kinds
    with pytest.raises(GietlabError, match=r"^order-5 partitions are not combinatorially equivalent$"):
        build_semiconjugacy(f, T, 5)


def test_monotone_with_pinned_endpoints():
    f, T = realized_pair(10)
    h = build_semiconjugacy(f, T, 10)
    assert h.nodes[0] == (0.0, 0.0) and h.nodes[-1] == (1.0, 1.0)
    ys = [y for _, y in h.nodes]
    assert all(b >= a for a, b in zip(ys, ys[1:]))


def test_conjugation_exact_at_interior_node_images():
    # at an atom left endpoint whose forward image is again an atom endpoint,
    # the two sides of the conjugation agree up to rounding
    f, T = realized_pair(10)
    r = 6
    h = build_semiconjugacy(f, T, r)
    pf = dynamical_partition(f, r)
    q = path_matrix(f.rauzy_path(r).path).row_sums()
    for atom in pf.atoms:
        if atom.index >= q[atom.letter] - 1:
            continue  # the last atom's image is not an order-r node
        x = float(atom.lo)
        assert abs(h.eval(f.eval(x)) - float(T.eval(Fraction(h.eval(x)).limit_denominator(10**12)))) < 1e-10


def test_residual_bounded_by_atom_length():
    f, T = realized_pair(12)
    for r in (4, 8, 12):
        h = build_semiconjugacy(f, T, r)
        bound = float(max(hi - lo for lo, hi, _, _ in dynamical_partition(T, r).atoms))
        assert residual(h, f, T, 128) <= bound + 1e-9


def test_residual_decreases_with_depth():
    f, T = realized_pair(15)
    values = [residual(build_semiconjugacy(f, T, r), f, T, 128) for r in (5, 10, 15)]
    assert all(b <= 2 * a for a, b in zip(values, values[1:]))


def exact_residual(h, f, T, sample_count):
    """``residual`` as it was written before: ``T`` evaluated exactly."""
    xs = {0.5 * (x0 + x1) for (x0, _), (x1, _) in zip(h.nodes, h.nodes[1:])}
    xs.update((i + 0.5) / sample_count for i in range(sample_count))
    return max(abs(h.eval(float(f.eval(x))) - float(T.eval(h.eval(x)))) for x in sorted(xs))


def test_residual_through_the_float_model_equals_the_exact_one():
    f, T = realized_pair(15)
    for r in (5, 10, 15):
        h = build_semiconjugacy(f, T, r)
        for samples in (16, 128):
            assert residual(h, f, T, samples) == pytest.approx(
                exact_residual(h, f, T, samples), abs=1e-12
            )


@pytest.mark.parametrize("nodes, message", [
    (((0.0, 0.0), (0.5, 0.2), (0.5, 0.3), (1.0, 1.0)),
     "node x must increase: node 2 has 0.5 after 0.5"),
    (((0.0, 0.0), (0.4, 0.3), (0.6, 0.2), (1.0, 1.0)),
     "node y must increase: node 2 has 0.2 after 0.3"),
], ids=["x-repeats", "y-decreases"])
def test_bad_monotone_map_nodes_are_an_error(nodes, message):
    with pytest.raises(GietlabError, match=message):
        PiecewiseLinear(nodes)


def test_defect_below_the_tower_tops_stays_under_the_largest_target_atom():
    tops_exceed = []
    for f, r in conjugacy_maps():
        partition = dynamical_partition(f, r)
        atoms = partition.atoms
        q = path_matrix(partition.path).row_sums()
        T = build_reference(partition.path).base_iet
        h = build_semiconjugacy(f, T, r)
        largest = max(float(a.hi - a.lo) for a in dynamical_partition(T, r).atoms)
        model = giet_from_iet(T)
        los = [a.lo for a in atoms]
        # the sample points of ``residual``
        xs = {0.5 * (x0 + x1) for (x0, _), (x1, _) in zip(h.nodes, h.nodes[1:])}
        xs.update((i + 0.5) / 128 for i in range(128))
        below = tops = 0.0
        for x in xs:
            atom = atoms[bisect_right(los, x) - 1]
            defect = abs(h.eval(float(f.eval(x))) - model.eval(h.eval(x)))
            if atom.index < q[atom.letter] - 1:
                below = max(below, defect)
            else:
                tops = max(tops, defect)
        assert below <= largest
        assert max(below, tops) == residual(h, f, T)
        tops_exceed.append(tops > largest)
    # at f2@21 the tower tops stay under the largest target atom too; at
    # f4@40 they do not, so that atom bounds no full residual
    assert tops_exceed == [False, True]


def fraction_nodes(f, T, r):
    """The nodes of ``build_semiconjugacy`` as it built them from ``T``'s
    ``Fraction`` partition, each y made by ``float(Fraction)``."""
    nodes = [(0.0, 0.0)]
    for af, at in zip(dynamical_partition(f, r).atoms, dynamical_partition(T, r).atoms):
        x, y = float(af.lo), float(at.lo)
        if x > nodes[-1][0] and y > nodes[-1][1]:
            nodes.append((x, y))
    nodes.append((1.0, 1.0))
    return nodes


def test_grid_nodes_equal_the_fraction_partition_nodes_bit_for_bit():
    cases = [(f, build_reference(f.rauzy_path(r).path).base_iet, r) for f, r in conjugacy_maps()]
    f, T = realized_pair(15)
    cases += [(f, T, r) for r in (5, 10, 15)]
    for f, T, r in cases:
        assert all(type(x) is Fraction for x in T.lengths)
        nodes = build_semiconjugacy(f, T, r).nodes
        assert len(nodes) > 2
        assert [(x.hex(), y.hex()) for x, y in nodes] == [
            (x.hex(), y.hex()) for x, y in fraction_nodes(f, T, r)
        ]


def test_float_model_images_equal_the_exact_images():
    # the conjugacy maps' models m2 and m4 at the points where ``semiconj
    # --spot-check 32 --seed s`` evaluates them, ``h`` of 32 random floats:
    # each float branch shifts by the exact displacement rounded once, as
    # ``T.eval`` of a float does (m4's letter C shifted one ulp off before)
    for f, r in conjugacy_maps():
        T = build_reference(f.rauzy_path(r).path).base_iet
        model, h = giet_from_iet(T), build_semiconjugacy(f, T, r)
        for seed in range(5):
            rng = random.Random(seed)
            for x in (h.eval(rng.random()) for _ in range(32)):
                assert model.eval(x) == T.eval(x), (r, seed, x)


def scalar_defect(h, f, T, xs):
    """``defect`` by its definition, one point at a time."""
    model = giet_from_iet(T)
    return max(abs(h.eval(float(f.eval(x))) - model.eval(h.eval(x))) for x in xs)


def residual_cases():
    """f2@21 and f4@40 of the ``conjugacy`` benchmark, and the shrinking
    circle map at two orders, each with its model IET and semiconjugacy."""
    cases = [(f, r) for f, r in conjugacy_maps()]
    cases += [(shrinking_circle_map(), r) for r in (10, 14)]
    for f, r in cases:
        T = build_reference(f.rauzy_path(r).path).base_iet
        yield f, T, build_semiconjugacy(f, T, r)


def test_batched_residual_and_defect_equal_the_scalar_definition_bit_for_bit():
    rng = random.Random(51)
    for f, T, h in residual_cases():
        for samples in (0, 16, 128):
            xs = {0.5 * (x0 + x1) for (x0, _), (x1, _) in zip(h.nodes, h.nodes[1:])}
            xs.update((i + 0.5) / samples for i in range(samples))
            assert residual(h, f, T, samples).hex() == scalar_defect(h, f, T, xs).hex()
        spots = [rng.random() for _ in range(64)] + [0.0, math.nextafter(1.0, 0.0)]
        assert defect(h, f, T, spots).hex() == scalar_defect(h, f, T, spots).hex()


@pytest.mark.parametrize("bad", [1.0, -1.0, float("nan")])
def test_defect_rejects_a_point_outside_the_domain_as_the_scalar_path_does(bad):
    f, T, h = next(residual_cases())
    with pytest.raises(GietlabError, match=rf"^{bad} outside \[0, ") as scalar:
        scalar_defect(h, f, T, [0.25, bad])
    # sorting the points does not hide a NaN among them
    for xs in ([bad, 0.25, 0.75], [0.25, bad, 0.75], [0.25, 0.75, bad]):
        with pytest.raises(GietlabError) as batched:
            defect(h, f, T, xs)
        assert str(batched.value) == str(scalar.value)
