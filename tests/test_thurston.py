import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import gietlab.exact_iet as exact_iet
import gietlab.full_family as full_family
import gietlab.thurston as thurston
from conftest import (
    ExactIETFamily,
    admissible,
    averaged_loop,
    bottom_letter_at,
    breaking_step,
    class_at,
    conjugacy_maps,
    eval_inverse,
    exact_reference,
    exchanged_cells,
    orbit_order,
    prefix,
    random_unit_giet,
)
from gietlab.branches import PiecewiseLinear, SmoothParam, compose
from gietlab.combinatorics import (
    RauzyPath,
    find_cyclic,
    find_path,
    parse_datum,
    path_matrix,
    rauzy_class,
    sigma_and_cyclicity,
)
from gietlab.errors import GietlabError, InductionFailed, NoCyclicDatum, OrderViolation
from gietlab.exact_iet import ExactIET
from gietlab.giet import (
    DynamicalPartition,
    Giet,
    dynamical_partition,
    giet_from_branches,
    giet_from_iet,
    partitions_equivalent,
)
from gietlab.thurston import (
    GietFamily,
    MAX_REFERENCE_POINTS,
    build_reference,
    in_model_order,
    realize,
    reference_configuration,
    solve,
    step,
    tau_of,
)

D2 = parse_datum("A B", "B A")
D4 = parse_datum("A B C D", "D C B A")
D5 = parse_datum("A B C D E", "E D C B A")
FIG_LABELS = ["A0", "A3", "C1", "B1", "C3", "A1", "B0", "C2", "C0", "D0", "A2"]


def model_path():
    return RauzyPath.from_kinds(D4, "bbbtb")


def model_ref():
    return build_reference(model_path())


def pull(family, ref, config):
    """One pullback step under the family map that ``config`` selects."""
    return step(ref, config, family.at(tau_of(ref, config)))


def random_cyclic_path(rng, max_d=4, max_r=8):
    while True:
        d = rng.choice(range(2, max_d + 1))
        datum = rng.choice(admissible("ABCD"[:d]))
        kinds = "".join(rng.choice("tb") for _ in range(rng.randint(0, max_r)))
        path = RauzyPath.from_kinds(datum, kinds)
        if sigma_and_cyclicity(path.target)[1]:
            return path


def labels_in_order(ref):
    """Class names left to right at the reference."""
    return [class_at(ref, c).name for c in orbit_order(ref)]


def test_build_reference_worked_example():
    ref = model_ref()
    assert ref.N == 11
    assert path_matrix(ref.path).row_sums() == {"A": 3, "B": 2, "C": 2, "D": 4}
    assert ref.h == {"A": 0, "B": 1, "C": 1, "D": 3}
    assert ref.base_iet.lengths_by_letter() == {
        "A": Fraction(6, 11), "B": Fraction(2, 11), "C": Fraction(1, 11), "D": Fraction(2, 11)
    }
    assert labels_in_order(ref) == FIG_LABELS
    assert sorted(exact_reference(ref)) == [Fraction(k, 11) for k in range(11)]


def test_build_reference_requires_cyclic_target():
    with pytest.raises(GietlabError, match=r"^A B C D / D C B A is not cyclic$"):
        build_reference(RauzyPath(D4))  # sigma of D4 is a double transposition


def test_build_reference_empty_path():
    ref = build_reference(RauzyPath(D2))
    assert ref.N == 2
    assert sorted(exact_reference(ref)) == [Fraction(0), Fraction(1, 2)]
    assert labels_in_order(ref) == ["A0", "B0"]


def test_realize_refuses_beyond_the_point_cap(monkeypatch):
    # Fibonacci paths on A B / B A: N is a Fibonacci number
    under = RauzyPath.from_kinds(D2, "tb" * 12)
    over = RauzyPath.from_kinds(D2, "tb" * 12 + "t")
    assert build_reference(under).N == 196_418 <= MAX_REFERENCE_POINTS
    # one arrow deeper the reference refuses, and the solver never starts
    monkeypatch.setattr(thurston, "solve", None)
    with pytest.raises(GietlabError, match=r"^reference configuration needs N=317811 points, "
                                           r"beyond the cap 200000$"):
        realize(GietFamily(smooth_seed(*FIB_SEED)), over)


def test_build_reference_refuses_past_the_point_cap_before_the_grid_is_walked(monkeypatch):
    """N is read off the path matrix, so a path past the cap is refused
    before the model's induction or successor table is built."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("the model grid was built past the point cap")

    monkeypatch.setattr(ExactIET, "successors", unbuilt)
    monkeypatch.setattr(ExactIET, "rauzy_path", unbuilt)
    depth_25 = RauzyPath.from_kinds(D2, "tb" * 12 + "t")
    with pytest.raises(GietlabError, match=r"^reference configuration needs N=317811 points, "
                                           r"beyond the cap 200000$"):
        build_reference(depth_25)


def test_build_reference_walks_the_model_orbit_once(monkeypatch):
    path = fibonacci_ref(15).path
    calls = []
    model_eval = ExactIET.eval
    monkeypatch.setattr(ExactIET, "eval", lambda T, x: calls.append(x) or model_eval(T, x))
    named = []
    monkeypatch.setattr(thurston, "LabelClass", lambda *args: named.append(args))
    ref = build_reference(path)
    # one evaluation per letter, for the successor table the orbit walks; h
    # is read off the orbit positions, and no class is named until a label
    # is asked for
    assert ref.N == 2584 and sorted(calls) == sorted(ref.grid.top_breaks.values())
    assert named == []
    assert ref.h == _reference_in_fractions(path)["h"]


def test_reference_fields_hold_one_orbit_table():
    # the model orbit is the one table of N entries: the sweeps walk it
    # backwards and the certificate reads the model's atoms off it
    assert list(thurston.RefConfig._fields) == [
        "path", "N", "h", "grid", "crit_pos", "orbit"
    ]
    for depth in (5, 15):
        ref = fibonacci_ref(depth)
        assert len(ref.h) == len(ref.crit_pos) == len(ref.grid.lengths) == 2
        assert sorted(ref.orbit) == list(range(ref.N))
        assert all(ref.orbit[c] == x for x, c in enumerate(orbit_order(ref)))


@pytest.mark.parametrize("model_image, message", [
    (lambda x: min(x + 1, 10), "orbit of 0 does not close up after N=11 steps"),
    (lambda x: x, "orbit of 0 is not the whole grid of N=11 points"),
    # the whole grid, but B's critical point is 5 steps from its lift, with q_B = 2
    (lambda x: (x + 1) % 11, "critical point of B is 5 steps from its lift, not under q=2"),
])
def test_build_reference_reports_a_broken_model_orbit(monkeypatch, model_image, message):
    # the grid's successor table is the one source of the walk
    monkeypatch.setattr(ExactIET, "successors", lambda T: list(map(model_image, range(T.total))))
    with pytest.raises(GietlabError, match=message):
        model_ref()


def test_successor_table_is_the_model_map_on_its_grid(monkeypatch):
    calls = []
    model_eval = ExactIET.eval
    monkeypatch.setattr(ExactIET, "eval", lambda T, x: calls.append(x) or model_eval(T, x))
    refs = [model_ref(), fibonacci_ref(9)] + random_completed_refs(random.Random(5), 10)
    for ref in refs:
        calls.clear()
        succ = ref.grid.successors()
        assert len(calls) == ref.datum.d
        assert succ == [model_eval(ref.grid, x) for x in range(ref.N)]
        assert [succ[x] for x in ref.orbit] == [*ref.orbit[1:], 0]


def window_class(ref, letter, index):
    """The class ``index`` forward steps from the critical point of
    ``letter``, through ``class_of_atom``: the atom ``(letter, raw)`` is
    ``raw - h[letter]`` steps from that critical point."""
    return ref.class_of_atom(letter, index + ref.h[letter])


def test_reference_orbit_is_single_cycle():
    ref = model_ref()
    # the index shift [letter, index + 1] steps through all N classes
    # before returning
    first = label = window_class(ref, "A", 0)
    seen = set()
    for _ in range(ref.N):
        seen.add(label.orbit_pos)
        label = window_class(ref, label.letter, label.index + 1)
    assert len(seen) == ref.N and label == first


def test_class_of_atom_identifications():
    ref = model_ref()
    assert window_class(ref, "A", 0) == thurston.LabelClass("A", 0, 0)
    # one step back from (A, 0) is the class displayed with the letter D
    assert window_class(ref, "A", -1).name == "D0"
    # exhaustive normalization: every (letter, small index) lands on one of
    # exactly N classes
    names = {window_class(ref, a, i).orbit_pos for a in "ABCD" for i in range(-15, 16)}
    assert len(names) == ref.N


def test_class_of_atom_matches_figure_order():
    ref = model_ref()
    partition = dynamical_partition(ref.base_iet, 5)
    labels = [ref.class_of_atom(a.letter, a.index).name for a in partition.atoms]
    assert labels == FIG_LABELS


def test_tau_of_reference_exact_and_float():
    ref = model_ref()
    lam = ref.base_iet.lengths_by_letter()
    exact = tau_of(ref, exact_reference(ref))
    assert exact == lam
    approx = tau_of(ref, reference_configuration(ref))
    assert all(abs(approx[a] - float(lam[a])) <= 1e-12 for a in "ABCD")


def test_step_fixed_point_exact_worked_example():
    ref = model_ref()
    config = exact_reference(ref)
    out = pull(ExactIETFamily(D4), ref, config)
    assert out == config


def test_step_fixed_point_float_worked_example():
    ref = model_ref()
    config = reference_configuration(ref)
    out = pull(GietFamily(giet_from_iet(ref.base_iet)), ref, config)
    assert max(abs(a - b) for a, b in zip(out, config)) <= 1e-12


def test_step_fixed_point_random_cyclic_paths():
    rng = random.Random(20)
    for _ in range(10):
        path = random_cyclic_path(rng)
        ref = build_reference(path)
        reference = exact_reference(ref)
        exact = pull(ExactIETFamily(path.source), ref, reference)
        assert exact == reference
        approx = pull(GietFamily(giet_from_iet(ref.base_iet)), ref, reference_configuration(ref))
        assert max(
            abs(a - float(b)) for a, b in zip(approx, reference)
        ) <= 1e-12


def test_step_preserves_order_for_nonlinear_families():
    rng = random.Random(21)
    ref = model_ref()
    for _ in range(5):
        seed = random_unit_giet(rng, datum=D4)
        config = reference_configuration(ref)
        # the raw pull: ``step`` raises ``OrderViolation`` on a broken order
        out = pull(GietFamily(seed), ref, config)
        assert thurston.is_ordered(out)


def test_step_first_move_bounded_by_inverse_distortion():
    ref = model_ref()
    lam = [float(x) for x in ref.base_iet.lengths]
    seed = giet_from_branches(
        D4, lam, lam, lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else 0.0)
    )
    family = GietFamily(seed)
    config = reference_configuration(ref)
    f_tau = family.at(tau_of(ref, config))
    out = step(ref, config, f_tau)
    moved = max(abs(a - b) for a, b in zip(out, config))
    T = ref.base_iet
    worst = 0.0
    for i in range(1, 512):
        y = i / 512
        worst = max(worst, abs(eval_inverse(f_tau, y) - float(eval_inverse(T, Fraction(i, 512)))))
    assert moved <= worst + 1e-12


def test_solve_iet_family_realizes_at_reference():
    ref = model_ref()
    report = solve(GietFamily(giet_from_iet(ref.base_iet)), ref)
    assert report.status == "realized"
    assert report.iterations == 0
    assert report.config == reference_configuration(ref)
    lam = ref.base_iet.lengths_by_letter()
    assert all(abs(report.tau[a] - lam[a]) <= 1e-15 for a in "ABCD")


def test_exact_solve_averages_in_fractions():
    # the pullback and tau keep the fractions of an exact family's points
    ref = fibonacci_ref(8)
    points = list(exact_reference(ref))
    points[ref.grid.bottom_breaks["A"]] += Fraction(1, 3 * ref.N)  # off the model's tau
    start = tuple(points)
    config, steps = averaged_loop(ExactIETFamily(D2), ref, start)
    assert steps == 1
    pulled = pull(ExactIETFamily(D2), ref, start)
    halfway = tuple(a / 2 + b / 2 for a, b in zip(start, pulled))
    assert config == halfway
    assert all(type(v) is Fraction for v in config)


def test_solve_boundary_with_absurd_threshold(monkeypatch):
    ref = model_ref()
    # tau is (6, 2, 1, 2)/11: every entry but A's is at or below 0.5
    monkeypatch.setattr(thurston, "EPS_DEG", 0.5)
    faces = tuple(class_at(ref, ref.crit_pos[a] + 1).name for a in "DCB")
    report = solve(GietFamily(giet_from_iet(ref.base_iet)), ref)
    assert report.status == "boundary"
    assert report.iterations == 0
    assert report.faces == faces


def test_solve_respects_max_iter():
    rng = random.Random(22)
    T = ExactIET.from_lengths(D2, [Fraction(2584, 6765), Fraction(4181, 6765)])
    path = T.rauzy_path(15).path
    ref = build_reference(path)
    seed = giet_from_branches(
        D2, [0.5, 0.5], [0.5, 0.5],
        lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else -1.5),
    )
    # the path takes three Newton steps
    report = solve(GietFamily(seed), ref, max_iter=10)
    assert report.realized and report.iterations == report.newton_steps == 3
    report = solve(GietFamily(seed), ref, max_iter=2)
    assert report.status == "max_iter"
    assert report.iterations == report.newton_steps == 2
    assert len(report.deltas) == 2
    # a negative bound takes no step; the CLI rejects one as a ``--max-iter`` error
    report = solve(GietFamily(seed), ref, max_iter=-1)
    assert report.status == "max_iter" and report.deltas == []


def test_realize_worked_example_nonlinear():
    lam = [6 / 11, 2 / 11, 1 / 11, 2 / 11]
    seed = giet_from_branches(
        D4, lam, lam, lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else 0.0)
    )
    result = realize(GietFamily(seed), model_path())
    assert result.report.realized
    assert result.certificate
    assert result.appended == 0
    f = GietFamily(seed).at(result.report.tau)
    assert partitions_equivalent(
        dynamical_partition(f, 5), dynamical_partition(result.ref.base_iet, 5)
    )


def test_realize_builds_one_map_per_loop_head():
    # the certificate reuses the map of the path check that returned realized
    built = []

    class CountingFamily(GietFamily):
        def at(self, tau):
            built.append(tau)
            return super().at(tau)

    lam = [6 / 11, 2 / 11, 1 / 11, 2 / 11]
    seed = giet_from_branches(
        D4, lam, lam, lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else 0.0)
    )
    result = realize(CountingFamily(seed), model_path())
    assert result.certificate
    assert len(built) == result.report.iterations + 1
    assert result.report.map.rauzy_path(5).path == model_path()


def test_realize_appends_completion_for_noncyclic_target():
    path = prefix(model_path(), 3)  # ends at A B C D / D C B A, not cyclic
    assert not sigma_and_cyclicity(path.target)[1]
    lam = [6 / 11, 2 / 11, 1 / 11, 2 / 11]
    seed = giet_from_branches(
        D4, lam, lam, lambda a, d, r: SmoothParam(d, r, k=1.0 if a == "B" else 0.0)
    )
    result = realize(GietFamily(seed), path)
    assert result.report.realized
    assert result.appended >= 1
    assert len(result.ref.path) <= 3 + len(rauzy_class(D4))
    f = GietFamily(seed).at(result.report.tau)
    assert f.rauzy_path(3).path.kinds == path.kinds


def test_realize_builds_the_rauzy_class_once(monkeypatch):
    built = []
    monkeypatch.setattr(thurston, "rauzy_class", lambda d: built.append(d) or rauzy_class(d))
    path = prefix(model_path(), 3)  # a non-cyclic target needs a completion
    lam = [6 / 11, 2 / 11, 1 / 11, 2 / 11]
    seed = giet_from_branches(D4, lam, lam, lambda a, d, r: SmoothParam(d, r, k=0.0))
    assert realize(GietFamily(seed), path).appended >= 1
    assert built == [D4]


def test_realize_no_cyclic_datum(monkeypatch):
    monkeypatch.setattr(thurston, "find_cyclic", lambda cls: None)
    path = prefix(model_path(), 3)
    seed = random_unit_giet(random.Random(23), datum=D4)
    with pytest.raises(NoCyclicDatum):
        realize(GietFamily(seed), path)


@pytest.mark.parametrize("d, kinds", [
    (4, "tttbbbtbbbbbbbbtttttbt"),
    (4, "tbtbtbtbtbbbbt"),
    (5, "ttbbtbbbbtbttt"),
    (5, "bbbbtbbtbbbbbbbbttbbtb"),
])
def test_realize_certifies_where_bisected_inverses_straddled(d, kinds):
    # the certificate's partition of these paths needs exact chain inverses:
    # an atom whose left end lands more than the 1e-12 snap left of its
    # breakpoint is read in the neighbouring branch and straddles it
    datum = D4 if d == 4 else D5
    seed = giet_from_branches(
        datum, [1 / d] * d, [1 / d] * d,
        lambda a, dom, rng: SmoothParam(dom, rng, k=1.5 if a == "A" else 0.0),
    )
    result = realize(GietFamily(seed), RauzyPath.from_kinds(datum, kinds))
    assert result.report.status == "realized"
    assert result.certificate


def test_solver_report_deltas_monotone_tail():
    # on a moderately long path the relaxed iteration settles: the last
    # recorded delta is far below the first
    T = ExactIET.from_lengths(D2, [Fraction(377, 987), Fraction(610, 987)])
    path = T.rauzy_path(10).path
    ref = build_reference(path)
    seed = giet_from_branches(
        D2, [0.5, 0.5], [0.5, 0.5],
        lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else -1.5),
    )
    report = solve(GietFamily(seed), ref)
    assert report.status == "realized"
    assert report.deltas[-1][1] < report.deltas[0][1]


def test_window_and_atom_labels_are_consistent():
    ref = model_ref()
    q = path_matrix(ref.path).row_sums()
    for a in "ABCD":
        for j in range(q[a]):
            via_atom = ref.class_of_atom(a, j)
            via_window = class_at(ref, ref.crit_pos[a] + j - ref.h[a])
            assert via_atom == via_window


def test_solve_fixed_point_tol_status(monkeypatch):
    # a loose step tolerance ends the loop before the path check succeeds;
    # the result is reported, not claimed as success
    monkeypatch.setattr(thurston, "EPS_FIX", 1.0)
    T = ExactIET.from_lengths(D2, [Fraction(377, 987), Fraction(610, 987)])
    ref = build_reference(T.rauzy_path(12).path)
    seed = giet_from_branches(
        D2, [0.5, 0.5], [0.5, 0.5],
        lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else -1.5),
    )
    report = solve(GietFamily(seed), ref)
    assert report.status == "fixed_point_tol"
    assert not report.realized


def test_fixed_point_and_realization_at_five_letters():
    rng = random.Random(41)
    for _ in range(3):
        path = random_cyclic_path(rng, max_d=4, max_r=8)
        # rebuild over five letters when possible
        ref = build_reference(path)
        assert pull(ExactIETFamily(path.source), ref, exact_reference(ref)) == exact_reference(ref)
    data5 = admissible("ABCDE")
    realized = 0
    while realized < 3:
        datum = rng.choice(data5)
        kinds = "".join(rng.choice("tb") for _ in range(rng.randint(0, 8)))
        path = RauzyPath.from_kinds(datum, kinds)
        if not sigma_and_cyclicity(path.target)[1]:
            continue
        seed = giet_from_branches(
            datum, [0.2] * 5, [0.2] * 5,
            lambda a, d, r: SmoothParam(d, r, k=1.5 if a == "A" else 0.0),
        )
        out = realize(GietFamily(seed), path)
        assert out.report.realized and out.certificate
        realized += 1


def test_solve_accepts_perturbed_start():
    ref = model_ref()
    base = reference_configuration(ref)
    bumped = list(base)
    # every class c but the pinned one moves by 1e-3 * ((c % 3) - 1)
    order = orbit_order(ref)
    for x in range(1, ref.N):
        bumped[x] += 1e-3 * ((order[x] % 3) - 1)
    start = tuple(bumped)
    assert thurston.is_ordered(start)
    lam = [float(x) for x in ref.base_iet.lengths]
    seed = giet_from_branches(
        D4, lam, lam, lambda a, d, r: SmoothParam(d, r, k=1.0 if a == "A" else 0.0)
    )
    report = solve(GietFamily(seed), ref, start=start)
    assert report.status == "realized"


def test_tau_of_zero_gap_is_boundary_vector():
    # coincident marked points produce a zero entry, not an error; the solver
    # reports such vectors as boundary
    ref = model_ref()
    pts = list(reference_configuration(ref))
    # move the point of [C,1] onto the point of [B,1] (consecutive in the
    # bottom row order D, C, B, A)
    order = orbit_order(ref)
    c_pos = order.index((ref.crit_pos["C"] + 1) % ref.N)
    b_pos = order.index((ref.crit_pos["B"] + 1) % ref.N)
    pts[c_pos] = pts[b_pos]
    squeezed = tuple(pts)
    tau = tau_of(ref, squeezed)
    assert tau["C"] == 0.0
    assert abs(sum(tau.values()) - 1.0) < 1e-15
    report = solve(GietFamily(giet_from_iet(ref.base_iet)), ref, start=squeezed)
    assert report.status == "boundary"
    assert report.faces


def _reference_in_fractions(path):
    """Orbit data of ``build_reference`` computed with the fraction model IET."""
    matrix = path_matrix(path)
    q = matrix.row_sums()
    N = sum(q.values())
    base = ExactIET.from_lengths(
        path.source, {a: Fraction(c, N) for a, c in matrix.col_sums().items()}
    )
    induced = base.rauzy_path(len(path)).map
    u_t = base.top_breaks
    u_t_induced = induced.top_breaks
    h = {}
    for a in path.source.alphabet:
        x, h[a] = u_t_induced[a], 0
        while x != u_t[a]:
            x, h[a] = base.eval(x), h[a] + 1
    orbit = [Fraction(0)]
    while len(orbit) < N:
        orbit.append(base.eval(orbit[-1]))
    assert sorted(orbit) == [Fraction(k, N) for k in range(N)]
    crit_pos = {a: orbit.index(u_t[a]) for a in path.source.alphabet}
    classes = tuple(
        thurston.LabelClass(*min(
            ((a, (c - crit_pos[a]) % N) for a in path.source.alphabet), key=lambda t: t[1]
        ), c)
        for c in range(N)
    )
    window = {
        (crit_pos[a] + j - h[a]) % N: (a, j - h[a]) for a in path.source.alphabet
        for j in range(q[a])
    }
    assert len(window) == N
    return {
        "points": tuple(orbit),
        "geometric": tuple(sorted(range(N), key=lambda c: orbit[c])),
        "crit_pos": crit_pos,
        "classes": classes,
        "window": window,
        "h": h,
        "base_iet": base,
    }


def test_reference_on_the_integer_grid_equals_the_fraction_one():
    fib = ExactIET.from_lengths(D2, [Fraction(2584, 6765), Fraction(4181, 6765)])
    paths = [fib.rauzy_path(depth).path for depth in range(10, 16)]
    rng = random.Random(31)
    for datum in (D4, D5):
        cls = rauzy_class(datum)
        target = find_cyclic(cls)
        for _ in range(10):
            path = RauzyPath.from_kinds(datum, "".join(rng.choice("tb") for _ in range(12)))
            paths.append(path.concat(find_path(cls, path.target, target)))
    for path in paths:
        ref = build_reference(path)
        expected = _reference_in_fractions(path)
        window = expected.pop("window")
        points = exact_reference(ref)
        orbit = expected.pop("points")
        geometric = orbit_order(ref)
        assert geometric == expected.pop("geometric")
        assert points == tuple(orbit[c] for c in geometric)
        assert tuple(map(float, points)) == reference_configuration(ref)
        # the class named at every orbit position
        assert tuple(class_at(ref, c) for c in range(ref.N)) == expected.pop("classes")
        for name, value in expected.items():
            assert getattr(ref, name) == value, name
        # the order-r atoms name each class once: atom (a, i + h_a) is window class c
        assert {
            ref.class_of_atom(a, i + ref.h[a]).orbit_pos: (a, i) for a, i in window.values()
        } == window
        assert all(type(x) is Fraction for x in points + ref.base_iet.lengths)


def test_base_iet_is_the_fraction_model_read_off_the_grid():
    """``build_reference`` builds the model on its integer grid only, and
    ``base_iet``, read later, is the ``Fraction`` model with the path
    matrix's column sums over N as lengths: on the Fibonacci paths of depth
    10-15 and on the paths of the benchmark's realize pool, completed as
    ``realize`` completes them."""
    fib = ExactIET.from_lengths(D2, [Fraction(2584, 6765), Fraction(4181, 6765)])
    cases = [(fib.rauzy_path(depth).path, None) for depth in range(10, 16)]
    data = {4: D4, 5: D5}
    classes = {d: rauzy_class(datum) for d, datum in data.items()}
    pool = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"
    for entry in json.loads(pool.read_text()):
        path, cls = RauzyPath.from_kinds(data[entry["d"]], entry["kinds"]), classes[entry["d"]]
        if not sigma_and_cyclicity(path.target)[1]:
            path = path.concat(find_path(cls, path.target, find_cyclic(cls)))
        cases.append((path, entry["N"]))
    assert len(cases) == 166
    for path, N in cases:
        ref = build_reference(path)
        assert "base_iet" not in vars(ref) and N in (None, ref.N)
        matrix = path_matrix(path)
        model = ExactIET.from_lengths(
            path.source, {a: Fraction(c, ref.N) for a, c in matrix.col_sums().items()}
        )
        assert ref.base_iet == model
        assert all(type(x) is Fraction for x in ref.base_iet.lengths)


def test_certificate_partition_on_the_grid_equals_the_fraction_one():
    """The model partitioned on its integer grid has the fraction model's
    labels on the N unit cells, and the orbit read of ``realize``'s
    certificate puts every atom ``(a, i)`` on the cell where it lies."""
    rng = random.Random(47)
    for datum in (parse_datum("A B C", "C B A"), D4, D5):
        cls = rauzy_class(datum)
        target = find_cyclic(cls)
        for _ in range(6):
            path = RauzyPath.from_kinds(datum, "".join(rng.choice("tb") for _ in range(10)))
            path = path.concat(find_path(cls, path.target, target))
            ref = build_reference(path)
            on_grid = dynamical_partition(ref.grid, len(path))
            assert on_grid.labels() == dynamical_partition(ref.base_iet, len(path)).labels()
            assert [(type(lo), type(hi)) for lo, hi, _, _ in on_grid.atoms] == [(int, int)] * ref.N
            assert [atom[:2] for atom in on_grid.atoms] == [(k, k + 1) for k in range(ref.N)]
            for lo, _, a, i in on_grid.atoms:
                assert ref.orbit[ref.class_of_atom(a, i).orbit_pos] == lo
            assert thurston.in_model_order(ref, on_grid)


def test_orbit_position_names_equal_the_class_of_each_atom():
    """``atom_names`` reads each atom's name off the orbit position names:
    the cyclic 3-, 4- and 5-letter panel on its model, and the smooth maps
    of the conjugacy workload at the orders partitioned there."""
    rng = random.Random(83)
    partitions = []
    for datum in (parse_datum("A B C", "C B A"), D4, D5):
        cls = rauzy_class(datum)
        target = find_cyclic(cls)
        for _ in range(6):
            path = RauzyPath.from_kinds(datum, "".join(rng.choice("tb") for _ in range(10)))
            path = path.concat(find_path(cls, path.target, target))
            partitions.append(dynamical_partition(build_reference(path).base_iet, len(path)))
    partitions += [dynamical_partition(f, r) for f, r in conjugacy_maps()]
    for p in partitions:
        ref = build_reference(p.path)
        assert ref.names == [class_at(ref, c).name for c in range(ref.N)]
        assert ref.atom_names(p.atoms) == [
            ref.class_of_atom(a, i).name for _, _, a, i in p.atoms
        ]
    # the smooth maps' atoms are named apart from their raw labels
    assert any(name != f"{a}{i}" for (_, _, a, i), name in zip(p.atoms, ref.atom_names(p.atoms)))


def test_solve_builds_one_family_map_per_iteration():
    T = ExactIET.from_lengths(D2, [Fraction(2584, 6765), Fraction(4181, 6765)])
    ref = build_reference(T.rauzy_path(13).path)
    seed = giet_from_branches(
        D2, [0.5, 0.5], [0.5, 0.5],
        lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else -1.5),
    )
    family = GietFamily(seed)
    built = []
    family.at = lambda tau: built.append(tau) or GietFamily.at(family, tau)
    report = solve(family, ref)
    assert report.status == "realized" and report.iterations == report.newton_steps == 3
    # one map per loop head: the Newton step reads the end derivatives of
    # its column of G in closed form, off no map
    assert len(built) == report.iterations + 1 == 4


def test_solve_reads_tau_once_per_loop_head(monkeypatch):
    """The Newton step takes the tau that its loop head read off the same
    configuration, so the solver reads tau once per loop head."""
    reads, original = [], thurston.tau_of

    def recording(ref, config):
        reads.append(config)
        return original(ref, config)

    monkeypatch.setattr(thurston, "tau_of", recording)
    family = GietFamily(smooth_seed(D2, [0.5, 0.5], {"A": 2.0, "B": -1.5}))
    report = solve(family, fibonacci_ref(13))
    assert report.status == "realized" and report.iterations == report.newton_steps == 3
    assert len(reads) == report.iterations + 1 == 4
    assert reads[-1] == report.config


def old_pull_order(ref, geometric):
    """The classes ``step`` pulls back, as ``step`` used to list them on every
    call: those whose index predecessor is not yet placed."""
    N = ref.N
    new_points = [None] * N
    for a in ref.datum.alphabet:
        new_points[ref.crit_pos[a]] = 0.0
    return tuple(c for c in geometric if new_points[(c - 1) % N] is None)


def fibonacci_ref(depth):
    """The reference of the Fibonacci path ``(tb)^n`` cut to ``depth`` arrows."""
    return build_reference(RauzyPath.from_kinds(D2, ("tb" * depth)[:depth]))


def completed(path):
    """``path``, followed by a shortest path to a cyclic datum if it does not
    end at one."""
    if sigma_and_cyclicity(path.target)[1]:
        return path
    cls = rauzy_class(path.source)
    return path.concat(find_path(cls, path.target, find_cyclic(cls)))


def random_completed_refs(rng, count):
    """References of ``count`` random 4- and 5-letter paths, each completed
    to a cyclic target."""
    refs = []
    for _ in range(count):
        datum = rng.choice((D4, D5))
        kinds = "".join(rng.choice("tb") for _ in range(rng.randint(4, 12)))
        refs.append(build_reference(completed(RauzyPath.from_kinds(datum, kinds))))
    return refs


def test_pull_order_equals_the_per_step_comprehension():
    """``ref.pulls`` lists each letter's run and its landing slice in
    top-row order: the runs hold the classes ``step`` used to list on every
    call, and each letter's critical point followed by its landing slice,
    letter by letter, is the grid left to right."""
    refs = [fibonacci_ref(depth) for depth in range(10, 16)]
    refs += random_completed_refs(random.Random(73), 20)
    for ref in refs:
        geometric, grid, u_t = orbit_order(ref), range(ref.N), ref.grid.top_breaks
        assert [a for a, _, _ in ref.pulls] == list(ref.datum.top)
        pulled = sorted(x for _, run, _ in ref.pulls for x in grid[run])
        assert tuple(geometric[x] for x in pulled) == old_pull_order(ref, geometric)
        assert len(pulled) == ref.N - ref.datum.d
        assert [x for a, _, at in ref.pulls for x in (u_t[a], *grid[at])] == list(grid)
        # the preimage of the point read at x lands on its class's index
        # predecessor: a letter's run fills its top interval after its first point
        landed = {x: y for _, run, at in ref.pulls
                  for x, y in zip(grid[run], grid[at], strict=True)}
        assert sorted(landed) == pulled
        assert all(geometric[y] == (geometric[x] - 1) % ref.N for x, y in landed.items())


def old_class_names(ref):
    """Each class's ``(letter, index)`` as ``build_reference`` used to name
    it: the letter with the fewest forward steps from its critical point."""
    return [
        min(((a, (c - ref.crit_pos[a]) % ref.N) for a in ref.datum.alphabet), key=lambda t: t[1])
        for c in range(ref.N)
    ]


def test_class_names_equal_the_fewest_steps_formula():
    refs = [fibonacci_ref(depth) for depth in range(3, 19)]
    refs += random_completed_refs(random.Random(74), 60)
    for ref in refs:
        classes = [class_at(ref, c) for c in range(ref.N)]
        assert [(k.letter, k.index) for k in classes] == old_class_names(ref)
        assert [k.orbit_pos for k in classes] == list(range(ref.N))


def test_is_valid_rejects_each_broken_order():
    ref = model_ref()
    good = reference_configuration(ref)
    assert thurston.is_ordered(good)
    geometric = orbit_order(ref)

    def moved(c, x):
        """``good`` with the point of class ``c`` moved to ``x``."""
        points = list(good)
        points[geometric.index(c)] = x
        return tuple(points)

    def point(c):
        return good[geometric.index(c)]

    left, right = geometric[1], geometric[2]
    assert not thurston.is_ordered(moved(right, point(left)))  # a repeated point
    assert not thurston.is_ordered(moved(geometric[-1], 1.0))  # a point at 1
    assert not thurston.is_ordered(moved(0, 1e-3))  # the pinned class is not at 0


def test_is_valid_rejects_a_nan_point():
    ref = model_ref()
    good = reference_configuration(ref)
    for rank in (0, 1, 2, -1):  # the pinned class, interior points, the rightmost one
        points = list(good)
        points[rank] = float("nan")  # the point at grid point rank
        assert not thurston.is_ordered(tuple(points))


def old_is_valid(geometric, points):
    ordered = [points[c] for c in geometric]
    if points[0] != 0 or any(b <= a for a, b in zip(ordered, ordered[1:])):
        return False
    return 0 <= ordered[0] and ordered[-1] < 1


def by_class(geometric, points):
    """Points in grid order re-indexed by class (orbit position)."""
    out = [None] * len(geometric)
    for x, c in enumerate(geometric):
        out[c] = points[x]
    return out


def old_step(family, ref, config):
    """``step`` as it was before the pull order was fixed per reference:
    every point pulled back on its own through ``eval_inverse``, on
    points indexed by class; the result is returned in grid order, and a
    result out of order raises ``OrderViolation``."""
    f = family.at(tau_of(ref, config))
    N = ref.N
    geometric = orbit_order(ref)
    points = by_class(geometric, config)
    new_points = [None] * N
    for a, lo, _ in f.top_intervals():
        new_points[ref.crit_pos[a]] = lo
    order = [c for c in geometric if new_points[(c - 1) % N] is None]
    for c in order:
        new_points[(c - 1) % N] = eval_inverse(f, points[c])
    if not old_is_valid(geometric, new_points):
        raise OrderViolation("the per-point pullback broke the order")
    return tuple(new_points[c] for c in geometric)


def test_step_returns_the_points_of_the_per_point_pullback():
    ref = fibonacci_ref(13)
    seed = giet_from_branches(
        D2, [0.5, 0.5], [0.5, 0.5],
        lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else -1.5),
    )
    family = GietFamily(seed)
    config = reference_configuration(ref)
    for _ in range(8):
        pulled = pull(family, ref, config)
        assert pulled == old_step(family, ref, config)
        config = tuple(0.5 * a + 0.5 * b for a, b in zip(config, pulled))


def smooth_seed(datum, lengths, ks):
    return giet_from_branches(
        datum, lengths, lengths, lambda a, d, r: SmoothParam(d, r, k=ks.get(a, 0.0))
    )


def worked_loop():
    """The worked example's path, then the way back to its source and the
    worked example again, repeated until the path has at least 15 arrows."""
    cls = rauzy_class(D4)
    worked = model_path()
    back = find_path(cls, worked.target, D4)
    loop = worked
    while len(loop) < 15:
        loop = loop.concat(back).concat(worked)
    return loop


# The solver trajectory, byte for byte: iterations, Newton steps, tau as
# float.hex, and the sha256 of repr(deltas).  The fourth is draw 30 of
# perfbench/pool.json, with the multi-realize seed, completed by 5 arrows.
# All were recorded when the end derivatives in the columns of G came in
# closed form (fibonacci-13 and the worked example did not move then); any
# change of a float bit anywhere in the loop changes a line here.
TRAJECTORIES = [
    (
        "fibonacci-13",
        lambda: fibonacci_ref(13).path,
        lambda: smooth_seed(D2, [0.5, 0.5], {"A": 2.0, "B": -1.5}),
        3,
        {"A": "0x1.9e258affd8022p-2", "B": "0x1.30ed3a8013fefp-1"},
        "ac0f397b16470542b56809c1d04d8ed670d70acaa124a5bdf647abf3da568a4c",
    ),
    (
        "worked-example",
        model_path,
        lambda: smooth_seed(D4, [6 / 11, 2 / 11, 1 / 11, 2 / 11], {"A": 2.0}),
        0,
        {
            "A": "0x1.1745d1745d174p-1", "B": "0x1.745d1745d1746p-3",
            "C": "0x1.745d1745d1744p-4", "D": "0x1.745d1745d1746p-3",
        },
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    (
        "worked-loop",
        worked_loop,
        lambda: smooth_seed(D4, [6 / 11, 2 / 11, 1 / 11, 2 / 11], {"A": 2.0}),
        2,
        {
            "A": "0x1.149887ac96824p-1", "B": "0x1.2414dab896462p-3",
            "C": "0x1.27648af2db540p-8", "D": "0x1.4026f11ebc6b1p-2",
        },
        "87ec9c6bd952da6cb86535e94eb3b309c4254edaffd7014486266cc58138e039",
    ),
    (
        "pool-30",
        lambda: RauzyPath.from_kinds(D5, "tttbtbttbtbbbbbbtbbb"),
        lambda: smooth_seed(D5, [0.2] * 5, {"A": 1.5}),
        1,
        {
            "A": "0x1.0f9751206c854p-3", "B": "0x1.a097062b98e90p-5",
            "C": "0x1.752bc2b01bd40p-6", "D": "0x1.8bf86e834308ap-2",
            "E": "0x1.a0d64bfc11da6p-2",
        },
        "4c05b01fb4e4b09b5c4688b9785c5427ede2b367c5543b46b68918a618e7f697",
    ),
]


@pytest.mark.parametrize(
    "path, seed, iterations, tau, deltas_sha256",
    [case[1:] for case in TRAJECTORIES],
    ids=[case[0] for case in TRAJECTORIES],
)
def test_solver_trajectory_is_pinned(path, seed, iterations, tau, deltas_sha256):
    report = realize(GietFamily(seed()), path()).report
    assert report.realized
    assert report.iterations == report.newton_steps == iterations == len(report.deltas)
    assert {a: float.hex(v) for a, v in report.tau.items()} == tau
    assert hashlib.sha256(repr(report.deltas).encode()).hexdigest() == deltas_sha256


def test_averaged_steps_alone_keep_the_trajectory_of_the_averaged_loop(monkeypatch):
    # with every Newton step refused, fibonacci-13 takes the 66 averaged steps
    # the solver took before Newton came in, bit for bit
    monkeypatch.setattr(thurston, "_newton_step", lambda *args: None)
    report = realize(GietFamily(smooth_seed(*FIB_SEED)), fibonacci_ref(13).path).report
    assert report.realized and report.newton_steps == 0
    assert report.iterations == 66 == len(report.deltas)
    assert {a: float.hex(v) for a, v in report.tau.items()} == {
        "A": "0x1.9e25a4b002f58p-2", "B": "0x1.30ed2da7fe854p-1"}
    assert (hashlib.sha256(repr(report.deltas).encode()).hexdigest()
            == "9001ab7325094b3eb3c139ecb6d7dbcc7b6fc3122cd2cb8502a56563827f3be2")


def test_solve_calls_step_through_the_module_global_once_per_iteration(monkeypatch):
    calls = []
    original = thurston.step

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(thurston, "step", counting)
    ref = fibonacci_ref(13)
    report = solve(GietFamily(smooth_seed(D2, [0.5, 0.5], {"A": 2.0, "B": -1.5})), ref)
    assert report.realized and report.iterations == 3
    assert len(calls) == report.iterations
    assert all(args[0] is ref for args in calls)


FIB_SEED = (D2, [0.5, 0.5], {"A": 2.0, "B": -1.5})
WORKED_SEED = (D4, [6 / 11, 2 / 11, 1 / 11, 2 / 11], {"A": 2.0})


def test_solve_never_locates_a_point_by_value(monkeypatch):
    def no_lookup(self, x):
        raise AssertionError("a point was located by its value")

    # the exact walk of the model orbit locates grid points: build it first
    ref = fibonacci_ref(13)
    f = smooth_seed(*FIB_SEED)
    monkeypatch.setattr(exact_iet.Exchange, "letter_at", no_lookup)
    with pytest.raises(AssertionError, match="located by its value"):
        f.letter_at(0.5)
    report = solve(GietFamily(f), ref)
    assert report.realized and report.iterations == report.newton_steps == 3


@pytest.mark.parametrize("k", [1, 2, 40])
def test_solve_stops_at_a_boundary_when_the_order_breaks(monkeypatch, k):
    # the averaged steps alone, which take 66 iterations on this path
    monkeypatch.setattr(thurston, "_newton_step", lambda *args: None)
    monkeypatch.setattr(thurston, "step", breaking_step(k))
    report = solve(GietFamily(smooth_seed(*FIB_SEED)), fibonacci_ref(13))
    assert report.status == "boundary" and report.faces == ()
    assert report.iterations == k - 1 == len(report.deltas)
    assert report.newton_steps == 0
    assert report.map is not None
    assert report.map.rauzy_path(13).path.kinds != fibonacci_ref(13).path.kinds


@pytest.mark.parametrize("k", [1, 2, 3])
def test_newton_solve_stops_at_a_boundary_when_the_order_breaks(monkeypatch, k):
    # each Newton step pulls back once through ``step``, and this path takes three
    monkeypatch.setattr(thurston, "step", breaking_step(k))
    report = solve(GietFamily(smooth_seed(*FIB_SEED)), fibonacci_ref(13))
    assert report.status == "boundary" and report.faces == ()
    assert report.iterations == report.newton_steps == k - 1 == len(report.deltas)
    assert report.map.rauzy_path(13).path.kinds != fibonacci_ref(13).path.kinds


def test_every_pulled_point_lies_in_its_class_letter(monkeypatch):
    """The letter a step inverts a point with, its class's, is the letter of
    the bottom interval that holds the point, as ``eval_inverse`` finds it
    by value with its snap rule (``bottom_letter_at``)."""
    checked = []
    original = thurston.step

    def checking(ref, config, f):
        for a, run, _ in ref.pulls:
            ys = config[run]
            for y in ys:
                assert bottom_letter_at(f, y) == a
            checked.append(len(ys))
        return original(ref, config, f)

    monkeypatch.setattr(thurston, "step", checking)
    cases = [(fibonacci_ref(depth), FIB_SEED) for depth in range(10, 20)]
    cases.append((build_reference(worked_loop()), WORKED_SEED))
    for ref, seed in cases:
        before = len(checked)
        assert solve(GietFamily(smooth_seed(*seed)), ref).realized
        assert len(checked) > before
    assert sum(checked) > 100_000


def sign(v):
    return (v > 0) - (v < 0)


def poincare_wrong_sides(f, rho, N):
    """The Fibonacci ``q < N`` at which the lift ``F(x) = f(x) + [x in B]``
    of the map ``f`` on ``A B / B A`` puts ``F^q(0)`` on the other side of
    ``p``, the integer nearest ``q * rho``, than ``q * rho`` is.  By
    Poincaré's theorem the rotation number of ``f`` exceeds ``p / q``
    exactly when ``F^q(0) > p``, so an empty list says that ``f`` and the
    rotation by ``rho`` lie on the same side of every convergent ``p / q``:
    no induction and no reference points, one orbit of ``f``."""
    qs, a, b = set(), 1, 2
    while a < N:
        qs.add(a)
        a, b = b, a + b
    wrong, x, turns = [], 0.0, 0
    for q in range(1, max(qs) + 1):
        letter = f.letter_at(x)
        turns += letter == "B"
        x = f.branches[letter].eval(x)
        if q in qs:
            p = round(q * rho)
            if sign(x + turns - p) != sign(q * rho - p):
                wrong.append(q)
    return wrong


def test_realized_fibonacci_maps_keep_the_sides_of_poincare():
    """The d = 2 oracle: on the ``fib-realize`` seed, the map realized for
    the Fibonacci path of each depth 8-18 has the rotation number of its
    model IET, ``rho = cols_B / N``, to within the side of every Fibonacci
    convergent below ``N``; a tau moved by 1e-5 at depth 18 fails both this
    oracle and the path check."""
    family = GietFamily(smooth_seed(*FIB_SEED))
    for depth in range(8, 19):
        kinds = ("tb" * depth)[:depth]
        result = realize(family, RauzyPath.from_kinds(D2, kinds))
        assert result.certificate and result.appended == 0
        ref, tau = result.ref, result.report.tau
        rho = Fraction(path_matrix(ref.path).col_sums()["B"], ref.N)
        assert rho == ref.base_iet.length("B")
        assert poincare_wrong_sides(result.report.map, rho, ref.N) == []
    moved = family.at({"A": tau["A"] + 1e-5, "B": tau["B"] - 1e-5})
    assert moved.rauzy_path(depth, kinds).path.kinds != kinds
    assert poincare_wrong_sides(moved, rho, ref.N)[0] == 233


@pytest.mark.parametrize("exact", [True, False])
def test_step_on_a_nan_point_raises_order_violation(exact):
    ref = model_ref()
    family = ExactIETFamily(D4) if exact else GietFamily(smooth_seed(*WORKED_SEED))
    good = exact_reference(ref) if exact else reference_configuration(ref)
    f = family.at(tau_of(ref, good))
    for _, run, _ in ref.pulls:
        for x in range(ref.N)[run]:
            points = list(good)
            points[x] = float("nan")
            with pytest.raises(OrderViolation):
                step(ref, tuple(points), f)


def letter_seed(d, branch_a=None):
    """The d-letter seed ``X.../reversed``: lengths 1/d, k_A = 1.5,
    k_B = -0.8, and ``branch_a(domain, range_)`` for A if given."""
    letters = "ABCDE"[:d]
    datum = parse_datum(" ".join(letters), " ".join(reversed(letters)))
    ks = {"A": 1.5, "B": -0.8}

    def maker(a, domain, range_):
        if a == "A" and branch_a is not None:
            return branch_a(domain, range_)
        return SmoothParam(domain, range_, k=ks.get(a, 0.0))

    return giet_from_branches(datum, [1 / d] * d, [1 / d] * d, maker)


def bent_at_half(domain, range_):
    """Two linear pieces through the node at half the domain, 0.3 of the range."""
    (x0, x1), (y0, y1) = domain, range_
    node = (x0 + 0.5 * (x1 - x0), y0 + 0.3 * (y1 - y0))
    return PiecewiseLinear(((x0, y0), node, (x1, y1)))


@pytest.mark.parametrize(
    "seed",
    [lambda: letter_seed(3), lambda: letter_seed(4), lambda: letter_seed(5),
     lambda: letter_seed(4, bent_at_half)],
    ids=["3-letter", "4-letter", "5-letter", "4-letter-pl"],
)
def test_every_path_of_length_8_realizes(seed):
    """The main theorem at depth 8: the full family realizes every Rauzy path
    of length 8 from its seed's datum, each completed to a cyclic datum."""
    g = seed()
    family = GietFamily(g)
    for bits in itertools.product("tb", repeat=8):
        result = realize(family, RauzyPath.from_kinds(g.datum, "".join(bits)))
        assert result.certificate, "".join(bits)


def test_sweep_solves_the_orbit_system():
    """``_sweep`` returns ``y`` with ``y[x] = r[x] + D_x * y[T(x)]`` at every grid
    point, ``T`` the model's successor and ``D`` 0 at the critical classes."""
    rng = random.Random(53)
    for ref in (fibonacci_ref(10), build_reference(worked_loop())):
        critical = set(ref.grid.top_breaks.values())
        slopes = [0.0 if x in critical else rng.uniform(0.5, 1.5) for x in range(ref.N)]
        r = [rng.uniform(-1.0, 1.0) for _ in range(ref.N)]
        y = thurston._sweep(ref, slopes, r)
        for x in range(ref.N):
            assert y[x] == r[x] + slopes[x] * y[ref.grid.eval(x)]


# Fibonacci depth -> (iterations, Newton steps, whether each Newton attempt
# gave a step).  The averaged loop alone takes 191 iterations at depths
# 16-19 and hits ``max_iter`` (500) at depth 20.  From depth 19 on the
# second Newton step fails: the products of slopes along the orbit reach
# 1e22, and no step down to ``NEWTON_FLOOR`` keeps the points in order.
# 10 averaged steps follow, then two Newton steps.
DEEP_FIBONACCI = {
    16: (3, 3, [True] * 3),
    17: (3, 3, [True] * 3),
    18: (4, 4, [True] * 4),
    19: (13, 3, [True, False, True, True]),
    20: (13, 3, [True, False, True, True]),
}


@pytest.mark.parametrize("depth", sorted(DEEP_FIBONACCI))
def test_deep_fibonacci_paths_realize_by_newton(monkeypatch, depth):
    attempts = []
    newton_step = thurston._newton_step

    def recording(*args):
        out = newton_step(*args)
        attempts.append(out is not None)
        return out

    monkeypatch.setattr(thurston, "_newton_step", recording)
    path = RauzyPath.from_kinds(D2, ("tb" * depth)[:depth])
    result = realize(GietFamily(smooth_seed(*FIB_SEED)), path)
    report = result.report
    assert report.realized and result.certificate
    assert (report.iterations, report.newton_steps, attempts) == DEEP_FIBONACCI[depth]


def test_a_refused_newton_step_tries_only_steps_inside_the_interval(monkeypatch):
    # the refused step at depth 19 moves a point by between 2^13 and 2^14:
    # every step size above 2^-14 leaves [0, 1), so only the 6 from 2^-14
    # down to ``NEWTON_FLOOR`` are built, not all 20 from 1
    trials, attempts = [], []
    ordered = thurston.is_ordered
    monkeypatch.setattr(thurston, "is_ordered", lambda p: trials.append(p) or ordered(p))
    newton_step = thurston._newton_step

    def recording(*args):
        before = len(trials)
        out = newton_step(*args)
        attempts.append((out is not None, len(trials) - before))
        return out

    monkeypatch.setattr(thurston, "_newton_step", recording)
    report = solve(GietFamily(smooth_seed(*FIB_SEED)), fibonacci_ref(19))
    assert report.realized
    assert [ok for ok, _ in attempts] == DEEP_FIBONACCI[19][2]
    assert [n for ok, n in attempts if not ok] == [6]


def unchecked_pull(ref, config, f):
    """The pullback of ``config`` under ``f``, as ``step`` builds it, without
    its order check."""
    points = []
    for a, run, _ in ref.pulls:
        points.append(f.top_breaks[a])
        points += f.branches[a].inverse_many(config[run])
    return points


# the step by which the Newton step once bumped each mark, to read the
# columns of G and the branch ends off central differences
DIFF_H = 1e-7


def old_columns(family, ref, config):
    """The columns of ``G`` as the Newton step built them before they were in
    closed form: for each mark, the central difference of the N-point pulls
    of ``config`` under the maps at the two bumped taus."""
    columns = []
    for b in ref.datum.bottom[1:]:
        m = ref.grid.bottom_breaks[b]
        sides = []
        for h in (DIFF_H, -DIFF_H):
            bumped = list(config)
            bumped[m] += h
            sides.append((bumped[m], unchecked_pull(ref, config, family.at(tau_of(ref, bumped)))))
        (v1, plus), (v0, minus) = sides
        columns.append([(p - q) / (v1 - v0) for p, q in zip(plus, minus)])
    return columns


def newton_columns(monkeypatch, family, ref, config):
    """The columns of ``G`` of the Newton step from ``config``, read as the
    right-hand sides of its ``_sweep`` calls after the first, and the step."""
    rhs, sweep = [], thurston._sweep
    with monkeypatch.context() as patch:
        patch.setattr(thurston, "_sweep", lambda ref, slopes, r: rhs.append(r) or sweep(ref, slopes, r))
        tau = tau_of(ref, config)
        f = family.at(tau)
        out = thurston._newton_step(family, ref, config, step(ref, config, f), f, tau)
    return rhs[1:], out


def chain_seed(d):
    """The d-letter seed of ``letter_seed`` with every branch a chain: a
    smooth branch onto its range, then a smooth self-map of that range."""
    letters = "ABCDE"[:d]
    datum = parse_datum(" ".join(letters), " ".join(reversed(letters)))

    def maker(a, domain, range_):
        return compose(SmoothParam(domain, range_, k=1.5), SmoothParam(range_, range_, k=-0.8))

    return giet_from_branches(datum, [1 / d] * d, [1 / d] * d, maker)


# seeds and paths on which the closed-form Newton step is checked against
# central differences
COLUMN_CASES = pytest.mark.parametrize(
    "seed, kinds",
    [(lambda: smooth_seed(*FIB_SEED), "tbtbtbtbtbtbt"),
     (lambda: letter_seed(3), "bttbtbbtbtbt"),
     (lambda: letter_seed(4), "btbttbtbbttb"),
     (lambda: letter_seed(5), "bttbtbbtbtbb"),
     (lambda: letter_seed(4, bent_at_half), "btbttbtbbttb"),
     (lambda: chain_seed(3), "bttbtbbtbtbt")],
    ids=["2-letter", "3-letter", "4-letter", "5-letter", "4-letter-pl", "3-letter-chain"],
)


@COLUMN_CASES
def test_closed_form_columns_equal_central_differences_of_pulls(monkeypatch, seed, kinds):
    """Each column of ``G`` equals the central difference of two N-point
    pulls, within 1e-6 of the column's largest entry, at the reference and
    at the next two Newton iterates."""
    family = GietFamily(seed())
    ref = build_reference(completed(RauzyPath.from_kinds(family.datum, kinds)))
    config = reference_configuration(ref)
    for _ in range(3):
        f = family.at(tau_of(ref, config))
        if isinstance(f.branches["A"], PiecewiseLinear):
            # off its node by far more than a bump moves it, so no central
            # difference straddles the kink
            node = f.branches["A"].nodes[1][1]
            run = next(run for a, run, _ in ref.pulls if a == "A")
            assert min(abs(y - node) for y in config[run]) > 1e-5
        columns, following = newton_columns(monkeypatch, family, ref, config)
        old = old_columns(family, ref, config)
        assert len(columns) == len(old) == family.datum.d - 1
        for new_column, old_column in zip(columns, old):
            scale = max(map(abs, old_column))
            assert scale > 0
            assert max(abs(u - v) for u, v in zip(new_column, old_column)) <= 1e-6 * scale
        assert following is not None
        config = following


def bumped_end_derivatives(family, ref, config):
    """The branch-end derivatives of the family map at ``config`` as the
    Newton step read them before they were in closed form: per mark, each
    letter's ``(dx0, dW/W, dc0, dH/H)`` from central differences of the
    branch ends of the maps at the two bumped taus."""
    def ends(g):  # each letter's branch ends (x0, x1, c0, c1) in the map g
        return {a: (*b.domain, *b.range_) for a, b in g.branches.items()}

    here, out = ends(family.at(tau_of(ref, config))), []
    for b in ref.datum.bottom[1:]:
        m = ref.grid.bottom_breaks[b]
        sides = []
        for h in (DIFF_H, -DIFF_H):
            bumped = list(config)
            bumped[m] += h
            sides.append((bumped[m], ends(family.at(tau_of(ref, bumped)))))
        (v1, plus), (v0, minus) = sides
        derivatives = {}
        for a, (x0, x1, c0, c1) in here.items():
            dx0, dx1, dc0, dc1 = [(p - q) / (v1 - v0) for p, q in zip(plus[a], minus[a])]
            derivatives[a] = (dx0, (dx1 - dx0) / (x1 - x0), dc0, (dc1 - dc0) / (c1 - c0))
        out.append(derivatives)
    return out


@COLUMN_CASES
def test_end_derivatives_equal_central_differences_of_the_bumped_ends(seed, kinds):
    """``full_family.end_derivatives`` agrees with the central differences of
    the bumped maps' ends to 1e-7 relative (absolute below 1), at the
    reference and at the next two Newton iterates."""
    family = GietFamily(seed())
    ref = build_reference(completed(RauzyPath.from_kinds(family.datum, kinds)))
    config = reference_configuration(ref)
    for _ in range(3):
        tau = tau_of(ref, config)
        exact = full_family.end_derivatives(family.seed, tau)
        old = bumped_end_derivatives(family, ref, config)
        assert len(exact) == len(old) == family.datum.d - 1
        for new_mark, old_mark in zip(exact, old):
            assert new_mark.keys() == old_mark.keys()
            for a, ends in old_mark.items():
                for u, v in zip(new_mark[a], ends):
                    assert math.isclose(u, v, rel_tol=1e-7, abs_tol=1e-7), (a, u, v)
        f = family.at(tau)
        config = thurston._newton_step(family, ref, config, step(ref, config, f), f, tau)
        assert config is not None


@pytest.mark.parametrize("case", ["fibonacci-13", "pool-30"])
def test_each_update_pulls_the_points_back_once(monkeypatch, case):
    """A Newton step pulls no point: every accepted update inverts each
    letter's run once, in its one call of ``thurston.step``."""
    _, path, seed, *_ = next(c for c in TRAJECTORIES if c[0] == case)
    runs, steps = [], []
    inverse_many, original = SmoothParam.inverse_many, thurston.step
    monkeypatch.setattr(SmoothParam, "inverse_many",
                        lambda self, ys: runs.append(len(ys)) or inverse_many(self, ys))
    monkeypatch.setattr(thurston, "step", lambda *args: steps.append(None) or original(*args))
    result = realize(GietFamily(seed()), path())
    report, d = result.report, result.ref.datum.d
    assert report.realized and report.iterations == report.newton_steps > 0
    assert len(steps) == report.iterations
    assert len(runs) == d * report.iterations
    assert sum(runs) == (result.ref.N - d) * report.iterations


@pytest.mark.parametrize(
    "seed, path",
    [(lambda: smooth_seed(*FIB_SEED), lambda: fibonacci_ref(15).path),
     (lambda: letter_seed(4),
      lambda: RauzyPath.from_kinds(D4, "btbttttbbtbttttbbtbtttbttttttt"))],
    ids=["fibonacci-15", "4-letter"],
)
def test_realizing_sets_nest(seed, path):
    """The map realized for a path realizes each of its prefixes that ends at
    a cyclic datum: its partition of that order passes the certificate
    against the prefix's own model."""
    result = realize(GietFamily(seed()), path())
    assert result.certificate
    prefixes = [k for k in range(1, len(result.ref.path) + 1)
                if sigma_and_cyclicity(prefix(result.ref.path, k).target)[1]]
    assert len(prefixes) >= 8
    for k in prefixes:
        ref = build_reference(prefix(result.ref.path, k))
        assert in_model_order(ref, dynamical_partition(result.report.map, k)), k


def fib_partition_with(monkeypatch, change):
    """``realize`` on Fibonacci depth 12, its float partition passed through
    ``change`` on the way to the certificate."""
    partition = thurston.dynamical_partition
    monkeypatch.setattr(thurston, "dynamical_partition",
                        lambda m, r, induction=None, cells=None:
                        change(partition(m, r, induction, cells)))
    return realize(GietFamily(smooth_seed(*FIB_SEED)), RauzyPath.from_kinds(D2, "tb" * 6))


def test_certificate_holds_on_the_unchanged_partition(monkeypatch):
    result = fib_partition_with(monkeypatch, lambda p: p)
    assert result.certificate and result.certificate_error is None


@pytest.mark.parametrize("k", [0, 200, 608])
def test_certificate_fails_when_two_neighbouring_labels_swap(monkeypatch, k):
    def swapped(p):
        atoms = list(p.atoms)
        (lo, hi, a, i), (lo2, hi2, b, j) = atoms[k:k + 2]
        assert (a, i) != (b, j)
        atoms[k:k + 2] = [(lo, hi, b, j), (lo2, hi2, a, i)]
        return DynamicalPartition(p.order, tuple(atoms), p.path)

    result = fib_partition_with(monkeypatch, swapped)
    assert result.report.realized and result.ref.N == 610
    assert not result.certificate and result.certificate_error is None


def test_certificate_fails_on_a_missing_atom(monkeypatch):
    result = fib_partition_with(monkeypatch,
                                lambda p: DynamicalPartition(p.order, p.atoms[:-1], p.path))
    assert not result.certificate


STRADDLE = "interval [0.7961160142203222, 0.7964267713989692) straddles the right end of letter B"


def raising(error):
    def partition(m, r, induction=None, cells=None):
        raise error
    return partition


def test_a_straddle_in_the_certificate_is_a_false_certificate(monkeypatch):
    monkeypatch.setattr(thurston, "dynamical_partition", raising(InductionFailed(STRADDLE)))
    result = realize(GietFamily(smooth_seed(*FIB_SEED)), RauzyPath.from_kinds(D2, "tb" * 6))
    assert result.report.realized
    assert result.certificate is False and result.certificate_error == STRADDLE


def test_an_untiled_partition_in_the_certificate_is_still_an_error(monkeypatch):
    untiled = GietlabError("atom B3 [0.5, 0.6) does not start where atom A0 ends, 0.4")
    monkeypatch.setattr(thurston, "dynamical_partition", raising(untiled))
    with pytest.raises(GietlabError, match="does not start where"):
        realize(GietFamily(smooth_seed(*FIB_SEED)), RauzyPath.from_kinds(D2, "tb" * 6))


# the path of ROADMAP item 11 on ``letter_seed(5, bent_at_half)``: realized,
# but a floor of its partition straddles a breakpoint by more than the snap
STRADDLE_PATH = "bbbttbbbbtbtttbbtttbttbttbbtbbbttbbttbbb"


def fibonacci_case(depth):
    return lambda: smooth_seed(*FIB_SEED), lambda: fibonacci_ref(depth).path, True


def trajectory_case(name):
    _, path, seed, *_ = next(c for c in TRAJECTORIES if c[0] == name)
    return seed, path, True


@pytest.mark.parametrize(
    "seed, path, tiled",
    [*map(fibonacci_case, range(12, 16)),
     trajectory_case("pool-30"),
     (lambda: letter_seed(5, bent_at_half), lambda: RauzyPath.from_kinds(D5, STRADDLE_PATH),
      False)],
    ids=["fibonacci-12", "fibonacci-13", "fibonacci-14", "fibonacci-15", "pool-30", "straddle"],
)
def test_realize_induces_the_realized_map_once(monkeypatch, seed, path, tiled):
    """The certificate's partition is built off the induction of the
    solver's last path check: ``realize`` runs one full-length induction of
    the realized map, and the partition equals a fresh one atom for atom,
    bit for bit, or fails with the same message."""
    inductions, rauzy_path = [], Giet.rauzy_path
    partitions, partition = [], thurston.dynamical_partition

    def recording_induction(self, r, kinds=None):
        result = rauzy_path(self, r, kinds)
        inductions.append((self, len(result.path)))
        return result

    def recording_partition(m, r, induction=None, cells=None):
        partitions.append(partition(m, r, induction, cells))
        return partitions[-1]

    with monkeypatch.context() as patch:
        patch.setattr(Giet, "rauzy_path", recording_induction)
        patch.setattr(thurston, "dynamical_partition", recording_partition)
        result = realize(GietFamily(seed()), path())
    report, r = result.report, len(result.ref.path)
    assert report.realized and report.induction.path.kinds == result.ref.path.kinds
    assert [n for g, n in inductions if g is report.map] == [r]
    if not tiled:
        assert not result.certificate and not partitions
        with pytest.raises(InductionFailed) as fresh:
            dynamical_partition(report.map, r)
        assert result.certificate_error == str(fresh.value)
        with pytest.raises(InductionFailed) as laid:
            dynamical_partition(report.map, r, cells=result.ref.cells)
        assert str(laid.value) == str(fresh.value)
        assert "straddles the right end of letter" in result.certificate_error
        return

    def hexed(p):
        return p.path, [(lo.hex(), hi.hex(), a, i) for lo, hi, a, i in p.atoms]

    assert result.certificate and result.certificate_error is None and len(partitions) == 1
    assert partitions[0].path is report.induction.path
    assert hexed(partitions[0]) == hexed(dynamical_partition(report.map, r))


def hexed_partition(p):
    """A partition's path and atoms, each end as ``float.hex``."""
    return p.path, [(lo.hex(), hi.hex(), a, i) for lo, hi, a, i in p.atoms]


NESTING_PATH = "btbttttbbtbttttbbtbtttbttttttt"


@pytest.mark.parametrize(
    "seed, path",
    [*((s, p) for s, p, _ in map(fibonacci_case, range(12, 16))),
     trajectory_case("pool-30")[:2],
     (lambda: letter_seed(4), lambda: RauzyPath.from_kinds(D4, NESTING_PATH)),
     (lambda: letter_seed(4, bent_at_half), lambda: RauzyPath.from_kinds(D4, NESTING_PATH))],
    ids=["fibonacci-12", "fibonacci-13", "fibonacci-14", "fibonacci-15", "pool-30",
         "4-letter-nesting", "4-letter-pl-nesting"],
)
def test_the_partition_laid_in_the_model_cells_is_the_sorted_one(seed, path):
    """On a certified map the floors written into the model's cells are the
    sorted partition bit for bit, and stay plain tuples: nothing was sorted."""
    result = realize(GietFamily(seed()), path())
    m, r, ref = result.report.map, len(result.ref.path), result.ref
    laid = dynamical_partition(m, r, cells=ref.cells)
    assert result.certificate and all(type(atom) is tuple for atom in laid.atoms)
    assert hexed_partition(laid) == hexed_partition(dynamical_partition(m, r))
    assert in_model_order(ref, laid)


@pytest.mark.parametrize("k", [0, 300, 608])
def test_exchanged_cells_fall_back_to_the_sorted_partition(monkeypatch, k):
    """A cells table with two neighbouring cells exchanged puts two floors
    out of order, so the floors laid in the cells are sorted: each tower is
    walked once, the atoms stay plain tuples and equal the partition made
    without a table bit for bit, and the certificate is false with no error."""
    cells = thurston.RefConfig.cells.func
    monkeypatch.setattr(thurston.RefConfig, "cells",
                        property(lambda ref: exchanged_cells(cells(ref), k)))
    result = realize(GietFamily(smooth_seed(*FIB_SEED)), RauzyPath.from_kinds(D2, "tb" * 6))
    m, r, ref = result.report.map, len(result.ref.path), result.ref
    assert result.report.realized and ref.N == 610
    assert not result.certificate and result.certificate_error is None
    walks, tower = [], exact_iet.Exchange.tower
    with monkeypatch.context() as patch:
        patch.setattr(exact_iet.Exchange, "tower",
                      lambda self, *args: walks.append(args) or tower(self, *args))
        sorted_out = dynamical_partition(m, r, cells=ref.cells)
    assert len(walks) == len(m.datum.alphabet)
    assert all(type(atom) is tuple for atom in sorted_out.atoms)
    assert hexed_partition(sorted_out) == hexed_partition(dynamical_partition(m, r))
    assert not in_model_order(ref, sorted_out)


def in_model_order_per_atom(ref, partition):
    """The certificate's verdict with one orbit lookup per atom: the ``k``-th
    atom ``(a, i)`` is the cell at orbit position ``lifts[a] + i``."""
    N, orbit, lift = ref.N, ref.orbit, ref.lifts
    return len(partition.atoms) == N and all(
        orbit[(lift[a] + i) % N] == k for k, (_, _, a, i) in enumerate(partition.atoms))


@pytest.mark.parametrize(
    "seed, path",
    [fibonacci_case(12)[:2], trajectory_case("pool-30")[:2]],
    ids=["fibonacci-12", "pool-30"],
)
def test_in_model_order_agrees_with_the_per_atom_verdict(seed, path):
    """On the realized partition, on neighbouring atoms swapped, on an atom
    missing, on an index past its letter's tower and on random permutations,
    ``in_model_order`` gives the per-atom verdict, and only the unchanged
    partition is in the model's order."""
    result = realize(GietFamily(seed()), path())
    ref, p = result.ref, dynamical_partition(result.report.map, len(result.ref.path))
    atoms, rng = list(p.atoms), random.Random(31)
    cases = [atoms, atoms[:-1], atoms[1:]]
    for k in (0, len(atoms) // 2, len(atoms) - 2):
        cases.append(atoms[:k] + [atoms[k + 1], atoms[k]] + atoms[k + 2:])
    lo, hi, a, _ = atoms[-1]
    cases.append(atoms[:-1] + [(lo, hi, a, len(ref.cells[a]))])
    for _ in range(10):
        shuffled = atoms[:]
        i, j = rng.sample(range(len(atoms)), 2)
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        cases.append(shuffled)
        cases.append(rng.sample(atoms, len(atoms)))
    verdicts = []
    for case in cases:
        q = DynamicalPartition(p.order, tuple(case), p.path)
        verdicts.append(in_model_order(ref, q))
        assert verdicts[-1] == in_model_order_per_atom(ref, q)
    assert verdicts == [True] + [False] * (len(cases) - 1)


def test_random_three_letter_paths_of_length_30_realize():
    """The first 10 of the ``Random(2)`` draws of length 30 on the 3-letter
    seed.  The averaged loop alone realizes 4 of these 10 within 500
    iterations, and 11 of all 40 draws."""
    g = letter_seed(3)
    rng = random.Random(2)
    for _ in range(10):
        kinds = "".join(rng.choice("tb") for _ in range(30))
        result = realize(GietFamily(g), RauzyPath.from_kinds(g.datum, kinds))
        assert result.certificate, kinds
        assert result.report.iterations == result.report.newton_steps <= 3, kinds


def test_long_four_letter_path_takes_three_newton_steps():
    # N = 8,172; the averaged loop alone first realizes it at iteration 2,071
    g = letter_seed(4)
    result = realize(GietFamily(g), RauzyPath.from_kinds(g.datum, "btbttttbbtbttttbbtbtttbttttttt"))
    assert result.ref.N == 8172 and result.certificate
    assert result.report.iterations == result.report.newton_steps == 3


def first_wrong_kind(family, kinds, t_a):
    """The kind of the first arrow where the map at ``tau = (t_a, 1 - t_a)``
    leaves ``kinds``, None when it follows all of them, or ``"tie"`` when
    its induction stops at a tie first."""
    result = family.at({"A": t_a, "B": 1 - t_a}).rauzy_path(len(kinds), kinds)
    got = result.path.kinds
    return "tie" if result.tie else None if got == kinds else got[-1]


def narrowed(family, kinds, outer, inner, side, steps=40):
    """Bisect between ``outer``, whose first wrong arrow is ``side``, and the
    realizing ``inner``; return the outer end, moved as near as the
    induction tells the two apart.  Every point crossed on the way is on
    ``side`` or realizes the path."""
    for _ in range(steps):
        mid = (outer + inner) / 2
        kind = first_wrong_kind(family, kinds, mid)
        if kind == "tie":
            break
        assert kind in (None, side)
        if kind is None:
            inner = mid
        else:
            outer = mid
    return outer


def bisected_bracket(family, kinds):
    """An interval of tau_A around the parameters that realize ``kinds``.

    On ``A B / B A`` each arrow is increasing in the ratio of the lengths, so
    a map whose first wrong arrow is ``t`` has too small a tau_A, and one
    whose first wrong arrow is ``b`` too large.  Bisection first finds a
    realizing tau_A, then narrows each end towards it.
    """
    lo, hi = 0.01, 0.9  # not centred on 1/2, where the two lengths tie
    assert first_wrong_kind(family, kinds, lo) == "t"
    assert first_wrong_kind(family, kinds, hi) == "b"
    while (kind := first_wrong_kind(family, kinds, mid := (lo + hi) / 2)) is not None:
        assert kind != "tie"
        if kind == "t":
            lo = mid
        else:
            hi = mid
    return narrowed(family, kinds, lo, mid, "t"), narrowed(family, kinds, hi, mid, "b")


@pytest.mark.parametrize("depth", range(12, 19))
def test_solver_tau_lies_in_the_bisection_bracket(depth):
    """A test oracle for d = 2, independent of the solver: bisection on the
    kind of the first wrong arrow brackets the parameters that realize the
    Fibonacci path, and the solver's tau_A lies inside the bracket."""
    family = GietFamily(smooth_seed(*FIB_SEED))
    kinds = ("tb" * depth)[:depth]
    lo, hi = bisected_bracket(family, kinds)
    t_a = realize(family, RauzyPath.from_kinds(D2, kinds)).report.tau["A"]
    assert lo < t_a < hi
    assert hi - lo < 1e-5
