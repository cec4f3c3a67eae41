import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import gietlab.exact_iet as exact_iet
import gietlab.thurston as thurston
from conftest import admissible, breaking_step, class_at, orbit_order, random_unit_giet
from gietlab.branches import PiecewiseLinear, SmoothParam
from gietlab.combinatorics import (
    RauzyPath,
    find_cyclic,
    find_path,
    parse_datum,
    path_matrix,
    rauzy_class,
    sigma_and_cyclicity,
)
from gietlab.errors import InductionMismatch, NoCyclicDatum, OrderViolation, TargetNotCyclic
from gietlab.exact_iet import ExactIET
from gietlab.giet import (
    dynamical_partition,
    giet_from_branches,
    giet_from_iet,
    partitions_equivalent,
)
from gietlab.thurston import (
    ExactIETFamily,
    GietFamily,
    MAX_REFERENCE_POINTS,
    build_reference,
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
    assert sorted(reference_configuration(ref)) == [Fraction(k, 11) for k in range(11)]


def test_build_reference_requires_cyclic_target():
    with pytest.raises(TargetNotCyclic):
        build_reference(RauzyPath(D4))  # sigma of D4 is a double transposition


def test_build_reference_empty_path():
    ref = build_reference(RauzyPath(D2))
    assert ref.N == 2
    assert sorted(reference_configuration(ref)) == [Fraction(0), Fraction(1, 2)]
    assert labels_in_order(ref) == ["A0", "B0"]


def test_realize_refuses_beyond_the_point_cap(monkeypatch):
    # Fibonacci paths on A B / B A: N is a Fibonacci number
    under = RauzyPath.from_kinds(D2, "tb" * 12)
    over = RauzyPath.from_kinds(D2, "tb" * 12 + "t")
    assert build_reference(under).N == 196_418 <= MAX_REFERENCE_POINTS
    assert build_reference(over).N == 317_811  # the reference itself has no cap
    # one arrow deeper the solver refuses before any orbit point is built
    monkeypatch.setattr(thurston, "build_reference", None)
    with pytest.raises(InductionMismatch, match=r"N=317811 points, beyond the cap 200000"):
        realize(GietFamily(smooth_seed(*FIB_SEED)), over)


def test_build_reference_walks_the_model_orbit_once(monkeypatch):
    path = fibonacci_ref(15).path
    calls = []
    model_eval = ExactIET.eval
    monkeypatch.setattr(ExactIET, "eval", lambda T, x: calls.append(x) or model_eval(T, x))
    named = []
    monkeypatch.setattr(thurston, "LabelClass", lambda *args: named.append(args))
    ref = build_reference(path)
    # one evaluation per orbit point; h is read off the orbit positions, and
    # no class is named until a label is asked for
    assert ref.N == 2584 and len(calls) == ref.N
    assert named == []
    assert ref.h == _reference_in_fractions(path)["h"]


def test_reference_fields_do_not_grow_with_n():
    assert [f.name for f in dataclasses.fields(thurston.RefConfig)] == [
        "path", "N", "h", "base_iet", "grid", "crit_pos"
    ]
    for depth in (5, 15):
        ref = fibonacci_ref(depth)
        assert len(ref.h) == len(ref.crit_pos) == len(ref.grid.lengths) == 2


@pytest.mark.parametrize("model_eval, message", [
    (lambda T, x: min(x + 1, 10), "orbit of 0 does not close up after N=11 steps"),
    (lambda T, x: x, "orbit of 0 is not the whole grid of N=11 points"),
    # the whole grid, but B's critical point is 5 steps from its lift, with q_B = 2
    (lambda T, x: (x + 1) % 11, "critical point of B is 5 steps from its lift, not under q=2"),
])
def test_build_reference_reports_a_broken_model_orbit(monkeypatch, model_eval, message):
    monkeypatch.setattr(ExactIET, "eval", model_eval)
    with pytest.raises(InductionMismatch, match=message):
        model_ref()


def test_reference_orbit_is_single_cycle():
    ref = model_ref()
    # the index shift [letter, index + 1] steps through all N classes
    # before returning
    first = label = ref.canonical_label("A", 0)
    seen = set()
    for _ in range(ref.N):
        seen.add(label.orbit_pos)
        label = ref.canonical_label(label.letter, label.index + 1)
    assert len(seen) == ref.N and label == first


def test_canonical_label_identifications():
    ref = model_ref()
    assert ref.canonical_label("A", 0) == thurston.LabelClass("A", 0, 0)
    # one step back from (A, 0) is the class displayed with the letter D
    assert ref.canonical_label("A", -1).name == "D0"
    # exhaustive normalization: every (letter, small index) lands on one of
    # exactly N classes
    names = {ref.canonical_label(a, i).orbit_pos for a in "ABCD" for i in range(-15, 16)}
    assert len(names) == ref.N


def test_class_of_atom_matches_figure_order():
    ref = model_ref()
    partition = dynamical_partition(ref.base_iet, 5)
    labels = [ref.class_of_atom(a.letter, a.index).name for a in partition.atoms]
    assert labels == FIG_LABELS


def test_tau_of_reference_exact_and_float():
    ref = model_ref()
    lam = ref.base_iet.lengths_by_letter()
    exact = tau_of(ref, reference_configuration(ref, exact=True))
    assert exact == lam
    approx = tau_of(ref, reference_configuration(ref, exact=False))
    assert all(abs(approx[a] - float(lam[a])) <= 1e-12 for a in "ABCD")


def test_step_fixed_point_exact_worked_example():
    ref = model_ref()
    config = reference_configuration(ref, exact=True)
    out = pull(ExactIETFamily(D4), ref, config)
    assert out == config


def test_step_fixed_point_float_worked_example():
    ref = model_ref()
    config = reference_configuration(ref, exact=False)
    out = pull(GietFamily(giet_from_iet(ref.base_iet)), ref, config)
    assert max(abs(a - b) for a, b in zip(out, config)) <= 1e-12


def test_step_fixed_point_random_cyclic_paths():
    rng = random.Random(20)
    for _ in range(10):
        path = random_cyclic_path(rng)
        ref = build_reference(path)
        reference = reference_configuration(ref, True)
        exact = pull(ExactIETFamily(path.source), ref, reference_configuration(ref, True))
        assert exact == reference
        approx = pull(
            GietFamily(giet_from_iet(ref.base_iet)), ref, reference_configuration(ref, False)
        )
        assert max(
            abs(a - float(b)) for a, b in zip(approx, reference)
        ) <= 1e-12


def test_step_preserves_order_for_nonlinear_families():
    rng = random.Random(21)
    ref = model_ref()
    for _ in range(5):
        seed = random_unit_giet(rng, datum=D4)
        config = reference_configuration(ref, exact=False)
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
    config = reference_configuration(ref, exact=False)
    f_tau = family.at(tau_of(ref, config))
    out = step(ref, config, f_tau)
    moved = max(abs(a - b) for a, b in zip(out, config))
    T = ref.base_iet
    worst = 0.0
    for i in range(1, 512):
        y = i / 512
        worst = max(worst, abs(f_tau.eval_inverse(y) - float(T.eval_inverse(Fraction(i, 512)))))
    assert moved <= worst + 1e-12


def test_solve_iet_family_realizes_at_reference():
    ref = model_ref()
    report = solve(ExactIETFamily(D4), ref)
    assert report.status == "realized"
    assert report.iterations == 0
    assert report.tau == ref.base_iet.lengths_by_letter()


def test_exact_solve_averages_in_fractions():
    ref = fibonacci_ref(8)
    points = list(reference_configuration(ref, True))
    points[ref.grid.bottom_breaks["A"]] += Fraction(1, 3 * ref.N)  # off the model's tau
    start = tuple(points)
    report = solve(ExactIETFamily(D2), ref, start=start)
    assert report.realized and report.iterations == 1
    pulled = pull(ExactIETFamily(D2), ref, start)
    halfway = tuple(a / 2 + b / 2 for a, b in zip(start, pulled))
    assert report.config == halfway
    assert all(type(v) is Fraction for v in report.config)


def test_solve_boundary_with_absurd_threshold(monkeypatch):
    ref = model_ref()
    # tau is (6, 2, 1, 2)/11: every entry but A's is at or below 0.5
    monkeypatch.setattr(thurston, "EPS_DEG", 0.5)
    faces = tuple(ref.canonical_label(a, 1).name for a in "DCB")
    for family in (ExactIETFamily(D4), GietFamily(giet_from_iet(ref.base_iet))):
        report = solve(family, ref)
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
    report = solve(GietFamily(seed), ref, max_iter=10)
    assert report.status == "max_iter"
    assert report.iterations == 10
    assert len(report.deltas) == 10
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
    f = GietFamily(seed).at(result.tau)
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
    prefix = model_path().prefix(3)  # ends at A B C D / D C B A, not cyclic
    assert not sigma_and_cyclicity(prefix.target)[1]
    lam = [6 / 11, 2 / 11, 1 / 11, 2 / 11]
    seed = giet_from_branches(
        D4, lam, lam, lambda a, d, r: SmoothParam(d, r, k=1.0 if a == "B" else 0.0)
    )
    result = realize(GietFamily(seed), prefix)
    assert result.report.realized
    assert result.appended >= 1
    assert len(result.full_path) <= 3 + len(rauzy_class(D4))
    f = GietFamily(seed).at(result.tau)
    assert f.rauzy_path(3).path.kinds == prefix.kinds


def test_realize_builds_the_rauzy_class_once(monkeypatch):
    built = []
    monkeypatch.setattr(thurston, "rauzy_class", lambda d: built.append(d) or rauzy_class(d))
    prefix = model_path().prefix(3)  # a non-cyclic target needs a completion
    lam = [6 / 11, 2 / 11, 1 / 11, 2 / 11]
    seed = giet_from_branches(D4, lam, lam, lambda a, d, r: SmoothParam(d, r, k=0.0))
    assert realize(GietFamily(seed), prefix).appended >= 1
    assert built == [D4]


def test_realize_no_cyclic_datum(monkeypatch):
    monkeypatch.setattr(thurston, "find_cyclic", lambda cls: None)
    prefix = model_path().prefix(3)
    seed = random_unit_giet(random.Random(23), datum=D4)
    with pytest.raises(NoCyclicDatum):
        realize(GietFamily(seed), prefix)


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
            via_window = ref.canonical_label(a, j - ref.h[a])
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
        assert pull(
            ExactIETFamily(path.source), ref, reference_configuration(ref, True)
        ) == reference_configuration(ref, True)
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
    base = reference_configuration(ref, exact=False)
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
    pts = list(reference_configuration(ref, exact=False))
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
    report = solve(ExactIETFamily(D4), ref, start=squeezed)
    assert report.status == "boundary"
    assert report.faces


def _reference_in_fractions(path):
    """Orbit data of ``build_reference`` computed with the fraction model IET."""
    matrix = path_matrix(path)
    q = matrix.row_sums()
    N = sum(q.values())
    base = ExactIET.from_lengths(
        path.source, {a: Fraction(c, N) for a, c in matrix.col_sums().items()}, normalize=False
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
        points = reference_configuration(ref, True)
        orbit = expected.pop("points")
        geometric = orbit_order(ref)
        assert geometric == expected.pop("geometric")
        assert points == tuple(orbit[c] for c in geometric)
        assert tuple(map(float, points)) == reference_configuration(ref, False)
        # the class named at every orbit position
        assert tuple(class_at(ref, c) for c in range(ref.N)) == expected.pop("classes")
        for name, value in expected.items():
            assert getattr(ref, name) == value, name
        # the order-r atoms name each class once: atom (a, i + h_a) is window class c
        assert {
            ref.class_of_atom(a, i + ref.h[a]).orbit_pos: (a, i) for a, i in window.values()
        } == window
        assert all(type(x) is Fraction for x in points + ref.base_iet.lengths)


def test_certificate_partition_on_the_grid_equals_the_fraction_one():
    """``realize`` certifies against the model partitioned on its integer
    grid: the same labels as the fraction model's, on the N unit cells."""
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
    assert report.status == "realized" and report.iterations > 10
    # one map per step, plus the map whose path check succeeds
    assert len(built) == report.iterations + 1


def old_pull_order(ref, geometric):
    """The classes ``step`` pulls back, as ``step`` used to list them on every
    call: those whose index predecessor is not yet placed."""
    N = ref.N
    new_points = [None] * N
    for a in ref.datum.alphabet:
        new_points[ref.crit_pos[a]] = 0.0
    return tuple(c for c in geometric if new_points[(c - 1) % N] is None)


def fibonacci_ref(depth):
    T = ExactIET.from_lengths(D2, [Fraction(2584, 6765), Fraction(4181, 6765)])
    return build_reference(T.rauzy_path(depth).path)


def random_completed_refs(rng, count):
    """References of ``count`` random 4- and 5-letter paths, each completed
    to a cyclic target."""
    classes = {datum: rauzy_class(datum) for datum in (D4, D5)}
    refs = []
    for _ in range(count):
        datum = rng.choice((D4, D5))
        kinds = "".join(rng.choice("tb") for _ in range(rng.randint(4, 12)))
        path = RauzyPath.from_kinds(datum, kinds)
        if not sigma_and_cyclicity(path.target)[1]:
            cls = classes[datum]
            path = path.concat(find_path(cls, path.target, find_cyclic(cls)))
        refs.append(build_reference(path))
    return refs


def test_pull_order_equals_the_per_step_comprehension():
    refs = [fibonacci_ref(depth) for depth in range(10, 16)]
    refs += random_completed_refs(random.Random(73), 20)
    for ref in refs:
        geometric = orbit_order(ref)
        pulled = [x for lo, hi in ref.runs for x in range(lo, hi)]
        assert tuple(geometric[x] for x in pulled) == old_pull_order(ref, geometric)
        assert len(pulled) == ref.N - ref.datum.d
        # the preimage of the point read at x lands on its class's index
        # predecessor: a letter's run fills its top interval after its first point
        u_t = ref.grid.top_breaks
        landed = {}
        for a, (lo, hi) in zip(ref.datum.bottom, ref.runs):
            for k in range(hi - lo):
                landed[lo + k] = u_t[a] + 1 + k
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
    good = reference_configuration(ref, exact=False)
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
    good = reference_configuration(ref, exact=False)
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
    every point pulled back on its own through ``Giet.eval_inverse``, on
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
        new_points[(c - 1) % N] = f.eval_inverse(points[c])
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
    config = reference_configuration(ref, exact=False)
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


# The solver trajectory, byte for byte: iterations, tau as float.hex, and the
# sha256 of repr(deltas).  The first three were recorded before the pullback
# moved to grid order, the fourth (draw 30 of perfbench/pool.json, with the
# multi-realize seed, completed by 5 arrows) before each class was pulled
# back through its own letter's branch; any change of a float bit anywhere
# in the loop changes a line here.
TRAJECTORIES = [
    (
        "fibonacci-13",
        lambda: fibonacci_ref(13).path,
        lambda: smooth_seed(D2, [0.5, 0.5], {"A": 2.0, "B": -1.5}),
        66,
        {"A": "0x1.9e25a4b002f58p-2", "B": "0x1.30ed2da7fe854p-1"},
        "9001ab7325094b3eb3c139ecb6d7dbcc7b6fc3122cd2cb8502a56563827f3be2",
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
        20,
        {
            "A": "0x1.1464a2dbf2ee2p-1", "B": "0x1.26c7f8264fcdap-3",
            "C": "0x1.34146f95b8740p-8", "D": "0x1.3f026c769b5b3p-2",
        },
        "e68591a71d15fd0ad905c2e5a6f25d99de34671856edce18ddbe6c2e967d7e22",
    ),
    (
        "pool-30",
        lambda: RauzyPath.from_kinds(D5, "tttbtbttbtbbbbbbtbbb"),
        lambda: smooth_seed(D5, [0.2] * 5, {"A": 1.5}),
        30,
        {
            "A": "0x1.14147b915d1d8p-3", "B": "0x1.901fc5cdd1560p-5",
            "C": "0x1.76bdd0a137d60p-6", "D": "0x1.8aea665c13c0ep-2",
            "E": "0x1.a19b861770084p-2",
        },
        "ebb6fd46172f84c41200d2474493cc848ed0c000344075616dbe78516d083db7",
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
    assert report.iterations == iterations == len(report.deltas)
    assert {a: float.hex(v) for a, v in report.tau.items()} == tau
    assert hashlib.sha256(repr(report.deltas).encode()).hexdigest() == deltas_sha256


def test_solve_calls_step_through_the_module_global_once_per_iteration(monkeypatch):
    calls = []
    original = thurston.step

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(thurston, "step", counting)
    ref = fibonacci_ref(13)
    report = solve(GietFamily(smooth_seed(D2, [0.5, 0.5], {"A": 2.0, "B": -1.5})), ref)
    assert report.realized and report.iterations == 66
    assert len(calls) == report.iterations
    assert all(args[0] is ref for args in calls)


FIB_SEED = (D2, [0.5, 0.5], {"A": 2.0, "B": -1.5})
WORKED_SEED = (D4, [6 / 11, 2 / 11, 1 / 11, 2 / 11], {"A": 2.0})


def test_solve_never_locates_a_point_by_value(monkeypatch):
    def no_lookup(cuts, x, snap):
        raise AssertionError("a point was located by its value")

    # the exact walk of the model orbit locates grid points: build it first
    ref = fibonacci_ref(13)
    f = smooth_seed(*FIB_SEED)
    monkeypatch.setattr(exact_iet, "_row_index", no_lookup)
    with pytest.raises(AssertionError, match="located by its value"):
        f.letter_at(0.5)
    report = solve(GietFamily(f), ref)
    assert report.realized and report.iterations == 66


@pytest.mark.parametrize("k", [1, 2, 40])
def test_solve_stops_at_a_boundary_when_the_order_breaks(monkeypatch, k):
    monkeypatch.setattr(thurston, "step", breaking_step(k))
    report = solve(GietFamily(smooth_seed(*FIB_SEED)), fibonacci_ref(13))
    assert report.status == "boundary" and report.faces == ()
    assert report.iterations == k - 1 == len(report.deltas)
    assert report.map is not None
    assert report.map.rauzy_path(13).path.kinds != fibonacci_ref(13).path.kinds


def test_every_pulled_point_lies_in_its_class_letter(monkeypatch):
    """The letter a step inverts a point with, its class's, is the letter of
    the bottom interval that holds the point, as ``Giet.eval_inverse`` finds
    it by value with its snap rule."""
    checked = []
    original = thurston.step

    def checking(ref, config, f):
        for a, (lo, hi) in zip(ref.datum.bottom, ref.runs):
            for y in config[lo:hi]:
                assert f.datum.bottom[exact_iet._row_index(f._bottom_cuts, y, f.snap)] == a
            checked.append(hi - lo)
        return original(ref, config, f)

    monkeypatch.setattr(thurston, "step", checking)
    cases = [(fibonacci_ref(depth), FIB_SEED) for depth in range(10, 16)]
    cases.append((build_reference(worked_loop()), WORKED_SEED))
    for ref, seed in cases:
        before = len(checked)
        assert solve(GietFamily(smooth_seed(*seed)), ref).realized
        assert len(checked) > before
    assert sum(checked) > 100_000


@pytest.mark.parametrize("exact", [True, False])
def test_step_on_a_nan_point_raises_order_violation(exact):
    ref = model_ref()
    family = ExactIETFamily(D4) if exact else GietFamily(smooth_seed(*WORKED_SEED))
    good = reference_configuration(ref, exact)
    f = family.at(tau_of(ref, good))
    for lo, hi in ref.runs:
        for x in range(lo, hi):
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
