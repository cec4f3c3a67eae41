import random
from fractions import Fraction

import pytest

import gietlab.thurston as thurston
from conftest import random_unit_giet
from gietlab.branches import SmoothParam
from gietlab.combinatorics import (
    RauzyPath,
    all_admissible_data,
    find_cyclic,
    find_path,
    parse_datum,
    path_matrix,
    rauzy_class,
    sigma_and_cyclicity,
)
from gietlab.errors import NearBoundary, NoCyclicDatum, TargetNotCyclic
from gietlab.exact_iet import ExactIET
from gietlab.giet import dynamical_partition, giet_from_branches, partitions_equivalent
from gietlab.thurston import (
    ExactIETFamily,
    GietFamily,
    build_reference,
    family_from_iet,
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


def random_cyclic_path(rng, max_d=4, max_r=8):
    while True:
        d = rng.choice(range(2, max_d + 1))
        datum = rng.choice(all_admissible_data("ABCD"[:d]))
        kinds = "".join(rng.choice("tb") for _ in range(rng.randint(0, max_r)))
        path = RauzyPath.from_kinds(datum, kinds)
        if sigma_and_cyclicity(path.target)[1]:
            return path


def test_build_reference_worked_example():
    ref = model_ref()
    assert ref.N == 11
    assert ref.q == {"A": 3, "B": 2, "C": 2, "D": 4}
    assert ref.h == {"A": 0, "B": 1, "C": 1, "D": 3}
    assert ref.base_iet.lengths_by_letter() == {
        "A": Fraction(6, 11), "B": Fraction(2, 11), "C": Fraction(1, 11), "D": Fraction(2, 11)
    }
    assert [l.name for l in ref.labels_in_order] == FIG_LABELS
    assert sorted(ref.ref_points) == [Fraction(k, 11) for k in range(11)]
    assert ref.max_label.name == "A2"


def test_build_reference_requires_cyclic_target():
    with pytest.raises(TargetNotCyclic):
        build_reference(RauzyPath(D4))  # sigma of D4 is a double transposition


def test_build_reference_empty_path():
    ref = build_reference(RauzyPath(D2))
    assert ref.N == 2
    assert sorted(ref.ref_points) == [Fraction(0), Fraction(1, 2)]
    assert [l.name for l in ref.labels_in_order] == ["A0", "B0"]


def test_reference_orbit_is_single_cycle():
    ref = model_ref()
    # the index shift steps through all N classes before returning
    label = ref.classes[0]
    seen = set()
    for _ in range(ref.N):
        seen.add(label.orbit_pos)
        label = ref.shift(label)
    assert len(seen) == ref.N and label is ref.classes[0]


def test_canonical_label_identifications():
    ref = model_ref()
    assert ref.canonical_label("A", 0) is ref.classes[0]
    # one step back from (A, 0) is the class displayed with the letter D
    assert ref.canonical_label("A", -1).name == "D0"
    # exhaustive normalization: every (letter, small index) lands on one of
    # exactly N classes
    names = {ref.canonical_label(a, i).orbit_pos for a in "ABCD" for i in range(-15, 16)}
    assert len(names) == ref.N


def test_window_labels_cover_each_class_once():
    ref = model_ref()
    seen = set()
    for c in range(ref.N):
        a, i = ref.window_label(ref.classes[c])
        assert -ref.h[a] <= i <= ref.q[a] - ref.h[a] - 1
        seen.add((a, i))
    assert len(seen) == ref.N


def test_class_of_atom_matches_figure_order():
    ref = model_ref()
    partition = dynamical_partition(ref.base_iet, 5)
    labels = [ref.class_of_atom(a.letter, a.index).name for a in partition.atoms]
    assert labels == FIG_LABELS


def test_successor_follows_geometric_order():
    ref = model_ref()
    ordered = ref.labels_in_order
    for left, right in zip(ordered, ordered[1:]):
        assert ref.successor(left) is right
    assert ref.successor(ref.max_label) is None


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
    out = step(ExactIETFamily(D4), ref, config)
    assert out.points == config.points


def test_step_fixed_point_float_worked_example():
    ref = model_ref()
    config = reference_configuration(ref, exact=False)
    out = step(family_from_iet(ref.base_iet), ref, config)
    assert max(abs(a - b) for a, b in zip(out.points, config.points)) <= 1e-12


def test_step_fixed_point_random_cyclic_paths():
    rng = random.Random(20)
    for _ in range(10):
        path = random_cyclic_path(rng)
        ref = build_reference(path)
        exact = step(ExactIETFamily(path.source), ref, reference_configuration(ref, True))
        assert exact.points == ref.ref_points
        approx = step(
            family_from_iet(ref.base_iet), ref, reference_configuration(ref, False)
        )
        assert max(
            abs(a - float(b)) for a, b in zip(approx.points, ref.ref_points)
        ) <= 1e-12


def test_step_preserves_order_for_nonlinear_families():
    rng = random.Random(21)
    ref = model_ref()
    for _ in range(5):
        seed = random_unit_giet(rng, datum=D4)
        config = reference_configuration(ref, exact=False)
        out = step(GietFamily(seed), ref, config)
        assert out.is_valid()


def test_step_first_move_bounded_by_inverse_distortion():
    ref = model_ref()
    lam = [float(x) for x in ref.base_iet.lengths]
    seed = giet_from_branches(
        D4, lam, lam, lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else 0.0)
    )
    family = GietFamily(seed)
    config = reference_configuration(ref, exact=False)
    out = step(family, ref, config)
    moved = max(abs(a - b) for a, b in zip(out.points, config.points))
    f_tau = family.at(tau_of(ref, config))
    T = ref.base_iet
    worst = 0.0
    for i in range(1, 512):
        y = i / 512
        worst = max(worst, abs(f_tau.eval_inverse(y) - float(T.eval_inverse(Fraction(i, 512)))))
    assert moved <= worst + 1e-12


def test_step_near_boundary():
    ref = model_ref()
    config = reference_configuration(ref, exact=False)
    with pytest.raises(NearBoundary) as exc:
        step(family_from_iet(ref.base_iet), ref, config, eps_deg=0.5)
    assert exc.value.faces


def test_solve_iet_family_realizes_at_reference():
    ref = model_ref()
    report = solve(ExactIETFamily(D4), ref)
    assert report.status == "realized"
    assert report.iterations == 0
    assert report.tau == ref.base_iet.lengths_by_letter()


def test_solve_boundary_with_absurd_threshold():
    ref = model_ref()
    report = solve(ExactIETFamily(D4), ref, eps_deg=0.5)
    assert report.status == "boundary"
    assert report.iterations == 0
    assert report.faces


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
    for a in "ABCD":
        for j in range(ref.q[a]):
            via_atom = ref.class_of_atom(a, j)
            via_window = ref.canonical_label(a, j - ref.h[a])
            assert via_atom is via_window
            assert ref.window_label(via_atom) == (a, j - ref.h[a])


def test_solve_fixed_point_tol_status():
    # a loose step tolerance ends the loop before the path check succeeds;
    # the result is reported, not claimed as success
    T = ExactIET.from_lengths(D2, [Fraction(377, 987), Fraction(610, 987)])
    ref = build_reference(T.rauzy_path(12).path)
    seed = giet_from_branches(
        D2, [0.5, 0.5], [0.5, 0.5],
        lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else -1.5),
    )
    report = solve(GietFamily(seed), ref, eps_fix=1.0)
    assert report.status == "fixed_point_tol"
    assert not report.realized


def test_fixed_point_and_realization_at_five_letters():
    rng = random.Random(41)
    for _ in range(3):
        path = random_cyclic_path(rng, max_d=4, max_r=8)
        # rebuild over five letters when possible
        ref = build_reference(path)
        assert step(
            ExactIETFamily(path.source), ref, reference_configuration(ref, True)
        ).points == ref.ref_points
    data5 = all_admissible_data("ABCDE")
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
    bumped = list(base.points)
    for c in range(1, ref.N):
        bumped[c] += 1e-3 * ((c % 3) - 1)
    from gietlab.thurston import Configuration

    start = Configuration(ref, tuple(bumped))
    assert start.is_valid()
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
    pts = list(reference_configuration(ref, exact=False).points)
    # move the point of [C,1] onto the point of [B,1] (consecutive in the
    # bottom row order D, C, B, A)
    c_pos = (ref.crit_pos["C"] + 1) % ref.N
    b_pos = (ref.crit_pos["B"] + 1) % ref.N
    pts[c_pos] = pts[b_pos]
    from gietlab.thurston import Configuration

    squeezed = Configuration(ref, tuple(pts))
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
    u_t, _ = base.breakpoints()
    u_t_induced, _ = induced.breakpoints()
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
    return {
        "ref_points": tuple(orbit),
        "geometric": tuple(sorted(range(N), key=lambda c: orbit[c])),
        "crit_pos": crit_pos,
        "classes": classes,
        "window": window,
        "h": h,
        "base_iet": base,
        "induced_iet": induced,
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
        for name, value in _reference_in_fractions(path).items():
            assert getattr(ref, name) == value, name
        lengths = ref.base_iet.lengths + ref.induced_iet.lengths
        assert all(type(x) is Fraction for x in ref.ref_points + lengths)


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


def old_pull_order(ref):
    """The classes ``step`` pulls back, as ``step`` used to list them on every
    call: those whose index predecessor is not yet placed."""
    N = ref.N
    new_points = [None] * N
    for a in ref.datum.alphabet:
        new_points[ref.crit_pos[a]] = 0.0
    return tuple(c for c in ref.geometric if new_points[(c - 1) % N] is None)


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
        assert ref.pull_order == old_pull_order(ref)
        assert len(ref.pull_order) == ref.N - ref.datum.d


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
        assert [(k.letter, k.index) for k in ref.classes] == old_class_names(ref)
        assert [k.orbit_pos for k in ref.classes] == list(range(ref.N))


def test_is_valid_rejects_each_broken_order():
    ref = model_ref()
    good = reference_configuration(ref, exact=False)
    assert good.is_valid()

    def moved(c, x):
        points = list(good.points)
        points[c] = x
        return thurston.Configuration(ref, tuple(points))

    left, right = ref.geometric[1], ref.geometric[2]
    assert not moved(right, good.points[left]).is_valid()  # a repeated point
    assert not moved(ref.geometric[-1], 1.0).is_valid()  # a point at 1
    assert not moved(0, 1e-3).is_valid()  # the pinned class is not at 0


def test_is_valid_rejects_a_nan_point():
    ref = model_ref()
    good = reference_configuration(ref, exact=False).points
    for rank in (0, 1, 2, -1):  # the pinned class, interior points, the rightmost one
        points = list(good)
        points[ref.geometric[rank]] = float("nan")
        assert not thurston.Configuration(ref, tuple(points)).is_valid()


def old_is_valid(ref, points):
    ordered = [points[c] for c in ref.geometric]
    if points[0] != 0 or any(b <= a for a, b in zip(ordered, ordered[1:])):
        return False
    return 0 <= ordered[0] and ordered[-1] < 1


def old_step(family, ref, config):
    """``step`` as it was before the pull order was fixed per reference:
    every point pulled back on its own through ``Giet.eval_inverse``."""
    f = family.at(tau_of(ref, config))
    N = ref.N
    new_points = [None] * N
    for a, lo, _ in f.top_intervals():
        new_points[ref.crit_pos[a]] = lo
    order = [c for c in ref.geometric if new_points[(c - 1) % N] is None]
    for c in order:
        new_points[(c - 1) % N] = f.eval_inverse(config.points[c])
    if old_is_valid(ref, new_points):
        return tuple(new_points)
    s = 0.5
    for _ in range(40):
        damped = tuple((1 - s) * old + s * new for old, new in zip(config.points, new_points))
        if old_is_valid(ref, damped):
            return damped
        s *= 0.5
    raise AssertionError("no damping restores the order")


def test_step_returns_the_points_of_the_per_point_pullback():
    ref = fibonacci_ref(13)
    seed = giet_from_branches(
        D2, [0.5, 0.5], [0.5, 0.5],
        lambda a, d, r: SmoothParam(d, r, k=2.0 if a == "A" else -1.5),
    )
    family = GietFamily(seed)
    config = reference_configuration(ref, exact=False)
    for _ in range(8):
        pulled = step(family, ref, config)
        assert pulled.points == old_step(family, ref, config)
        config = thurston.Configuration(
            ref, tuple(0.5 * a + 0.5 * b for a, b in zip(config.points, pulled.points))
        )
