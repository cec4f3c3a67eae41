"""Reference configurations, the pullback map on configurations, and the solver.

Fix a path whose target datum is cyclic.  The reference model is the rational
IET built from the path's matrix column sums; its critical points generate a
single orbit of N points (N = total return time), the reference
configuration.  Orbit positions label the N point classes; each class also
carries the display name ``(letter, i)`` with the fewest forward steps from a
critical point, which is the labelling used for partitions of the model map.

A configuration is any N points in the same geometric order.  Reading the
parameter ``tau`` off a configuration (consecutive gaps of the ``[alpha, 1]``
points along the bottom row) selects one map of a full family; pulling every
point back one index under that map is the pullback step.  Fixed points of
the step realize the path, and the solver iterates the step from the
reference, declaring success only when induction on the selected map
reproduces the prescribed arrows, never on residual smallness alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .combinatorics import (
    CombinatorialDatum,
    RauzyPath,
    find_cyclic,
    find_path,
    path_matrix,
    rauzy_class,
    sigma_and_cyclicity,
)
from .errors import (
    InductionMismatch,
    NearBoundary,
    NoCyclicDatum,
    OrderViolation,
    SolverFailed,
    TargetNotCyclic,
)
from .exact_iet import ExactIET, in_cone
from .giet import Giet, dynamical_partition, giet_from_iet, partitions_equivalent
from . import full_family

EPS_DEG = 1e-9
EPS_FIX = 1e-12


@dataclass(frozen=True)
class LabelClass:
    """One of the N point classes: display letter/index plus orbit position."""

    letter: str
    index: int
    orbit_pos: int

    @property
    def name(self) -> str:
        return f"{self.letter}{self.index}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class RefConfig:
    """The reference configuration of a path with cyclic target."""

    path: RauzyPath
    q: dict
    N: int
    h: dict
    base_iet: ExactIET
    induced_iet: ExactIET
    classes: tuple[LabelClass, ...]
    ref_points: tuple[Fraction, ...]
    geometric: tuple[int, ...]
    crit_pos: dict
    window: dict = field(repr=False)

    @property
    def datum(self) -> CombinatorialDatum:
        return self.path.source

    @property
    def labels_in_order(self):
        """Classes left to right at the reference."""
        return [self.classes[c] for c in self.geometric]

    @cached_property
    def pull_order(self) -> tuple[int, ...]:
        """The classes a pullback step pulls back, left to right: every class
        but those whose index predecessor is a critical class."""
        critical = set(self.crit_pos.values())
        return tuple(c for c in self.geometric if (c - 1) % self.N not in critical)

    @property
    def max_label(self) -> LabelClass:
        """The class whose reference point is rightmost."""
        return self.classes[self.geometric[-1]]

    def canonical_label(self, letter: str, index: int) -> LabelClass:
        """Normalized representative of ``(letter, index)`` under the identifications."""
        return self.classes[(self.crit_pos[letter] + index) % self.N]

    def shift(self, label: LabelClass) -> LabelClass:
        """The class ``[letter, index + 1]``."""
        return self.classes[(label.orbit_pos + 1) % self.N]

    def successor(self, label: LabelClass):
        """Geometric successor (next reference point to the right), None for the last."""
        rank = self.geometric.index(label.orbit_pos)
        if rank == self.N - 1:
            return None
        return self.classes[self.geometric[rank + 1]]

    def window_label(self, label: LabelClass) -> tuple[str, int]:
        """Representative ``(alpha, i)`` with ``-h_alpha <= i <= q_alpha - h_alpha - 1``.

        Shifting it by ``h_alpha`` gives the raw order-r partition label of the
        model map's atom at this class.
        """
        return self.window[label.orbit_pos]

    def class_of_atom(self, letter: str, raw_index: int) -> LabelClass:
        """Class of the order-r partition atom with raw label ``(letter, raw_index)``."""
        return self.classes[(self.crit_pos[letter] + raw_index - self.h[letter]) % self.N]


MAX_REFERENCE_POINTS = 200_000


def build_reference(path: RauzyPath) -> RefConfig:
    """Construct the reference data of a path ending at a cyclic datum.

    The model IET is cross-checked: it must reproduce the path's arrows under
    exact induction and its length vector must lie in the path's cone.  The
    total return time N grows exponentially with the path length, so the
    construction refuses outright when it would exceed ``MAX_REFERENCE_POINTS``.
    """
    if not sigma_and_cyclicity(path.target)[1]:
        raise TargetNotCyclic(f"{path.target} is not cyclic")
    matrix = path_matrix(path)
    q = matrix.row_sums()
    N = sum(q.values())
    if N > MAX_REFERENCE_POINTS:
        raise InductionMismatch(
            f"reference configuration needs N={N} points, beyond the cap {MAX_REFERENCE_POINTS}"
        )
    cols = matrix.col_sums()
    base = ExactIET.from_lengths(
        path.source, {a: Fraction(c, N) for a, c in cols.items()}, normalize=False
    )
    if not in_cone(cols, path):
        raise InductionMismatch("model lengths escape the path cone")
    # the model on its integer grid: the point k/N of ``base`` is k here
    grid = ExactIET(path.source, tuple(cols[a] for a in path.source.alphabet))
    result = grid.rauzy_path(len(path))
    if result.tie or result.path.kinds != path.kinds:
        raise InductionMismatch(
            f"model induction follows {result.path.kinds!r}, path is {path.kinds!r}"
        )
    induced = ExactIET(result.map.datum, tuple(Fraction(x, N) for x in result.map.lengths))

    u_t, _ = grid.breakpoints()
    u_t_induced, _ = result.map.breakpoints()
    h = {}
    for a in path.source.alphabet:
        x = u_t_induced[a]
        steps = 0
        while x != u_t[a]:
            x = grid.eval(x)
            steps += 1
            assert steps < q[a], f"critical point of {a} missed its lift"
        h[a] = steps

    orbit = []
    x = 0
    for _ in range(N):
        orbit.append(x)
        x = grid.eval(x)
    assert x == 0, "reference orbit does not close up"
    # N points of the grid {0, ..., N-1}: they are all of it exactly when no
    # two coincide; the orbit position at each grid point is the geometric order
    geometric = [None] * N
    for c, x in enumerate(orbit):
        geometric[x] = c
    assert None not in geometric, "orbit is not the 1/N grid"

    crit_pos = {a: geometric[u_t[a]] for a in path.source.alphabet}
    # a class is named after the nearest critical position at or before it,
    # cyclically: each critical letter names the run up to the next one
    # (critical positions are distinct, so no two letters tie)
    classes = [None] * N
    runs = sorted(crit_pos.items(), key=lambda t: t[1])
    for (a, p), (_, end) in zip(runs, runs[1:] + runs[:1]):
        for i in range((end - p - 1) % N + 1):
            c = (p + i) % N
            classes[c] = LabelClass(a, i, c)

    window = {}
    for a in path.source.alphabet:
        for j in range(q[a]):
            c = (crit_pos[a] + j - h[a]) % N
            assert c not in window, "window representatives collide"
            window[c] = (a, j - h[a])
    assert len(window) == N

    return RefConfig(
        path=path,
        q=q,
        N=N,
        h=h,
        base_iet=base,
        induced_iet=induced,
        classes=tuple(classes),
        ref_points=tuple(Fraction(x, N) for x in orbit),
        geometric=tuple(geometric),
        crit_pos=crit_pos,
        window=window,
    )


@dataclass(frozen=True)
class Configuration:
    """N labeled points sharing the reference's geometric order.

    ``points`` is indexed by orbit position; entries are floats or exact
    rationals, and the class containing ``(alpha_0, 0)`` is pinned at 0.
    """

    ref: RefConfig
    points: tuple

    def point(self, label: LabelClass):
        return self.points[label.orbit_pos]

    def in_geometric_order(self):
        return [self.points[c] for c in self.ref.geometric]

    def is_valid(self) -> bool:
        if self.points[0] != 0:
            return False
        ordered = self.in_geometric_order()
        # every comparison with NaN is false, so a NaN point fails ``<``
        if not all(map(operator.lt, ordered, ordered[1:])):
            return False
        return 0 <= ordered[0] and ordered[-1] < 1

    def delta(self, other: "Configuration"):
        return max(map(abs, map(operator.sub, self.points, other.points)))


def reference_configuration(ref: RefConfig, exact: bool = True) -> Configuration:
    pts = ref.ref_points if exact else tuple(float(x) for x in ref.ref_points)
    return Configuration(ref, pts)


def tau_of(ref: RefConfig, config: Configuration) -> dict:
    """Parameter vector read off a configuration.

    The points of the classes ``[alpha, 1]`` are the prescribed critical
    values; their consecutive differences along the bottom row (the marking
    order), with the last gap closing at 1, recover the unique simplex vector.
    The total is exactly 1 by telescoping.
    """
    datum = ref.datum
    v1 = {a: config.points[(ref.crit_pos[a] + 1) % ref.N] for a in datum.alphabet}
    row = datum.bottom
    one = Fraction(1) if isinstance(config.points[0], Fraction) else 1.0
    tau = {}
    for a, b in zip(row, row[1:]):
        tau[a] = v1[b] - v1[a]
    tau[row[-1]] = one - v1[row[-1]]
    # a zero entry is a legitimate boundary vector (coincident marked points);
    # only an inverted gap violates the configuration order
    if any(v < 0 for v in tau.values()):
        bad = [a for a, v in tau.items() if v < 0]
        raise OrderViolation(f"marking gaps inverted for letters {bad}")
    return tau


class ExactIETFamily:
    """The family of exact IETs over a datum: parameter = length vector."""

    exact = True

    def __init__(self, datum: CombinatorialDatum):
        self.datum = datum

    def at(self, tau: dict) -> ExactIET:
        return ExactIET.from_lengths(self.datum, tau, normalize=False)


class GietFamily:
    """The full family spanned by deforming a fixed unit-interval GIET."""

    exact = False

    def __init__(self, seed: Giet):
        self.seed = seed
        self.datum = seed.datum

    def at(self, tau: dict) -> Giet:
        return full_family.apply(self.seed, tau)


def family_from_iet(T: ExactIET) -> GietFamily:
    return GietFamily(giet_from_iet(T))


def _boundary_faces(ref: RefConfig, tau: dict, eps_deg: float) -> dict:
    """Letter -> face ``[alpha, 1]`` for each tau entry at or below ``eps_deg``."""
    return {
        a: str(ref.shift(ref.classes[ref.crit_pos[a]])) for a, v in tau.items() if v <= eps_deg
    }


def step(
    family,
    ref: RefConfig,
    config: Configuration,
    eps_deg: float = EPS_DEG,
    tau: dict | None = None,
    f=None,
) -> Configuration:
    """One pullback: select the family map marked by the configuration, send
    every point to the preimage of its index successor.

    ``tau`` and ``f``, when the caller already has them, are the
    configuration's parameter and the family map at it.  Critical-point
    classes map straight to the critical points of the selected map.  If
    rounding breaks the geometric order, the result is damped toward the
    input until the order is restored.
    """
    if tau is None:
        tau = tau_of(ref, config)
    faces = _boundary_faces(ref, tau, eps_deg)
    if faces:
        raise NearBoundary(f"tau entries {list(faces)} at or below {eps_deg}", faces=faces.values())
    if f is None:
        f = family.at(tau)
    # shifted[c] holds the new point of class c - 1, the preimage of point c,
    # so the classes of the pull order index it directly
    shifted = [None] * ref.N
    for a, lo, _ in f.top_intervals():
        shifted[(ref.crit_pos[a] + 1) % ref.N] = lo
    order = ref.pull_order
    preimages = f.eval_inverse_sorted([config.points[c] for c in order])
    for c, x in zip(order, preimages):
        shifted[c] = x
    new_points = shifted[1:] + shifted[:1]
    out = Configuration(ref, tuple(new_points))
    if out.is_valid():
        return out
    if family.exact:
        raise OrderViolation("exact pullback broke the reference order")
    s = 0.5
    for _ in range(40):
        damped = tuple(
            (1 - s) * old + s * new for old, new in zip(config.points, new_points)
        )
        candidate = Configuration(ref, damped)
        if candidate.is_valid():
            return candidate
        s *= 0.5
    raise OrderViolation("pullback step cannot preserve the order even damped")


@dataclass
class SolveReport:
    """Outcome of the fixed-point iteration."""

    status: str  # realized | fixed_point_tol | boundary | max_iter
    tau: dict
    config: Configuration
    iterations: int
    deltas: list
    faces: tuple = ()

    @property
    def realized(self) -> bool:
        return self.status == "realized"


def _path_realized(f, ref: RefConfig) -> bool:
    result = f.rauzy_path(len(ref.path), ref.path.kinds)
    return result.path.kinds == ref.path.kinds


def solve(
    family,
    ref: RefConfig,
    max_iter: int = 500,
    eps_fix: float = EPS_FIX,
    eps_deg: float = EPS_DEG,
    start: Configuration | None = None,
) -> SolveReport:
    """Iterate the pullback from the reference configuration.

    Success means the selected map's induction reproduces the prescribed
    arrows (checked on every iteration, including before the first step).  A
    small step alone reports ``fixed_point_tol``; collapsing marking gaps
    report ``boundary`` with the faces involved.

    Each iterate is the average of the previous one and its pullback.  That
    has the same fixed points as the bare pullback but suppresses the
    near-period-2 oscillation the bare iteration exhibits, so it converges
    where the undamped loop bounces.
    """
    config = start if start is not None else reference_configuration(ref, family.exact)
    half = Fraction(1, 2) if family.exact else 0.5
    deltas: list[tuple[int, float]] = []
    for it in range(max_iter + 1):
        try:
            tau = tau_of(ref, config)
        except OrderViolation:
            return SolveReport("boundary", {}, config, it, deltas)
        faces = _boundary_faces(ref, tau, eps_deg)
        if faces:
            return SolveReport("boundary", tau, config, it, deltas, tuple(faces.values()))
        f = family.at(tau)
        if _path_realized(f, ref):
            return SolveReport("realized", tau, config, it, deltas)
        if it == max_iter:
            break
        pulled = step(family, ref, config, eps_deg, tau=tau, f=f)
        new_config = Configuration(
            ref,
            tuple([half * old + half * new for old, new in zip(config.points, pulled.points)]),
        )
        delta = config.delta(new_config)
        deltas.append((it + 1, float(delta)))
        config = new_config
        if delta < eps_fix:
            tau = tau_of(ref, config)
            if _path_realized(family.at(tau), ref):
                return SolveReport("realized", tau, config, it + 1, deltas)
            return SolveReport("fixed_point_tol", tau, config, it + 1, deltas)
    tau = tau_of(ref, config)
    return SolveReport("max_iter", tau, config, max_iter, deltas)


@dataclass
class RealizeResult:
    tau: dict
    certificate: bool
    report: SolveReport
    ref: RefConfig
    full_path: RauzyPath
    appended: int


def realize(family, target_path: RauzyPath, cls=None, **solve_options) -> RealizeResult:
    """Find a family parameter whose map generates ``target_path``.

    If the path does not end at a cyclic datum, a shortest completion inside
    its Rauzy class is appended first; the realized path is then truncated
    back.  The certificate is an independent check: the realized map's
    dynamical partition must be combinatorially equivalent to the model's.
    """
    if cls is None:
        cls = rauzy_class(target_path.source)
    if sigma_and_cyclicity(target_path.target)[1]:
        full = target_path
    else:
        cyclic = find_cyclic(cls)
        if cyclic is None:
            raise NoCyclicDatum(f"no cyclic datum in the class of {target_path.source}")
        eta = find_path(cls, target_path.target, cyclic)
        full = target_path.concat(eta)
    ref = build_reference(full)
    report = solve(family, ref, **solve_options)
    if not report.realized:
        raise SolverFailed(f"solver stopped with status {report.status!r}", report=report)
    f = family.at(report.tau)
    truncated = f.rauzy_path(len(target_path))
    assert truncated.path.kinds == target_path.kinds, "truncation lost the prefix"
    certificate = partitions_equivalent(
        dynamical_partition(f, len(full)),
        dynamical_partition(ref.base_iet, len(full)),
    )
    return RealizeResult(
        tau=report.tau,
        certificate=certificate,
        report=report,
        ref=ref,
        full_path=full,
        appended=len(full) - len(target_path),
    )
