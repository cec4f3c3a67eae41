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
the step realize the path.  The solver iterates the step from the reference
and makes every decision: it reads ``tau``, stops at a boundary face, and
declares success only when induction on the selected map reproduces the
prescribed arrows, never on residual smallness alone.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

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
    NoCyclicDatum,
    OrderViolation,
    SolverFailed,
    TargetNotCyclic,
)
from .exact_iet import ExactIET
from .giet import Giet, dynamical_partition, partitions_equivalent
from . import full_family

EPS_DEG = 1e-9
EPS_FIX = 1e-12


class LabelClass(NamedTuple):
    """One of the N point classes: its orbit position, displayed as
    ``(letter, index)``, the fewest forward steps from a critical point."""

    letter: str
    index: int
    orbit_pos: int

    @property
    def name(self) -> str:
        return f"{self.letter}{self.index}"


@dataclass(frozen=True)
class RefConfig:
    """The reference configuration of a path with cyclic target."""

    path: RauzyPath
    N: int
    h: dict
    base_iet: ExactIET
    grid: ExactIET  # the model on its integer grid
    crit_pos: dict  # orbit position of each letter's critical point

    @property
    def datum(self) -> CombinatorialDatum:
        return self.path.source

    @cached_property
    def runs(self) -> tuple[tuple, tuple]:
        """The grid slices of the bottom intervals but their first points, in
        bottom-row order: the points a step pulls back, left to right.  Then,
        in top-row order, the slices of their preimages that fill the top
        intervals after their first points."""
        u_b = self.grid.bottom_breaks
        lam = self.grid.lengths_by_letter()
        bottom = self.datum.bottom
        read = tuple((u_b[a] + 1, u_b[a] + lam[a]) for a in bottom)
        # bottom letter i's run starts after the i first points left out
        write = {a: (u_b[a] - i, u_b[a] - i + lam[a] - 1) for i, a in enumerate(bottom)}
        return read, tuple(write[a] for a in self.datum.top)

    @cached_property
    def _starts(self) -> tuple[list, list]:
        """The critical positions in increasing order, and their letters."""
        letters = sorted(self.crit_pos, key=self.crit_pos.get)
        return [self.crit_pos[a] for a in letters], letters

    def canonical_label(self, letter: str, index: int) -> LabelClass:
        """The class ``(letter, index)``, named after the nearest critical
        position at or before it: each critical letter names the run up to
        the next one.  Position 0 is the first top letter's, so one exists."""
        c = (self.crit_pos[letter] + index) % self.N
        starts, letters = self._starts
        i = bisect_right(starts, c) - 1
        return LabelClass(letters[i], c - starts[i], c)

    def class_of_atom(self, letter: str, raw_index: int) -> LabelClass:
        """Class of the order-r partition atom with raw label ``(letter, raw_index)``."""
        return self.canonical_label(letter, raw_index - self.h[letter])


MAX_REFERENCE_POINTS = 200_000


def build_reference(path: RauzyPath) -> RefConfig:
    """Construct the reference data of a path ending at a cyclic datum.

    The model IET is cross-checked: it must reproduce the path's arrows under
    exact induction, which also rejects lengths outside the path's cone, and
    the orbit of 0 on its integer grid, walked once, must first return to 0
    after N steps, so that it is the whole grid.
    The total return time N grows exponentially with the path length, so the
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
    # the model on its integer grid: the point k/N of ``base`` is k here
    grid = ExactIET(path.source, tuple(cols[a] for a in path.source.alphabet))
    result = grid.rauzy_path(len(path))
    if result.tie or result.path.kinds != path.kinds:
        raise InductionMismatch(
            f"model induction follows {result.path.kinds!r}, path is {path.kinds!r}"
        )

    # one walk of the orbit of 0, keeping the orbit positions of the critical
    # points of the model and of its induced map
    u_t, u_t_induced = grid.top_breaks, result.map.top_breaks
    pos = dict.fromkeys([*u_t.values(), *u_t_induced.values()])
    x = 0
    for c in range(N):
        if x in pos:
            pos[x] = c
        x = grid.eval(x)
        if x == 0:
            break
    if x != 0:
        raise InductionMismatch(f"the model orbit of 0 does not close up after N={N} steps")
    if c < N - 1:
        raise InductionMismatch(f"the model orbit of 0 is not the whole grid of N={N} points")

    crit_pos = {a: pos[u_t[a]] for a in path.source.alphabet}
    h = {}
    for a in path.source.alphabet:
        # the fewest steps from the induced critical point of a to u_t[a]
        h[a] = (crit_pos[a] - pos[u_t_induced[a]]) % N
        if h[a] >= q[a]:
            raise InductionMismatch(
                f"critical point of {a} is {h[a]} steps from its lift, not under q={q[a]}"
            )
    return RefConfig(path=path, N=N, h=h, base_iet=base, grid=grid, crit_pos=crit_pos)


@dataclass(frozen=True)
class Configuration:
    """N labeled points sharing the reference's geometric order.

    ``points`` holds them left to right: ``points[x]`` is the point at grid
    point ``x`` of the model.  Entries are floats or exact rationals, and the
    class containing ``(alpha_0, 0)``, ``points[0]``, is pinned at 0.
    """

    points: tuple

    def is_valid(self) -> bool:
        p = self.points
        # every comparison with NaN is false, so a NaN point fails ``<``
        return p[0] == 0 and all(map(operator.lt, p, p[1:])) and p[-1] < 1

    def delta(self, other: "Configuration"):
        return max(map(abs, map(operator.sub, self.points, other.points)))


def reference_configuration(ref: RefConfig, exact: bool = True) -> Configuration:
    """The reference: the class at grid point ``x`` sits at ``x / N``, as a
    ``Fraction`` or, correctly rounded, as a float."""
    N = ref.N
    return Configuration(tuple(Fraction(x, N) if exact else x / N for x in range(N)))


def tau_of(ref: RefConfig, config: Configuration) -> dict:
    """Parameter vector read off a configuration.

    The points of the classes ``[alpha, 1]``, at the model's critical values
    ``u^b``, are the prescribed critical values; their consecutive differences
    along the bottom row (the marking order), with the last gap closing at 1,
    recover the unique simplex vector.  The total is exactly 1 by telescoping.
    """
    datum = ref.datum
    v1 = {a: config.points[x] for a, x in ref.grid.bottom_breaks.items()}
    row = datum.bottom
    tau = {}
    for a, b in zip(row, row[1:]):
        tau[a] = v1[b] - v1[a]
    tau[row[-1]] = 1 - v1[row[-1]]
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


def step(ref: RefConfig, config: Configuration, f) -> Configuration:
    """One pullback under ``f``, the family map selected by ``config``: send
    every point to the preimage of its index successor.

    On the model's grid the successor of the point ``x`` in the top interval
    of ``a`` is ``x + u^b_a - u^t_a``: each bottom interval but its first
    point pulls back, in one batch through ``f``'s branch of ``a``, onto its
    top interval but its first point, a critical class, which maps to
    ``f``'s critical point of ``a``.  The letter comes from the class, so no
    point is located by its value.  A result out of the reference order
    raises ``OrderViolation``.
    """
    read, write = ref.runs
    preimages = []
    for a, (lo, hi) in zip(ref.datum.bottom, read):
        preimages += f.branches[a].inverse_many(config.points[lo:hi])
    new_points = []
    for (_, crit, _), (lo, hi) in zip(f.top_intervals(), write):
        new_points.append(crit)
        new_points += preimages[lo:hi]
    out = Configuration(tuple(new_points))
    if not out.is_valid():
        raise OrderViolation("the pullback broke the reference order")
    return out


@dataclass
class SolveReport:
    """Outcome of the fixed-point iteration."""

    status: str  # realized | fixed_point_tol | boundary | max_iter
    tau: dict
    config: Configuration
    iterations: int
    deltas: list
    map: object = None  # the family map at ``tau``; none where no map was selected
    faces: tuple = ()

    @property
    def realized(self) -> bool:
        return self.status == "realized"


def solve(
    family,
    ref: RefConfig,
    max_iter: int = 500,
    start: Configuration | None = None,
) -> SolveReport:
    """Iterate the pullback from the reference configuration.

    Success means the selected map's induction reproduces the prescribed
    arrows (checked at every loop head, including before the first step).  A
    step below ``EPS_FIX`` alone reports ``fixed_point_tol``; marking gaps at
    or below ``EPS_DEG`` report ``boundary`` with the faces involved, and a
    pullback that breaks the order reports ``boundary`` with none.

    Each iterate is the average of the previous one and its pullback: the
    same fixed points, without the near-period-2 oscillation of the bare
    pullback, so it converges where the bare loop bounces.
    """
    config = start if start is not None else reference_configuration(ref, family.exact)
    deltas: list[tuple[int, float]] = []
    settled = False
    for it in itertools.count():
        try:
            tau = tau_of(ref, config)
        except OrderViolation:
            return SolveReport("boundary", {}, config, it, deltas)
        faces = tuple(ref.canonical_label(a, 1).name for a, v in tau.items() if v <= EPS_DEG)
        if faces:
            return SolveReport("boundary", tau, config, it, deltas, faces=faces)
        f = family.at(tau)
        if f.rauzy_path(len(ref.path), ref.path.kinds).path.kinds == ref.path.kinds:
            return SolveReport("realized", tau, config, it, deltas, f)
        if settled:
            return SolveReport("fixed_point_tol", tau, config, it, deltas, f)
        if it >= max_iter:
            return SolveReport("max_iter", tau, config, it, deltas, f)
        try:
            pulled = step(ref, config, f)
        except OrderViolation:
            return SolveReport("boundary", tau, config, it, deltas, f)
        # (old + new) / 2, class by class, without a Python-level loop: exact
        # for fractions; for floats in [0, 1) that are 0 or above 1e-307 it has
        # the bits of 0.5 * old + 0.5 * new, as halving is exact there and both
        # round the same sum once
        sums = map(operator.add, config.points, pulled.points)
        new_config = Configuration(tuple(map(operator.truediv, sums, itertools.repeat(2))))
        delta = config.delta(new_config)
        deltas.append((it + 1, float(delta)))
        settled = delta < EPS_FIX
        config = new_config


@dataclass
class RealizeResult:
    tau: dict
    certificate: bool
    report: SolveReport
    ref: RefConfig
    full_path: RauzyPath
    appended: int


def realize(family, target_path: RauzyPath, **solve_options) -> RealizeResult:
    """Find a family parameter whose map generates ``target_path``.

    If the path does not end at a cyclic datum, a shortest completion inside
    its Rauzy class is appended first, and realizing it realizes the prefix.
    The certificate is an independent check: the realized map's dynamical
    partition must be combinatorially equivalent to the model's.
    """
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
    certificate = partitions_equivalent(
        dynamical_partition(report.map, len(full)),
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
