"""Reference configurations, the pullback map on configurations, and the solver.

Fix a path whose target datum is cyclic.  The reference model is the rational
IET built from the path's matrix column sums; its critical points generate a
single orbit of N points (N = total return time), the reference
configuration.  Orbit positions label the N point classes; each class also
carries the display name ``(letter, i)`` with the fewest forward steps from a
critical point, which is the labelling used for partitions of the model map.

A configuration is the tuple of N points in the reference's order: entry
``x`` is the point of the class at grid point ``x`` of the model, and entry
0 is pinned at 0.  Reading the
parameter ``tau`` off a configuration (consecutive gaps of the ``[alpha, 1]``
points along the bottom row) selects one map of a full family; pulling every
point back one index under that map is the pullback step.  Fixed points of
the step realize the path.  The solver seeks one from the reference by
Newton steps, with the averaged step as their fallback, and makes every
decision: it reads ``tau``, stops at a boundary face, and
declares success only when induction on the selected map reproduces the
prescribed arrows, never on residual smallness alone.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from collections import namedtuple
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
from .errors import GietlabError, InductionFailed, NoCyclicDatum, OrderViolation, SolverFailed
from .exact_iet import ExactIET, InductionResult
from .giet import Giet, dynamical_partition
from . import full_family
from .value import Frozen, Value

EPS_DEG = 1e-9
EPS_FIX = 1e-12
NEWTON_FLOOR = 1e-6  # the smallest line-search step of a Newton step
FALLBACK_STEPS = 10  # averaged steps after a failed Newton step


class LabelClass(namedtuple("LabelClass", "letter index orbit_pos")):
    """One of the N point classes: its orbit position, displayed as
    ``(letter, index)``, the fewest forward steps from a critical point."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return f"{self.letter}{self.index}"


class RefConfig(Frozen):
    """The reference configuration of a path with cyclic target: the model
    IET on its integer grid and the orbit of 0 that ``build_reference``
    walks.  The tables read off that orbit are cached: ``pulls`` for the
    pullback step and the Newton step, ``lifts`` and ``cells`` for the
    certificate, ``names`` for display and the solver's boundary faces.
    The model on ``[0, 1)``, ``base_iet``, is read off the grid when asked
    for."""

    _fields = ("path", "N", "h", "grid", "crit_pos", "orbit")

    def __init__(self, path: RauzyPath, N: int, h: dict, grid: ExactIET, crit_pos: dict,
                 orbit: tuple):
        # ``grid`` is the model on its integer grid, ``crit_pos`` the orbit
        # position of each letter's critical point, and ``orbit[c]`` is
        # ``T^c(0)`` on the grid
        self.__dict__.update(path=path, N=N, h=h, grid=grid, crit_pos=crit_pos, orbit=orbit)

    @property
    def datum(self) -> CombinatorialDatum:
        return self.path.source

    @cached_property
    def base_iet(self) -> ExactIET:
        """The model IET on ``[0, 1)``: the grid's lengths over N, as ``Fraction``s."""
        return ExactIET(self.datum, tuple(Fraction(c, self.N) for c in self.grid.lengths))

    @cached_property
    def pulls(self) -> tuple:
        """The pullback table, in top-row order: ``(a, run, at)`` for each
        letter ``a``, where ``run`` is the grid slice of a's bottom interval
        but its first point, the points a step pulls back through a's
        branch, and ``at`` the slice of a's top interval but its first
        point, where their preimages land."""
        u_t, u_b, lam = self.grid.top_breaks, self.grid.bottom_breaks, self.grid.lengths_by_letter()
        return tuple((a, slice(u_b[a] + 1, u_b[a] + lam[a]), slice(u_t[a] + 1, u_t[a] + lam[a]))
                     for a in self.datum.top)

    @cached_property
    def _starts(self) -> tuple[list, list]:
        """The critical positions in increasing order, and their letters."""
        letters = sorted(self.crit_pos, key=self.crit_pos.get)
        return [self.crit_pos[a] for a in letters], letters

    @cached_property
    def lifts(self) -> dict:
        """The orbit position of each letter's induced critical point,
        ``crit_pos[a] - h[a]`` (mod N): the order-r atom ``(a, i)`` is the
        class at orbit position ``lifts[a] + i``."""
        return {a: (c - self.h[a]) % self.N for a, c in self.crit_pos.items()}

    @cached_property
    def cells(self) -> dict:
        """The model's grid cell of every floor of each letter's order-r
        tower: floor ``i`` of ``a`` is the cell ``orbit[(lifts[a] + i) % N]``.
        A tower's floors are consecutive orbit positions, from its lift up to
        the next lift round the orbit, so each letter's cells are a slice of
        ``orbit``, and together they hold every cell once."""
        orbit, lifts, N = self.orbit, self.lifts, self.N
        letters = sorted(lifts, key=lifts.get)
        ends = [lifts[b] for b in letters[1:]] + [lifts[letters[0]] + N]
        return {a: orbit[lifts[a]:end] if end <= N else orbit[lifts[a]:] + orbit[:end - N]
                for a, end in zip(letters, ends)}

    @cached_property
    def names(self) -> list:
        """The name of the class at every orbit position, as ``class_of_atom``
        names it: each critical letter names its run of positions up to the
        next critical position, in one pass."""
        starts, letters = self._starts
        return [f"{a}{i}" for a, lo, hi in zip(letters, starts, [*starts[1:], self.N])
                for i in range(hi - lo)]

    def atom_names(self, atoms) -> list:
        """The class name of each order-r partition atom ``(lo, hi, a, i)``,
        as ``class_of_atom(a, i).name``, read off ``names``."""
        names, lifts, N = self.names, self.lifts, self.N
        return [names[(lifts[a] + i) % N] for _, _, a, i in atoms]

    def class_of_atom(self, letter: str, raw_index: int) -> LabelClass:
        """The class of the order-r partition atom ``(letter, raw_index)``,
        at orbit position ``lifts[letter] + raw_index``, named after the
        nearest critical position at or before it.  Position 0 is the first
        top letter's, so one exists."""
        c = (self.lifts[letter] + raw_index) % self.N
        starts, letters = self._starts
        i = bisect_right(starts, c) - 1
        return LabelClass(letters[i], c - starts[i], c)


MAX_REFERENCE_POINTS = 200_000


def build_reference(path: RauzyPath) -> RefConfig:
    """Construct the reference data of a path ending at a cyclic datum.

    The model IET is built on its integer grid only, with the path matrix's
    column sums as lengths, once N, the sum of its row sums, is within
    ``MAX_REFERENCE_POINTS``: past it, no point is built.  It must reproduce the path's arrows under exact
    induction, which also rejects lengths outside the path's cone, and the
    orbit of 0 on the grid must first return to 0 after N steps, so that it
    is the whole grid.  That orbit is walked once, through the grid's
    successor table (``ExactIET.successors``, one ``eval`` per letter), and
    kept as ``orbit``; the critical positions and the lifts ``h`` are read
    off it.
    """
    if not sigma_and_cyclicity(path.target)[1]:
        raise GietlabError(f"{path.target} is not cyclic")
    matrix = path_matrix(path)
    q = matrix.row_sums()
    N = sum(q.values())
    if N > MAX_REFERENCE_POINTS:
        raise GietlabError(
            f"reference configuration needs N={N} points, beyond the cap {MAX_REFERENCE_POINTS}"
        )
    cols = matrix.col_sums()
    # the model on its integer grid: the point k/N of ``RefConfig.base_iet`` is k here
    grid = ExactIET(path.source, tuple(cols[a] for a in path.source.alphabet))
    result = grid.rauzy_path(len(path))
    if result.tie or result.path.kinds != path.kinds:
        raise GietlabError(
            f"model induction follows {result.path.kinds!r}, path is {path.kinds!r}"
        )

    # one walk of the orbit of 0 through the grid's successor table
    succ, orbit, x = grid.successors(), [], 0
    for _ in range(N):
        orbit.append(x)
        x = succ[x]
        if x == 0:
            break
    if x != 0:
        raise GietlabError(f"the model orbit of 0 does not close up after N={N} steps")
    if len(orbit) < N:
        raise GietlabError(f"the model orbit of 0 is not the whole grid of N={N} points")

    # the orbit positions of the critical points of the model and of its
    # induced map
    u_t, u_t_induced = grid.top_breaks, result.map.top_breaks
    pos = {p: orbit.index(p) for p in {*u_t.values(), *u_t_induced.values()}}
    crit_pos = {a: pos[u_t[a]] for a in path.source.alphabet}
    h = {}
    for a in path.source.alphabet:
        # the fewest steps from the induced critical point of a to u_t[a]
        h[a] = (crit_pos[a] - pos[u_t_induced[a]]) % N
        if h[a] >= q[a]:
            raise GietlabError(
                f"critical point of {a} is {h[a]} steps from its lift, not under q={q[a]}"
            )
    return RefConfig(path=path, N=N, h=h, grid=grid, crit_pos=crit_pos, orbit=tuple(orbit))


def is_ordered(points) -> bool:
    """True when ``points`` are a configuration: the pinned class at 0, then
    strictly increasing, all below 1."""
    # every comparison with NaN is false, so a NaN point fails ``<``
    return points[0] == 0 and all(map(operator.lt, points, points[1:])) and points[-1] < 1


def reference_configuration(ref: RefConfig) -> tuple:
    """The reference: the class at grid point ``x`` sits at ``x / N``,
    correctly rounded to a float."""
    N = ref.N
    return tuple(x / N for x in range(N))


def tau_of(ref: RefConfig, config: tuple) -> dict:
    """Parameter vector read off a configuration.

    The points of the classes ``[alpha, 1]``, at the model's critical values
    ``u^b``, are the prescribed critical values; their consecutive differences
    along the bottom row (the marking order), with the last gap closing at 1,
    recover the unique simplex vector.  The total is exactly 1 by telescoping.
    """
    datum = ref.datum
    v1 = {a: config[x] for a, x in ref.grid.bottom_breaks.items()}
    row = datum.bottom
    tau = {a: v1[b] - v1[a] for a, b in zip(row, row[1:])}
    tau[row[-1]] = 1 - v1[row[-1]]
    # a zero entry is a legitimate boundary vector (coincident marked points);
    # only an inverted gap violates the configuration order
    if bad := [a for a, v in tau.items() if v < 0]:
        raise OrderViolation(f"marking gaps inverted for letters {bad}")
    return tau


class GietFamily:
    """The full family spanned by deforming a fixed unit-interval GIET."""

    def __init__(self, seed: Giet):
        self.seed = seed
        self.datum = seed.datum

    def at(self, tau: dict) -> Giet:
        return full_family.apply(self.seed, tau)


def step(ref: RefConfig, config: tuple, f) -> tuple:
    """One pullback under ``f``, the family map selected by ``config``: send
    every point to the preimage of its index successor.

    On the model's grid the successor of the point ``x`` in the top interval
    of ``a`` is ``x + u^b_a - u^t_a``: each bottom interval but its first
    point pulls back, in one batch through ``f``'s branch of ``a``, onto its
    top interval but its first point, a critical class, which maps to
    ``f``'s critical point of ``a``.  The letter comes from the class, so no
    point is located by its value; ``ref.pulls`` lists the runs in top-row
    order, the order of the result.  A result out of the reference order
    raises ``OrderViolation``.
    """
    out = []
    for a, run, _ in ref.pulls:
        out.append(f.top_breaks[a])
        out += f.branches[a].inverse_many(config[run])
    out = tuple(out)
    if not is_ordered(out):
        raise OrderViolation("the pullback broke the reference order")
    return out


def _sweep(ref: RefConfig, slopes: list, r: list) -> list:
    """Solve ``(I - PD) y = r``, that is ``y[x] = r[x] + slopes[x] * y[T(x)]``
    for the model's successor ``T``, with ``slopes`` 0 at the critical
    classes, in one backward walk of the model orbit from the critical class
    0: ``ref.orbit`` read from its end, so no point is located by its value."""
    y = list(r)
    after = y[0]
    for x in ref.orbit[:0:-1]:
        after = y[x] = r[x] + slopes[x] * after
    return y


def _solve_linear(rows: list, rhs: list) -> list:
    """Solve the small system ``rows c = rhs`` by Gaussian elimination with
    partial pivoting; a zero pivot raises ``ZeroDivisionError``."""
    n = len(rhs)
    m = [row + [v] for row, v in zip(rows, rhs)]
    for i in range(n):
        p = max(range(i, n), key=lambda k: abs(m[k][i]))
        m[i], m[p] = m[p], m[i]
        for k in range(i + 1, n):
            factor = m[k][i] / m[i][i]
            m[k] = [u - factor * v for u, v in zip(m[k], m[i])]
    c = [0.0] * n
    for i in reversed(range(n)):
        v = m[i][n]  # added left to right, as the built-in sum is compensated from 3.12 on
        for k in range(i + 1, n):
            v -= m[i][k] * c[k]
        c[i] = v / m[i][i]
    return c


def _newton_step(family, ref: RefConfig, config: tuple, pulled: tuple, f,
                 tau: dict) -> tuple | None:
    """The Newton step for ``x = F(x)`` from ``config``, whose parameter is
    ``tau`` and whose pullback under ``f``, the family map at ``tau``, is
    ``pulled``; None where it fails.

    The Jacobian of ``F`` is ``PD + G E^T``.  Entry ``x`` of ``F`` reads only
    the point ``T(x)``, through the slope ``D_x`` of ``f``'s inverse, so
    ``I - PD`` is solved by ``_sweep``; ``ref.pulls`` slices each letter's
    points and slopes.  Every entry also reads tau, which reads the d - 1
    points ``E^T x`` at the model's critical values ``u^b > 0``; the
    Woodbury identity solves the rank-(d - 1) term.  A
    family branch is the seed's rescaled from ``(x0, x1)`` onto ``(c0, c1)``,
    so ``y`` pulls back to ``p = x0 + W S((y - c0) / H)``: a column of ``G``
    is ``dx0 + dW (p - x0) / W - D (dc0 + dH (y - c0) / H)``, ``dx0`` at a's
    critical class, with the end derivatives exact
    (``full_family.end_derivatives``), so no family map is built.  The
    step is halved until the points are in order, which also makes their
    tau positive; a trial that moves a point by 1 or more leaves ``[0, 1)``,
    so none is built.  Below ``NEWTON_FLOOR``, on a singular system or a
    non-finite value, there is no step.
    """
    u_t, slopes = ref.grid.top_breaks, [0.0] * ref.N
    for a, run, at in ref.pulls:
        slopes[at] = f.branches[a].inverse_slopes(config[run])
    y0 = _sweep(ref, slopes, list(map(operator.sub, pulled, config)))
    marks = [ref.grid.bottom_breaks[b] for b in ref.datum.bottom[1:]]
    x0s, c0s, z = f.top_breaks, f.bottom_breaks, []
    for ends in full_family.end_derivatives(family.seed, tau):
        col = [0.0] * ref.N
        for a, run, at in ref.pulls:
            (dx0, dw, dc0, dh), x0, c0 = ends[a], x0s[a], c0s[a]
            col[u_t[a]] = dx0
            col[at] = [dx0 + dw * (p - x0) - s * (dc0 + dh * (y - c0))
                       for p, s, y in zip(pulled[at], slopes[at], config[run])]
        z.append(_sweep(ref, slopes, col))
    try:
        # (I - E^T Z) c = E^T y0, and the step is y0 + Z c
        c = _solve_linear([[float(i == k) - zk[m] for k, zk in enumerate(z)]
                           for i, m in enumerate(marks)], [y0[m] for m in marks])
    except ZeroDivisionError:
        return None
    delta = y0
    for ck, zk in zip(c, z):
        delta = [u + ck * v for u, v in zip(delta, zk)]
    if not all(map(math.isfinite, delta)):
        return None
    t, most = 1.0, max(map(abs, delta))
    while t >= NEWTON_FLOOR:
        if t * most < 1:
            trial = tuple([x + t * v for x, v in zip(config, delta)])
            if is_ordered(trial):
                return trial
        t /= 2
    return None


class SolveReport(Value):
    """Outcome of the fixed-point iteration."""

    _fields = ("status", "tau", "config", "iterations", "deltas", "map", "faces",
               "newton_steps", "induction")

    def __init__(self, status: str, tau: dict, config: tuple, iterations: int, deltas: list,
                 map=None, faces: tuple = (), newton_steps: int = 0,
                 induction: InductionResult | None = None):
        self.status = status  # realized | fixed_point_tol | boundary | max_iter
        self.tau = tau
        self.config = config  # the points, left to right
        self.iterations = iterations  # accepted updates, Newton or averaged
        self.deltas = deltas
        self.map = map  # the family map at ``tau``; none where no map was selected
        self.faces = faces
        self.newton_steps = newton_steps  # the updates that were Newton steps
        # the induction of ``map`` by the path check that succeeded, for ``realize``'s certificate
        self.induction = induction

    @property
    def realized(self) -> bool:
        return self.status == "realized"


def solve(
    family,
    ref: RefConfig,
    max_iter: int = 500,
    start: tuple | None = None,
) -> SolveReport:
    """Iterate the pullback from the reference configuration.

    Success means the selected map's induction reproduces the prescribed
    arrows (checked at every loop head, including before the first step).  A
    step below ``EPS_FIX`` alone reports ``fixed_point_tol``; marking gaps at
    or below ``EPS_DEG`` report ``boundary`` with the faces involved, and a
    pullback that breaks the order reports ``boundary`` with none.

    The solver takes Newton steps towards the fixed point of the pullback
    (``_newton_step``).  Where one fails, the iterate is the average of the
    previous one and its pullback: the same fixed points, without the
    near-period-2 oscillation of the bare pullback.  A failed Newton step
    starts ``FALLBACK_STEPS`` averaged steps, and then Newton is tried again.
    """
    config = start if start is not None else reference_configuration(ref)
    r, kinds = len(ref.path), ref.path.kinds
    deltas: list[tuple[int, float]] = []
    settled = False
    newton_steps = averaged_left = 0

    def report(status, tau, f=None, faces=(), induction=None):
        return SolveReport(status, tau, config, it, deltas, f, faces, newton_steps, induction)

    for it in itertools.count():
        try:
            tau = tau_of(ref, config)
        except OrderViolation:
            return report("boundary", {})
        faces = tuple(ref.names[(ref.crit_pos[a] + 1) % ref.N] for a, v in tau.items() if v <= EPS_DEG)
        if faces:
            return report("boundary", tau, faces=faces)
        f = family.at(tau)
        checked = f.rauzy_path(r, kinds)
        if checked.path.kinds == kinds:
            return report("realized", tau, f, induction=checked)
        if settled:
            return report("fixed_point_tol", tau, f)
        if it >= max_iter:
            return report("max_iter", tau, f)
        try:
            pulled = step(ref, config, f)
        except OrderViolation:
            return report("boundary", tau, f)
        new_config = None
        if averaged_left:
            averaged_left -= 1
        else:
            new_config = _newton_step(family, ref, config, pulled, f, tau)
            if new_config is None:
                averaged_left = FALLBACK_STEPS - 1
            else:
                newton_steps += 1
        if new_config is None:
            # (old + new) / 2, class by class: for floats in [0, 1) that are
            # 0 or above 1e-307 it has the bits of 0.5 * old + 0.5 * new, as
            # halving is exact there and both round the same sum once
            new_config = tuple([(c + p) / 2 for c, p in zip(config, pulled)])
        delta = max(map(abs, map(operator.sub, config, new_config)))
        deltas.append((it + 1, delta))
        settled = delta < EPS_FIX
        config = new_config


class RealizeResult(Value):
    """Outcome of ``realize``: its parameter is ``report.tau``, its path ``ref.path``."""

    _fields = ("certificate", "report", "ref", "appended", "certificate_error")

    def __init__(self, certificate: bool, report: SolveReport, ref: RefConfig, appended: int,
                 certificate_error: str | None = None):
        self.certificate = certificate
        self.report = report
        self.ref = ref
        self.appended = appended
        self.certificate_error = certificate_error  # why the realized map has no partition


def in_model_order(ref: RefConfig, partition) -> bool:
    """True when ``partition`` is combinatorially equivalent to the model's
    partition of the same order: it has N atoms, and its ``k``-th atom
    ``(a, i)`` is the model's unit cell ``[k, k + 1)`` on ``ref.grid``.
    That cell starts at ``T^i`` of a's induced critical point, the orbit
    point ``lifts[a] + i``, which is ``cells[a][i]``, so the model needs no
    partition.  The cells are read and compared by ``map``, with no Python
    code per atom; an index past its letter's tower is out of order."""
    N, atoms, cells = ref.N, partition.atoms, ref.cells
    if len(atoms) != N:
        return False
    starts = map(operator.getitem, map(cells.__getitem__, map(operator.itemgetter(2), atoms)),
                 map(operator.itemgetter(3), atoms))
    try:
        return all(map(operator.eq, starts, range(N)))
    except IndexError:
        return False


def realize(family, target_path: RauzyPath, max_iter: int = 500) -> RealizeResult:
    """Find a family parameter whose map generates ``target_path``.

    If the path does not end at a cyclic datum, a shortest completion inside
    its Rauzy class is appended first, and realizing it realizes the prefix.
    A solver that stops short raises ``SolverFailed``, naming its status,
    its update count and, at a boundary, the faces it reached.
    The certificate is an independent check: the realized map's dynamical
    partition must be combinatorially equivalent to the model's on
    ``ref.grid``, which is read off the model orbit (``in_model_order``).
    That partition is built from the induction of the solver's last path
    check (``SolveReport.induction``), so the realized map is induced once,
    and its tower floors are written straight into the model's cells
    (``ref.cells``): a map in the model's order is partitioned with no sort.
    Where that partition cannot be built (``InductionFailed``: a tie, or a
    tower floor that straddles a breakpoint), the certificate is false and
    ``certificate_error`` says why; a partition that does not tile the
    interval is still an error.  The total return time N grows
    exponentially with the path length: past ``MAX_REFERENCE_POINTS``,
    ``build_reference`` refuses the path before it builds any point.
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
    report = solve(family, ref, max_iter)
    if not report.realized:
        n = report.iterations
        where = f" at faces {', '.join(report.faces)}" if report.faces else ""
        raise SolverFailed(f"solver stopped with status {report.status!r} after {n} "
                           f"update{'s' if n != 1 else ''}{where}", report=report)
    certificate, error = False, None
    try:
        partition = dynamical_partition(report.map, len(full), report.induction, ref.cells)
    except InductionFailed as exc:
        error = str(exc)
    else:
        certificate = in_model_order(ref, partition)
    return RealizeResult(certificate, report, ref, len(full) - len(target_path), error)
