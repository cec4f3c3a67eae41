"""The explicit deformation operator that spans a full family.

Given a unit-interval GIET ``f`` and a simplex vector ``tau``, the operator
conjugates ``f`` by two piecewise-affine changes of variable so that the
critical values of the result land exactly at the positions linearly marked
by ``tau`` (consecutive partial sums along the bottom row).  The image slopes
``phi`` act on the bottom intervals, the domain slopes ``psi = phi / rescale``
on the top ones.  Applying the operator twice collapses: the second parameter
wins, so each ``f`` spans a full parameter family.

Each deformed branch is the original branch rescaled onto its new top and
bottom intervals (``Branch.rescaled``): a smooth branch stays smooth, a
piecewise-linear one keeps its nodes, translations and affine maps become
affine, and a chain gains one affine change of variable at each end.  So
deforming a deformed map does not nest branches.

The operator acts on the open simplex: every entry of ``tau`` is positive,
as at the parameter that realizes a path.
"""

from __future__ import annotations

import math

from .combinatorics import CombinatorialDatum
from .errors import GietlabError
from .giet import Giet, giet_from_branches


def _sum(xs) -> float:
    """The float sum of ``xs``, added left to right: from Python 3.12 on,
    ``sum`` of floats is compensated, so its bits depend on the version."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _positive_tau(datum: CombinatorialDatum, tau) -> dict:
    """``tau`` as a float per letter.  A NaN or infinite entry, a tau that
    vanishes identically, one whose entries do not sum to 1 within 1e-9, or
    one with an entry that is not positive is an error."""
    values = [tau[a] for a in datum.alphabet] if isinstance(tau, dict) else tau
    tau = dict(zip(datum.alphabet, map(float, values)))
    if not all(map(math.isfinite, tau.values())):
        raise GietlabError(f"tau entries must be finite numbers, got {tau}")
    if not any(tau.values()):
        raise GietlabError("tau vanishes identically")
    total = _sum(tau.values())
    if not abs(total - 1.0) <= 1e-9:
        raise GietlabError(f"tau must sum to 1, got {total!r}")
    if any(v <= 0 for v in tau.values()):
        raise GietlabError(f"tau must be strictly positive, got {tau}")
    return tau


def _slopes_closed(f: Giet, tau: dict) -> tuple:
    """The rescaling factor and each letter's domain slope ``psi``: the
    image slope ``phi`` of a letter is its ``tau`` over its bottom width in
    ``f``, ``rescale`` sums ``phi`` times the top widths, and ``psi = phi /
    rescale``."""
    if not abs(f.length - 1.0) <= 1e-9:
        raise GietlabError(f"deformations act on unit-interval maps, got length {f.length}")
    phi = {}
    for a, lo, hi in f.bottom_intervals():
        phi[a] = tau[a] / (hi - lo)
    rescale = _sum(phi[a] * (hi - lo) for a, lo, hi in f.top_intervals())
    psi = {a: phi[a] / rescale for a in f.datum.alphabet}
    return rescale, psi


def _top_widths(f: Giet, tau: dict) -> dict:
    """Each letter's top width in the deformed map: its width in ``f`` times
    its domain slope ``psi``."""
    _, psi = _slopes_closed(f, tau)
    return {a: psi[a] * (hi - lo) for a, lo, hi in f.top_intervals()}


def end_derivatives(f: Giet, tau: dict) -> list:
    """The exact derivatives of the deformed map's branch ends, one dict per
    mark: the marks are the left ends of the bottom letters but the first,
    in bottom-row order, and each letter ``a`` gets ``(dx0, dW/W, dc0,
    dH/H)``, where ``(x0, x0 + W)`` is its top interval and ``(c0, c0 + H)``
    its bottom one.

    Moving the mark of ``b_j`` adds to ``tau`` of ``b_(j-1)`` what it takes
    from ``tau`` of ``b_j``.  The bottom width ``H_a`` is ``tau_a``, and the
    top width ``W_a`` is ``rho_a tau_a / R``, with ``rho_a`` the ratio of a's
    top to bottom width in ``f`` and ``R = sum rho_e tau_e`` the rescaling.
    So ``dH/H = dtau / tau``, ``dW/W = dtau / tau - dR / R`` with ``dR =
    rho_(b_(j-1)) - rho_(b_j)``, ``dc0`` is 1 for ``b_j`` alone, and ``dx0``
    adds ``dW`` over the top letters before ``a``.  Sums run left to right.
    """
    top = {a: hi - lo for a, lo, hi in f.top_intervals()}
    rho = {a: top[a] / (hi - lo) for a, lo, hi in f.bottom_intervals()}
    (rescale, psi), row, out = _slopes_closed(f, tau), f.datum.bottom, []
    widths = {a: psi[a] * w for a, w in top.items()}
    for before, b in zip(row, row[1:]):
        dtau = {before: 1.0, b: -1.0}
        d_rescale = rho[before] - rho[b]
        ends, x0 = {}, 0.0
        for a in f.datum.top:
            dt = dtau.get(a, 0.0)
            ends[a] = (x0, dt / tau[a] - d_rescale / rescale, float(a == b), dt / tau[a])
            x0 += (rho[a] * dt - widths[a] * d_rescale) / rescale
        out.append(ends)
    return out


def apply(f: Giet, tau) -> Giet:
    """Deform ``f`` so its critical values sit at the tau partial sums.

    Every output branch is the branch of ``f`` rescaled onto its new
    intervals, so the deformation preserves branch regularity.
    """
    tau = _positive_tau(f.datum, tau)
    return giet_from_branches(f.datum, _top_widths(f, tau), tau,
                              lambda a, dom, rng: f.branches[a].rescaled(dom, rng))

