"""Classical curvature, torsion and moving frame of an admissible curve.

For a curve in arc-length form (x(s) = s) the curvature is
kappa = sqrt(|y''^2 - z''^2|) and the torsion is
tau = (y'' z''' - y''' z'') / kappa^2.  The frame is

    tangent  = (1, y', z')
    normal   = (0, y'', z'') / kappa
    binormal = (0, eps * z'', eps * y'') / kappa

with eps = sign(y''^2 - z''^2), chosen so the frame determinant is +1.
The normal is spacelike for eps = +1 and timelike for eps = -1; the
binormal has the opposite character.

The kernels read the jets as a row of floats (``CurveJet.rows``: x, y,
z and err of each order, from order 1) and pass a frame as nine floats
(:data:`Frame`: tangent, normal and binormal), each finite, checked in
the order of its components (``algebra._finite``), so a frame raises the
error its three vectors would.  ``_frenet_of`` and ``_neighbour`` build
the frame at a point, and ``_frame_defect`` compares central differences
of frames with the frame equations; :func:`frenet_data` wraps the same
pass into a :class:`FrenetData` record.
"""

from __future__ import annotations

from math import inf, isfinite, sqrt
from typing import NamedTuple, Sequence

from .algebra import PGVector, _finite
from .curves import CurveJet, Row, bundle_reader
from .errors import (EmptyGridError, InadmissibleCurveError,
                     NumericalInflectionError)

LIGHTLIKE_TOL = 1e-10


# A frame as nine floats: tangent, normal and binormal, x, y, z each
Frame = tuple[float, ...]


class FrenetData(NamedTuple):
    """Curvature, torsion, normal character and frame at one parameter."""

    s: float
    kappa: float
    tau: float
    epsilon: int
    tangent: PGVector
    normal: PGVector
    binormal: PGVector


def normal_character(s: float, j1: PGVector | None, j2: PGVector) -> int:
    """The admissibility test of every apparatus at s; returns eps.

    Raises :class:`InadmissibleCurveError` unless |x' - 1| <= 1e-6 (arc
    length; skipped when ``j1`` is None), y''^2 + z''^2 > 0 (no
    inflection) and |y''^2 - z''^2| > LIGHTLIKE_TOL * (y''^2 + z''^2),
    and ``OverflowError`` where y''^2 + z''^2 overflows, which says
    nothing about the light cone.
    """
    return _character(s, None if j1 is None else j1.x1, j2.x2, j2.x3)


def _character(s: float, x1: float | None, y2: float, z2: float) -> int:
    """:func:`normal_character` of x', y'' and z'' at s."""
    if x1 is not None and abs(x1 - 1.0) > 1e-6:
        raise InadmissibleCurveError(
            f"curve is not in arc-length form at s={s:.6g} (x'={x1:.6g})",
            param=s)
    w = y2 * y2 - z2 * z2
    mag = y2 * y2 + z2 * z2
    if not 0.0 < mag < inf:
        if mag:
            raise OverflowError(f"y''^2 + z''^2 overflows at s={s:.6g}")
        raise InadmissibleCurveError(
            f"inflection point at s={s:.6g}: second derivative vanishes", param=s)
    if abs(w) <= LIGHTLIKE_TOL * mag:
        raise InadmissibleCurveError(
            f"lightlike acceleration at s={s:.6g}: y''^2 - z''^2 ~ 0", param=s)
    return 1 if w > 0.0 else -1


def _overflow(s: float, y2: float, z2: float, exc: Exception) -> Exception:
    """What a per-point kernel at s raises for ``exc``, an overflow in
    its arithmetic, given y'' and z'' there: ``exc`` itself when y''^2 +
    z''^2 overflows (:func:`normal_character` has named s), else
    :class:`NumericalInflectionError` when rho = 1/kappa > 1 can drive
    it (|y''^2 - z''^2| < 1), else ``exc`` with s named (parameters
    beyond a family's range)."""
    if not isfinite(y2 * y2 + z2 * z2):
        return exc
    if abs(y2 * y2 - z2 * z2) < 1.0:
        err: Exception = NumericalInflectionError(
            f"numerically an inflection: rho = 1/kappa overflows at "
            f"s={s:.6g} ({exc})", param=s)
    else:
        err = type(exc)(f"{exc} at s={s:.6g}")
    err.__cause__ = exc
    return err


class AdmissibilityReport(NamedTuple):
    """Grid sweep of :func:`normal_character`: ``admissible`` when no
    apparatus raises at a grid point.  The margins are the smallest
    max(|y''|, |z''|) (inflection) and |y''^2 - z''^2| / (y''^2 + z''^2)
    (lightlike) over the grid.
    """

    admissible: bool
    worst_inflection_margin: float
    worst_lightlike_margin: float
    failing_params: tuple[float, ...]


def check_admissibility(c: CurveJet, grid: Sequence[float]
                        ) -> AdmissibilityReport:
    """Sweep :func:`normal_character` over the grid and report its margins."""
    if len(grid) == 0:
        raise EmptyGridError("admissibility sweep needs a non-empty grid")
    infl: list[float] = []
    light: list[float] = []
    failing: list[float] = []
    read = bundle_reader(c, grid, 1, 2)
    for i, s in enumerate(grid):
        x1, _, _, _, _, y2, z2, _ = read(i)
        mag = y2 * y2 + z2 * z2
        infl.append(max(abs(y2), abs(z2)))
        light.append(abs(y2 * y2 - z2 * z2) / mag if mag else 0.0)
        try:
            _character(s, x1, y2, z2)
        except InadmissibleCurveError:
            failing.append(s)
    return AdmissibilityReport(not failing, min(infl), min(light),
                               tuple(failing))


def frenet_data(c: CurveJet, s: float) -> FrenetData:
    """Evaluate the classical apparatus at s; raises where
    :func:`normal_character` does."""
    eps, kappa, tau, frame = _frenet_of(s, c.rows((s,), 1, 3)[0])
    return FrenetData(s, kappa, tau, eps, *_frame_vectors(frame))


def _frenet_of(s: float, r: Row) -> tuple[int, float, float, Frame]:
    """eps, kappa, tau and the frame at s, from the row ``r`` of orders
    1-3 there."""
    eps, kappa, frame = _neighbour(s, r)
    y2, z2 = r[5], r[6]
    tau = (y2 * r[10] - r[9] * z2) / abs(y2 * y2 - z2 * z2)
    return eps, kappa, tau, frame


def _neighbour(s: float, r: Row) -> tuple[int, float, Frame]:
    """eps, kappa and the frame at s, from the row ``r`` of orders 1-2
    there (or more): all that a frame-equation residual reads at s - h
    and s + h; raises where :func:`normal_character` does."""
    x1, y1, z1, _, _, y2, z2 = r[:7]
    eps = _character(s, x1, y2, z2)
    kappa = sqrt(abs(y2 * y2 - z2 * z2))
    return eps, kappa, _finite(1.0, y1, z1,
                               0.0, y2 / kappa, z2 / kappa,
                               0.0, eps * z2 / kappa, eps * y2 / kappa)


def _frame_vectors(f: Frame) -> tuple[PGVector, PGVector, PGVector]:
    """The tangent, normal and binormal of a frame as vectors."""
    t1, t2, t3, n1, n2, n3, b1, b2, b3 = f
    return PGVector(t1, t2, t3), PGVector(n1, n2, n3), PGVector(b1, b2, b3)


def _one_character(grid: Sequence[float], epsilons: Sequence[int]) -> None:
    """Raise :class:`InadmissibleCurveError` when the normal character
    ``epsilons`` of a grid sweep flips over the ``grid``."""
    for s, eps in zip(grid, epsilons):
        if eps != epsilons[0]:
            raise InadmissibleCurveError(
                f"normal character flips between s={grid[0]:.6g} and "
                f"s={s:.6g}; the curve crosses the light cone", param=s)


def _stencil_character(s: float, em: int, e0: int, ep: int) -> None:
    """Raise :class:`InadmissibleCurveError` unless the normal characters
    at s - h, s and s + h agree."""
    if not em == e0 == ep:
        raise InadmissibleCurveError(
            f"normal character flips near s={s:.6g}; the curve crosses the "
            "light cone inside the difference stencil", param=s)


def _residual_step(c: CurveJet, h: float | None) -> float:
    """The step of a frame-equation residual: ``c.residual_step`` when h
    is None; ``ValueError`` unless it is finite and nonzero."""
    if h is None:
        return c.residual_step
    if not (isfinite(h) and h):
        raise ValueError(
            f"residual step h must be finite and nonzero, got {h!r}")
    return h


def frenet_residual(c: CurveJet, s: float, h: float | None = None) -> float:
    """Sup-norm defect of the frame derivative equations at s.

    Central differences of the frame columns at step h (by default
    ``c.residual_step``; else finite and nonzero, checked before any jet
    is read) are compared with kappa * normal, tau * binormal and
    tau * normal; the worst component is returned, normalized by
    max(1, kappa, |tau|).  Frames at s - h and s + h must share the
    normal character eps, otherwise the curve is inadmissible on
    [s - h, s + h].  At s - h and s + h only the frame is built, from
    the jets of orders 1-2 (:func:`_neighbour`), as ``eval`` does off its
    grid; the data at s need order 3 (tau).  Like ``eval``, it reads s,
    then s - h, then s + h, so both name the same failing point.
    """
    h = _residual_step(c, h)
    eps, kappa, tau, f0 = _frenet_of(s, c.rows((s,), 1, 3)[0])
    em, _, fm = _neighbour(s - h, c.rows((s - h,), 1, 2)[0])
    ep, _, fp = _neighbour(s + h, c.rows((s + h,), 1, 2)[0])
    _stencil_character(s, em, eps, ep)
    return _frenet_residual_of(fm, f0, fp, kappa, tau, h)


def _frenet_residual_of(fm: Frame, f0: Frame, fp: Frame, kappa: float,
                        tau: float, h: float) -> float:
    """:func:`frenet_residual` from the frames at s - h, s and s + h and
    kappa and tau at s, once :func:`_stencil_character` has passed."""
    rhs = (kappa, 3, None, 0), (tau, 6, None, 0), (tau, 3, None, 0)
    return _frame_defect(fm, f0, fp, 0.5 / h, rhs) / max(1.0, kappa, abs(tau))


def _frame_defect(fm: Frame, f0: Frame, fp: Frame, scale: float,
                  rhs: tuple) -> float:
    """max |(fp - fm) * scale - rhs| over the tangent, normal and binormal
    equations, where ``rhs`` gives each as (c, i, c2, i2): c times the
    vector at ``f0[i:i + 3]``, plus c2 times that at ``f0[i2:i2 + 3]``
    unless c2 is None; checked in the order the vector forms build
    (``algebra._finite``)."""
    diffs, rest, defects = [], [], []
    for k, (c, i, c2, i2) in zip((0, 3, 6), rhs):
        d1, d2, d3 = fp[k] - fm[k], fp[k + 1] - fm[k + 1], fp[k + 2] - fm[k + 2]
        e1, e2, e3 = d1 * scale, d2 * scale, d3 * scale
        diffs += d1, d2, d3, e1, e2, e3
        r1, r2, r3 = c * f0[i], c * f0[i + 1], c * f0[i + 2]
        if c2 is not None:
            w1, w2, w3 = c2 * f0[i2], c2 * f0[i2 + 1], c2 * f0[i2 + 2]
            rest += r1, r2, r3, w1, w2, w3
            r1, r2, r3 = r1 + w1, r2 + w2, r3 + w3
        g1, g2, g3 = e1 - r1, e2 - r2, e3 - r3
        rest += r1, r2, r3, g1, g2, g3
        defects += g1, g2, g3
    _finite(*diffs, *rest)
    return max(map(abs, defects))
