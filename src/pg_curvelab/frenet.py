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
"""

from __future__ import annotations

from math import inf, isfinite, sqrt
from typing import NamedTuple, Sequence

from .algebra import PGVector, _finite
from .curves import CurveJet, bundle_reader
from .errors import (EmptyGridError, InadmissibleCurveError,
                     NumericalInflectionError)

LIGHTLIKE_TOL = 1e-10


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
    if j1 is not None and abs(j1.x1 - 1.0) > 1e-6:
        raise InadmissibleCurveError(
            f"curve is not in arc-length form at s={s:.6g} (x'={j1.x1:.6g})",
            param=s)
    w = j2.x2 * j2.x2 - j2.x3 * j2.x3
    mag = j2.x2 * j2.x2 + j2.x3 * j2.x3
    if not 0.0 < mag < inf:
        if mag:
            raise OverflowError(f"y''^2 + z''^2 overflows at s={s:.6g}")
        raise InadmissibleCurveError(
            f"inflection point at s={s:.6g}: second derivative vanishes", param=s)
    if abs(w) <= LIGHTLIKE_TOL * mag:
        raise InadmissibleCurveError(
            f"lightlike acceleration at s={s:.6g}: y''^2 - z''^2 ~ 0", param=s)
    return 1 if w > 0.0 else -1


def _overflow(s: float, j2: PGVector, exc: Exception) -> Exception:
    """What a per-point kernel at s raises for ``exc``, an overflow in
    its arithmetic: ``exc`` itself when y''^2 + z''^2 overflows
    (:func:`normal_character` has named s), else
    :class:`NumericalInflectionError` when rho = 1/kappa > 1 can drive
    it (|y''^2 - z''^2| < 1), else ``exc`` with s named (parameters
    beyond a family's range)."""
    if not isfinite(j2.x2 * j2.x2 + j2.x3 * j2.x3):
        return exc
    if abs(j2.x2 * j2.x2 - j2.x3 * j2.x3) < 1.0:
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
        j1, j2 = read(i)
        mag = j2.x2 * j2.x2 + j2.x3 * j2.x3
        infl.append(max(abs(j2.x2), abs(j2.x3)))
        light.append(abs(j2.x2 * j2.x2 - j2.x3 * j2.x3) / mag if mag else 0.0)
        try:
            normal_character(s, j1, j2)
        except InadmissibleCurveError:
            failing.append(s)
    return AdmissibilityReport(not failing, min(infl), min(light),
                               tuple(failing))


def frenet_data(c: CurveJet, s: float) -> FrenetData:
    """Evaluate the classical apparatus at s; raises where
    :func:`normal_character` does."""
    return _frenet_of(s, *c.jets(s, 1, 3))


def _frenet_of(s: float, j1: PGVector, j2: PGVector,
               j3: PGVector) -> FrenetData:
    """:func:`frenet_data` from the jets of orders 1-3 at s."""
    eps = normal_character(s, j1, j2)
    w = j2.x2 * j2.x2 - j2.x3 * j2.x3
    kappa = sqrt(abs(w))
    tau = (j2.x2 * j3.x3 - j3.x2 * j2.x3) / abs(w)
    return FrenetData(s, kappa, tau, eps, *_frenet_frame(j1, j2, eps, kappa))


def _frenet_frame(j1: PGVector, j2: PGVector, eps: int, kappa: float
                  ) -> tuple[PGVector, PGVector, PGVector]:
    """(tangent, normal, binormal) from the jets of orders 1-2."""
    return (PGVector(1.0, j1.x2, j1.x3),
            PGVector(0.0, j2.x2 / kappa, j2.x3 / kappa),
            PGVector(0.0, eps * j2.x3 / kappa, eps * j2.x2 / kappa))


class Frame(NamedTuple):
    """A frame and its normal character at s: all that a frame-equation
    residual reads at s - h and s + h."""

    s: float
    epsilon: int
    tangent: PGVector
    normal: PGVector
    binormal: PGVector


def _neighbour(s: float, j1: PGVector, j2: PGVector) -> tuple[Frame, float]:
    """The Frenet frame at a residual neighbour s, with kappa, from the
    jets of orders 1-2 there; raises where :func:`normal_character`
    does."""
    eps = normal_character(s, j1, j2)
    kappa = sqrt(abs(j2.x2 * j2.x2 - j2.x3 * j2.x3))
    return Frame(s, eps, *_frenet_frame(j1, j2, eps, kappa)), kappa


def _one_character(datas: Sequence, stencil_at: float | None = None) -> None:
    """Raise :class:`InadmissibleCurveError` when the normal character
    flips within ``datas`` (Frenet or equiform data of a grid sweep, or of
    the difference stencil centred at ``stencil_at``)."""
    for d in datas:
        if d.epsilon == datas[0].epsilon:
            continue
        if stencil_at is None:
            raise InadmissibleCurveError(
                f"normal character flips between s={datas[0].s:.6g} and "
                f"s={d.s:.6g}; the curve crosses the light cone", param=d.s)
        raise InadmissibleCurveError(
            f"normal character flips near s={stencil_at:.6g}; the curve "
            "crosses the light cone inside the difference stencil",
            param=stencil_at)


def frenet_residual(c: CurveJet, s: float, h: float | None = None) -> float:
    """Sup-norm defect of the frame derivative equations at s.

    Central differences of the frame columns at step h (by default
    ``c.residual_step``) are compared with kappa * normal,
    tau * binormal and tau * normal; the worst component is returned,
    normalized by max(1, kappa, |tau|).  Frames at s - h and s + h must
    share the normal character eps, otherwise the curve is inadmissible
    on [s - h, s + h].  At s - h and s + h only the frame is built, from
    the jets of orders 1-2 (:class:`Frame`), as ``eval`` does off its
    grid; the data at s need order 3 (tau).  Like ``eval``, it reads s,
    then s - h, then s + h, so both name the same failing point.
    """
    h = c.residual_step if h is None else h
    f0 = frenet_data(c, s)
    fm = _neighbour(s - h, *c.jets(s - h, 1, 2))[0]
    fp = _neighbour(s + h, *c.jets(s + h, 1, 2))[0]
    return _frenet_residual_of(fm, f0, fp, h)


def _frenet_residual_of(fm: Frame | FrenetData, f0: FrenetData,
                        fp: Frame | FrenetData, h: float) -> float:
    """:func:`frenet_residual` from the data at s - h, s and s + h."""
    _one_character((fm, f0, fp), f0.s)
    k, t, n = f0.kappa, f0.tau, f0.normal
    rhs = (k, n, None, None), (t, f0.binormal, None, None), (t, n, None, None)
    return _frame_defect(fm, fp, 0.5 / h, rhs) / max(1.0, k, abs(t))


def _frame_defect(fm: Frame, fp: Frame, scale: float, rhs: tuple) -> float:
    """max |(fp - fm) * scale - rhs| over the tangent, normal and binormal
    equations, where ``rhs`` gives each as (c, v, c2, v2): c*v + c2*v2, or
    c*v when c2 is None; checked in the order the vector forms build."""
    diffs, rest, defects = [], [], []
    for p, m, (c, v, c2, v2) in zip((fp.tangent, fp.normal, fp.binormal),
                                    (fm.tangent, fm.normal, fm.binormal), rhs):
        d1, d2, d3 = p.x1 - m.x1, p.x2 - m.x2, p.x3 - m.x3
        e1, e2, e3 = d1 * scale, d2 * scale, d3 * scale
        diffs += d1, d2, d3, e1, e2, e3
        r = (c * v.x1, c * v.x2, c * v.x3)
        if c2 is not None:
            w = (c2 * v2.x1, c2 * v2.x2, c2 * v2.x3)
            rest += r + w
            r = (r[0] + w[0], r[1] + w[1], r[2] + w[2])
        g = (e1 - r[0], e2 - r[1], e3 - r[2])
        rest += r + g
        defects += g
    _finite(*diffs, *rest)
    return max(map(abs, defects))
