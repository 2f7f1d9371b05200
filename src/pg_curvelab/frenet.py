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

from dataclasses import dataclass
from math import sqrt
from typing import NamedTuple, Sequence

from .algebra import PGVector, det3
from .curves import CurveJet
from .errors import (EmptyGridError, InadmissibleCurveError,
                     IsotropicTangentError)

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
    inflection) and |y''^2 - z''^2| > LIGHTLIKE_TOL * (y''^2 + z''^2).
    """
    if j1 is not None and abs(j1.x1 - 1.0) > 1e-6:
        raise InadmissibleCurveError(
            f"curve is not in arc-length form at s={s:.6g} (x'={j1.x1:.6g})",
            param=s)
    w = j2.x2 * j2.x2 - j2.x3 * j2.x3
    mag = j2.x2 * j2.x2 + j2.x3 * j2.x3
    if mag == 0.0:
        raise InadmissibleCurveError(
            f"inflection point at s={s:.6g}: second derivative vanishes", param=s)
    if abs(w) <= LIGHTLIKE_TOL * mag:
        raise InadmissibleCurveError(
            f"lightlike acceleration at s={s:.6g}: y''^2 - z''^2 ~ 0", param=s)
    return 1 if w > 0.0 else -1


@dataclass(frozen=True)
class AdmissibilityReport:
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
    for s in grid:
        j1, j2 = c.jets(s, 1, 2)
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

    tangent = PGVector(1.0, j1.x2, j1.x3)
    normal = PGVector(0.0, j2.x2 / kappa, j2.x3 / kappa)
    binormal = PGVector(0.0, eps * j2.x3 / kappa, eps * j2.x2 / kappa)
    return FrenetData(s=s, kappa=kappa, tau=tau, epsilon=eps,
                      tangent=tangent, normal=normal, binormal=binormal)


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


def invariants_general(jets) -> tuple[float, float]:
    """Curvature and torsion from an arbitrary-parameter jet.

    ``jets`` holds the first three (or four) derivative vectors of a curve
    whose x-component strictly increases.  The formulas

        kappa = sqrt(|(x'y'' - x''y')^2 - (x'z'' - x''z')^2|) / x'^3
        tau   = det(g', g'', g''') / (x'^6 * kappa^2)

    are invariant under orientation-preserving reparametrization and
    reduce to the arc-length expressions when x(s) = s.
    """
    jets = list(jets)
    if len(jets) < 3:
        raise ValueError("need at least the first three derivative vectors")
    g1, g2, g3 = jets[0], jets[1], jets[2]
    xp = g1.x1
    if xp == 0.0:
        raise IsotropicTangentError(
            "tangent has vanishing x-component; the projective parameter "
            "is stationary and the curve is isotropic here")
    if xp < 0.0:
        raise ValueError(
            "x-component of the tangent must be positive (orientation)")
    wy = xp * g2.x2 - g2.x1 * g1.x2
    wz = xp * g2.x3 - g2.x1 * g1.x3
    w = wy * wy - wz * wz
    kappa = sqrt(abs(w)) / xp ** 3
    if kappa == 0.0:
        raise InadmissibleCurveError("inflection point: curvature vanishes")
    tau = det3(g1, g2, g3) / (xp ** 6 * kappa * kappa)
    return kappa, tau


def frenet_residual(c: CurveJet, s: float, h: float = 1e-4) -> float:
    """Sup-norm defect of the frame derivative equations at s.

    Central differences of the frame columns at step h are compared with
    kappa * normal, tau * binormal and tau * normal; the worst component
    is returned, normalized by max(1, kappa, |tau|).  Frames at s - h and
    s + h must share the normal character eps, otherwise the curve is
    inadmissible on [s - h, s + h].
    """
    fm, fp = frenet_data(c, s - h), frenet_data(c, s + h)
    return _frenet_residual_of(fm, frenet_data(c, s), fp, h)


def _frenet_residual_of(fm: FrenetData, f0: FrenetData, fp: FrenetData,
                        h: float) -> float:
    """:func:`frenet_residual` from the data at s - h, s and s + h."""
    _one_character((fm, f0, fp), f0.s)
    inv = 0.5 / h
    de1 = (fp.tangent - fm.tangent) * inv
    de2 = (fp.normal - fm.normal) * inv
    de3 = (fp.binormal - fm.binormal) * inv

    r1 = (de1 - f0.kappa * f0.normal).max_abs()
    r2 = (de2 - f0.tau * f0.binormal).max_abs()
    r3 = (de3 - f0.tau * f0.normal).max_abs()
    return max(r1, r2, r3) / max(1.0, f0.kappa, abs(f0.tau))


def frame_determinant(f: FrenetData) -> float:
    return det3(f.tangent, f.normal, f.binormal)


def _simpson(f, a: float, b: float, fa: float, fm: float, fb: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a: float, b: float, fa: float, fm: float, fb: float,
              whole: float, tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, m, fa, flm, fm)
    right = _simpson(f, m, b, fm, frm, fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return (_adaptive(f, a, m, fa, flm, fm, left, half, depth - 1)
            + _adaptive(f, m, b, fm, frm, fb, right, half, depth - 1))


def _integrate(f, a: float, b: float, tol: float) -> float:
    if a == b:
        return 0.0
    if b < a:
        return -_integrate(f, b, a, tol)
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(f, a, b, fa, fm, fb)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, 40)


def equiform_parameter(c: CurveJet, s0: float, s: float,
                       tol: float = 1e-10) -> float:
    """Integral of the curvature from s0 to s (adaptive Simpson).

    This is the scale-invariant parameter of the curve; it is
    antisymmetric in (s0, s).
    """

    def kappa(u: float) -> float:
        return frenet_data(c, u).kappa

    return _integrate(kappa, s0, s, tol)


__all__ = [
    "LIGHTLIKE_TOL",
    "AdmissibilityReport",
    "FrenetData",
    "check_admissibility",
    "frenet_data",
    "normal_character",
    "invariants_general",
    "frenet_residual",
    "frame_determinant",
    "equiform_parameter",
]
