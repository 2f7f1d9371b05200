"""Classification of curves by the span structure of higher derivatives.

For an admissible curve in arc-length form the second, third and fourth
derivative vectors live in the isotropic plane and decompose over the
scale-invariant normal N and binormal B:

    d2 = (1/rho^2) * N
    d3 = a11*N + a12*B     a11 = -K/rho^3          a12 = T/rho^3
    d4 = a21*N + a22*B     a21 = u/rho^4           a22 = v/rho^4

with u = 2K^2 + T^2 - K',  v = T' - 3KT, where the primes are rates in
the scale-invariant parameter sigma (rho times the s-rates of the
equiform module; that conversion is what makes d4 literally equal the
fourth s-derivative of the curve).  The
five classification conditions constrain d4:

    AW1      d4 has no isotropic-plane component        (u = 0 and v = 0)
    AW2      d4 parallel to d3 in the N-B plane         (det = 0)
    AW3      d4 parallel to N after removing its        (v = 0)
             component along the unit of d2
    WeakAW2  d4 lies along the unit vector built from   (u = 0)
             d3 by signed orthogonalization against d2
    WeakAW3  d4 lies along the unit of d2               (v = 0)

where det = K^2 T - K T' + T K' - T^3.  Scalar residuals divide |u|, |v|
and |det| by a magnitude floor built from K, T and their rates, so a
condition "holds" when its normalized residual is below tolerance.  The
vector forms of the same conditions are computed independently, in the
plane (d2, d3 and d4 have x = 0, so the product is y1*y2 - z1*z2), and
used as a cross-check.

The grid sweep reads each point as floats (the series values and the
nine-float frame of ``equiform._sweep``); :func:`classify`,
:func:`derivative_vectors` and the other public functions wrap records
and vectors at the boundary.

For exact jets the floor is 1e-30.  For finite-difference jets it is
the resolution of the magnitude, taken from the jets' own error bounds:
where K, T, K' and T' each sit within their own error bound the point is
*resolution-limited* — the data cannot tell it from K = T = K' = T' = 0
— and it reads as the exact tier does there, with all residuals zero.
Such points are counted in the report, never dropped silently.
"""

from __future__ import annotations

from math import isfinite
from typing import Mapping, NamedTuple, Sequence

from .algebra import PGVector, _finite
from .curves import CurveJet, JetKind
from .equiform import EquiformData, SweepPoint, _sweep, equiform_data
from .errors import LightlikeNormalError, NumericalInflectionError
from .frenet import Frame

_OMEGA_FLOOR = 1e-30
_CONDITIONS = ("AW1", "AW2", "AW3", "WeakAW2", "WeakAW3")


class AWResiduals(NamedTuple):
    """Normalized scalar residuals of the five conditions at one point."""

    aw1: float
    aw2: float
    aw3: float
    weak_aw2: float
    weak_aw3: float
    u: float
    v: float
    det: float
    omega: float
    resolution_limited: bool = False

    def as_dict(self) -> dict[str, float]:
        return {"AW1": self.aw1, "AW2": self.aw2, "AW3": self.aw3,
                "WeakAW2": self.weak_aw2, "WeakAW3": self.weak_aw3}


def aw_residuals(K: float, Tq: float, Kp: float, Tqp: float,
                 resolution: Sequence[float] | None = None) -> AWResiduals:
    """Scalar residuals from the invariants and their sigma-rates.

    Normalization: omega = max(K^2, T^2, |K'|, |T'|, floor).  The linear
    conditions are divided by omega, the cubic determinant by
    omega^(3/2), making every residual invariant under a common rescaling
    of (K, T, K', T') consistent with their weights.

    ``resolution`` holds the error bounds (e_K, e_T, e_K', e_T') of the
    four arguments (see :func:`omega_resolution`); None for exact input,
    which keeps the floor at 1e-30.  Otherwise the floor is the largest
    error bound of omega's entries, and when |K| <= e_K, |T| <= e_T,
    |K'| <= e_K' and |T'| <= e_T' the point is resolution-limited: all
    residuals read 0.0, as they do for exactly vanishing invariants.
    Where omega^1.5 overflows, ``OverflowError`` names omega.
    """
    u = 2.0 * K * K + Tq * Tq - Kp
    v = Tqp - 3.0 * K * Tq
    det = K * K * Tq - K * Tqp + Tq * Kp - Tq * Tq * Tq
    omega = max(K * K, Tq * Tq, abs(Kp), abs(Tqp), _OMEGA_FLOOR)
    if resolution is not None:
        e_k, e_t, e_kp, e_tp = resolution
        floor = max(e_k * (2.0 * abs(K) + e_k), e_t * (2.0 * abs(Tq) + e_t),
                    e_kp, e_tp)
        if (abs(K) <= e_k and abs(Tq) <= e_t and abs(Kp) <= e_kp
                and abs(Tqp) <= e_tp):
            return AWResiduals(aw1=0.0, aw2=0.0, aw3=0.0, weak_aw2=0.0,
                               weak_aw3=0.0, u=u, v=v, det=det,
                               omega=floor, resolution_limited=True)
        omega = max(omega, floor)
    lin = 1.0 / omega
    try:
        aw2 = abs(det) / omega ** 1.5
    except OverflowError:
        raise OverflowError(f"omega^1.5 overflows for omega = "
                            f"{omega:.6g}") from None
    return AWResiduals(
        aw1=max(abs(u), abs(v)) * lin,
        aw2=aw2,
        aw3=abs(v) * lin,
        weak_aw2=abs(u) * lin,
        weak_aw3=abs(v) * lin,
        u=u, v=v, det=det, omega=omega)


class DerivativeVectors(NamedTuple):
    """Derivatives two to four of the curve and their frame coefficients."""

    s: float
    frame: EquiformData
    d2: PGVector
    d3: PGVector
    d4: PGVector
    a11: float
    a12: float
    a21: float
    a22: float


def sigma_rates(d: EquiformData) -> tuple[float, float]:
    """Rates of the two invariants in the scale-invariant parameter."""
    return d.rho * d.curvature_rate, d.rho * d.torsion_rate


def omega_resolution(d: EquiformData
                     ) -> tuple[float, float, float, float] | None:
    """Error bounds (e_K, e_T, e_K', e_T') of K, T and their sigma-rates.

    Built from ``d.errors`` (first order; the sigma-rates carry the
    error of rho as well); None for exact jets.
    """
    return _resolution(d.rho, d.curvature_rate, d.torsion_rate, d.errors)


def _resolution(rho: float, K1: float, T1: float,
                errors: tuple[float, ...] | None
                ) -> tuple[float, float, float, float] | None:
    """:func:`omega_resolution` of rho, dK/ds and dT/ds and their
    ``errors``."""
    if errors is None:
        return None
    e_rho, e_k, e_t, e_kr, e_tr = errors
    return (e_k, e_t, rho * e_kr + abs(K1) * e_rho,
            rho * e_tr + abs(T1) * e_rho)


def derivative_vectors(c: CurveJet, s: float) -> DerivativeVectors:
    d = equiform_data(c, s)
    frame = (*d.tangent.as_tuple(), *d.normal.as_tuple(),
             *d.binormal.as_tuple())
    try:
        res = aw_residuals(d.curvature, d.torsion, *sigma_rates(d))
        a, yz = _plane(d.rho, d.curvature, d.torsion, frame, res.u, res.v)
    except (ValueError, ArithmeticError) as exc:
        raise _span_error(d.s, d.rho, d.curvature, d.torsion,
                          *sigma_rates(d), exc) from exc
    d2, d3, d4 = (PGVector(0.0, *yz[i:i + 2]) for i in (0, 2, 4))
    return DerivativeVectors(d.s, d, d2, d3, d4, *a)


def _plane(rho: float, K: float, T: float, frame: Frame, u: float,
           v: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The coefficients (a11, a12, a21, a22) and the (y, z) components of
    d2, d3 and d4 (whose x-components are 0), given rho, K, T, the
    equiform frame and u and v at a point."""
    r2 = rho * rho
    r3 = r2 * rho
    r4 = r3 * rho
    if r4 == 0.0:                       # kappa^4 overflows, kappa^2 need not
        raise ValueError(f"the span coefficients divide by rho^4, which "
                         f"underflows to 0 (rho = {rho:.6g})")
    a = (-K / r3, T / r3, u / r4, v / r4)
    ny, nz, by, bz, c = frame[4], frame[5], frame[7], frame[8], 1.0 / r2
    return a, (_finite(c * 0.0, c * ny, c * nz)[1:]
               + _lin(a[0], ny, nz, a[1], by, bz)
               + _lin(a[2], ny, nz, a[3], by, bz))


def _span_error(s: float, rho: float, K: float, T: float, Kp: float,
                Tp: float, exc: Exception) -> Exception:
    """``exc`` with s named, or where a span coefficient of :func:`_plane`
    is not finite, or else omega^1.5 in :func:`aw_residuals` overflows,
    the rule of ``frenet._overflow``: a
    :class:`NumericalInflectionError` where rho > 1, else an
    ``OverflowError``, naming s, the coefficients or omega, and rho."""
    r3 = rho * rho * rho
    r4 = r3 * rho
    a = (-K / r3, T / r3, (2.0 * K * K + T * T - Kp) / r4,
         (Tp - 3.0 * K * T) / r4) if r4 else (0.0,)
    if not isfinite(sum(a)):
        message = (f"the span coefficients (-K/rho^3, T/rho^3, u/rho^4, "
                   f"v/rho^4) = ({', '.join(f'{x:.6g}' for x in a)}) "
                   f"overflow at s={s:.6g} (rho = {rho:.6g})")
    elif isinstance(exc, OverflowError):        # omega ** 1.5
        message = f"{exc} at s={s:.6g} (rho = {rho:.6g})"
    else:
        return type(exc)(f"{exc} at s={s:.6g}")
    if rho > 1.0:
        return NumericalInflectionError(
            f"numerically an inflection: {message}", param=s)
    return OverflowError(message)


def _lin(a: float, uy: float, uz: float, b: float, vy: float, vz: float,
         sign: float = 1.0) -> tuple[float, float]:
    """a*u + sign*b*v for u = (uy, uz) and v = (vy, vz) in the isotropic
    plane, checked as its vector form builds a*u, b*v and the result."""
    au, av, bu, bv = a * uy, a * uz, b * vy, b * vz
    return _finite(a * 0.0, au, av, b * 0.0, bu, bv,
                   au + sign * bu, av + sign * bv)[-2:]


class UnitDirections(NamedTuple):
    """Unit of d2 and the signed-orthogonalized unit of d3.

    ``q2`` is None when d3 has no component outside the line of d2 (for
    example whenever the torsion vanishes); the conditions that project
    onto it are then degenerate at this point.
    """

    q1: PGVector
    q2: PGVector | None


def unit_directions(dv: DerivativeVectors) -> UnitDirections:
    units = _units(dv.s, dv.d2.x2, dv.d2.x3, dv.d3.x2, dv.d3.x3)
    return UnitDirections(*(q and PGVector(0.0, *q) for q in units))


def _units(s: float, y2: float, z2: float, y3: float, z3: float
           ) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
    """:func:`unit_directions` on the plane: q1 and q2 as (y, z)."""
    g11 = y2 * y2 - z2 * z2
    scale = max(abs(y2), abs(z2))
    if scale == 0.0 or abs(g11) <= 1e-14 * scale * scale:
        raise LightlikeNormalError(
            f"second derivative at s={s:.6g} is numerically lightlike; "
            "no unit direction exists")
    n = abs(g11) ** 0.5
    q1 = _finite(y2 / n, z2 / n)
    e1 = 1.0 if g11 > 0.0 else -1.0          # <q1, q1> = e1
    wy, wz = _lin(1.0, y3, z3, (y3 * q1[0] - z3 * q1[1]) / e1, *q1, -1.0)
    g22 = wy * wy - wz * wz
    wscale = max(abs(wy), abs(wz))
    if wscale == 0.0 or abs(g22) <= 1e-14 * wscale * wscale:
        return q1, None
    n = abs(g22) ** 0.5
    return q1, _finite(wy / n, wz / n)


def vector_identity_residuals(dv: DerivativeVectors) -> dict[str, float]:
    """The five conditions evaluated on the raw vectors.

    Each residual is the sup-norm of the defining vector equation's
    defect, normalized by the largest term entering it, and exactly 0.0
    when the defect vector is exactly zero.  Conditions whose unit
    direction does not exist are reported as NaN.  Reads (y, z) only.
    """
    return _residuals(dv.s, dv.d2.x2, dv.d2.x3, dv.d3.x2, dv.d3.x3,
                      dv.d4.x2, dv.d4.x3)


def _residuals(s: float, y2: float, z2: float, y3: float, z3: float,
               y4: float, z4: float) -> dict[str, float]:
    """:func:`vector_identity_residuals` on the plane: <u,v> = y1y2 - z1z2."""
    m2, m3 = max(abs(y2), abs(z2)), max(abs(y3), abs(z3))
    m4 = max(abs(y4), abs(z4))
    g33, g43 = y3 * y3 - z3 * z3, y4 * y3 - z4 * z3
    g22, g42 = y2 * y2 - z2 * z2, y4 * y2 - z4 * z2
    aw2 = max(map(abs, _lin(g33, y4, z4, g43, y3, z3, -1.0)))
    aw3 = max(map(abs, _lin(g22, y4, z4, g42, y2, z2, -1.0)))
    out = {"AW1": m4 / max(m3, m2, _OMEGA_FLOOR),
           "AW2": aw2 / max(abs(g33) * m4, abs(g43) * m3, _OMEGA_FLOOR),
           "AW3": aw3 / max(abs(g22) * m4, abs(g42) * m2, _OMEGA_FLOOR),
           "WeakAW2": float("nan")}                 # unless q2 exists
    q1, q2 = _units(s, y2, z2, y3, z3)
    m4 = max(m4, _OMEGA_FLOOR)
    for name, q in ("WeakAW2", q2), ("WeakAW3", q1):    # d4 off q's line
        if q is not None:
            e = 1.0 if q[0] * q[0] - q[1] * q[1] > 0.0 else -1.0
            c = (y4 * q[0] - z4 * q[1]) / e
            out[name] = max(map(abs, _lin(1.0, y4, z4, c, *q, -1.0))) / m4
    return out


class AWVerdict(NamedTuple):
    holds: bool
    sup_residual: float
    grid_size: int


class AWReport(NamedTuple):
    """Grid verdicts for the five span conditions.

    ``verdicts`` maps condition name to its verdict; ``holds`` collects
    the names whose sup residual stayed below the tolerance.
    ``degenerate_points`` lists parameters where the orthogonalized unit
    of d3 does not exist.  ``resolution_limited_points`` lists
    parameters where the finite-difference data could not resolve the
    invariants from zero (see :func:`aw_residuals`); the vector
    cross-check is skipped there, and such points are never listed in
    ``degenerate_points``: with T unresolved from zero, whether d3
    leaves the line of d2 is decided by noise.  ``diagnostics`` carries
    cross-check or caller notes; it never changes the verdicts.
    """

    verdicts: Mapping[str, AWVerdict]
    tolerance: float
    degenerate_points: tuple[float, ...]
    diagnostics: tuple[str, ...]
    resolution_limited_points: tuple[float, ...] = ()

    @property
    def holds(self) -> set[str]:
        return {name for name, v in self.verdicts.items() if v.holds}


def classify(c: CurveJet, grid: Sequence[float],
             tol: float | None = None,
             notes: Sequence[str] = ()) -> AWReport:
    """Sweep the grid and decide which span conditions hold on it.

    The default tolerance is the tier's, ``c.kind.tolerance``.  At each
    point the scalar residuals are also checked against the independent
    vector forms; a verdict-level disagreement is recorded as a
    diagnostic.  Resolution-limited points (finite-difference jets only)
    contribute zero residuals and are listed in the report; their vector
    forms are ratios of unresolved quantities and are not cross-checked
    or tested for degeneracy.
    """
    return _classify_of(grid, _sweep(c, grid, 1)[1], c.kind, tol, notes)


def _classify_of(grid: Sequence[float], points: Sequence[SweepPoint],
                 kind: JetKind, tol: float | None, notes: Sequence[str]
                 ) -> AWReport:
    """:func:`classify` of an already evaluated sweep of the ``grid``
    (jets of ``kind``)."""
    if tol is None:
        tol = kind.tolerance
    sup: dict[str, float] = {name: 0.0 for name in _CONDITIONS}
    degenerate: list[float] = []
    limited: list[float] = []
    diagnostics = list(notes)
    mismatches = 0
    for s, (_, (rho, K, T, K1, T1, errors), frame) in zip(grid, points):
        try:
            res = aw_residuals(K, T, rho * K1, rho * T1,
                               _resolution(rho, K1, T1, errors))
            vectors = (None if res.resolution_limited else
                       _residuals(s, *_plane(rho, K, T, frame, res.u,
                                             res.v)[1]))
        except (ValueError, ArithmeticError) as exc:
            raise _span_error(s, rho, K, T, rho * K1, rho * T1, exc) from exc
        scalars = res.as_dict()
        for name in _CONDITIONS:
            sup[name] = max(sup[name], scalars[name])
        if vectors is None:
            limited.append(s)
            continue
        for name in _CONDITIONS:
            rv = vectors[name]
            if rv != rv:                      # NaN: unit direction missing
                continue
            if (scalars[name] <= tol) != (rv <= tol) and mismatches < 5:
                diagnostics.append(
                    f"{name} at s={s:.6g}: scalar residual "
                    f"{scalars[name]:.3e} and vector residual {rv:.3e} "
                    f"fall on opposite sides of tol={tol:.1e}")
                mismatches += 1
        weak2 = vectors["WeakAW2"]
        if weak2 != weak2:
            degenerate.append(s)

    verdicts = {name: AWVerdict(holds=sup[name] <= tol,
                                sup_residual=sup[name],
                                grid_size=len(points))
                for name in _CONDITIONS}
    return AWReport(verdicts=verdicts, tolerance=tol,
                    degenerate_points=tuple(degenerate),
                    diagnostics=tuple(diagnostics),
                    resolution_limited_points=tuple(limited))
