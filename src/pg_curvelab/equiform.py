"""Scale-invariant (equiform) apparatus of an admissible curve.

With rho = 1/kappa the radius of curvature, the equiform frame is the
classical frame stretched by rho,

    tangent = rho * e1,   normal = rho * e2,   binormal = rho * e3,

and the two scale-invariant functions are the equiform curvature
K = d(rho)/ds and the equiform torsion T = rho * tau.  The rate fields
are plain s-derivatives of K and T; consumers that need rates in the
scale-invariant parameter sigma multiply by rho (d/dsigma = rho * d/ds).
The frame satisfies

    dT/dsigma = K*T + N,   dN/dsigma = K*N + T*B,   dB/dsigma = T*N + K*B.

All quantities are produced by truncated derivative-series arithmetic on
the curve jets, written out as one float pass for the series lengths it
needs (the arithmetic of :class:`~.series.DSeries`, bit for bit), so a
curve carrying exact order-4 jets yields K, T and their rates exact to
round-off.

The kernels read the jets as rows of floats (``CurveJet.rows``) and
pass the frame as nine floats (``frenet.Frame``), each finite, checked
in the order of its components (``algebra._finite``): ``_equiform_of``
gives the series values and the frame at a point, ``_frames_at`` the
Frenet and equiform frames at a residual neighbour and
``_equiform_residual_of`` reads the frames at s - h, s and s + h.  The
grid sweep ``_sweep`` keeps each point as (eps, values, frame) floats,
which ``classify``, ``natural_class`` and the pair verifier read;
:func:`equiform_data` and :func:`equiform_grid` wrap the same pass into
:class:`EquiformData` records at the public boundary.
"""

from __future__ import annotations

from math import fsum, sqrt
from enum import Enum
from typing import NamedTuple, Sequence

from .algebra import PGVector, _finite
from .curves import CurveJet, Row, bundle_reader
from .errors import EmptyGridError, JetOrderError
from .frenet import (Frame, _character, _frame_defect, _frame_vectors,
                     _neighbour, _one_character, _overflow, _residual_step,
                     _stencil_character)

# the series values (rho, K, T, dK/ds, dT/ds, errors) at a point
Values = tuple
# a point of the grid sweep: eps, the series values and the frame
SweepPoint = tuple[int, Values, Frame]


class EquiformData(NamedTuple):
    """Scale-invariant apparatus at one parameter value.

    ``curvature_rate`` and ``torsion_rate`` are the s-derivatives of
    ``curvature`` and ``torsion``; ``epsilon`` is the causal character of
    the unit normal (+1 spacelike, -1 timelike).  ``errors`` holds
    first-order absolute error bounds of (rho, curvature, torsion,
    curvature_rate, torsion_rate), propagated from the error bounds of
    finite-difference jets; it is None for exact jets.
    """

    s: float
    epsilon: int
    rho: float
    curvature: float
    torsion: float
    curvature_rate: float
    torsion_rate: float
    tangent: PGVector
    normal: PGVector
    binormal: PGVector
    errors: tuple[float, float, float, float, float] | None = None


def equiform_data(c: CurveJet, s: float) -> EquiformData:
    """Evaluate the scale-invariant apparatus at s.

    Needs jets up to order 4 (the torsion rate sees the fourth
    derivative).  Raises where :func:`normal_character` does.  The error
    bounds of finite-difference jets are carried through the float series
    pass, to first order, into ``errors``.
    """
    _needs_order_4(c)
    return _equiform_record(s, c.rows((s,), 1, 4)[0])


def _needs_order_4(c: CurveJet) -> None:
    if c.max_order < 4:
        raise JetOrderError(
            f"equiform apparatus needs order-4 jets, curve carries {c.max_order}")


def _equiform_record(s: float, r: Row) -> EquiformData:
    """:func:`equiform_data` from the row ``r`` of orders 1-4 at s."""
    eps = _character(s, r[0], r[5], r[6])
    return _record(s, eps, *_equiform_of(s, eps, r))


def _record(s: float, eps: int, values: Values, frame: Frame
            ) -> EquiformData:
    """A point of the equiform pass as a record."""
    return EquiformData(s, eps, *values[:5], *_frame_vectors(frame),
                        values[5])


def _equiform_of(s: float, eps: int, r: Row) -> tuple[Values, Frame]:
    """The series values (rho, K, T, dK/ds, dT/ds, errors) and the frame
    at s, from the row ``r`` of orders 1-4 there, once
    :func:`normal_character` has given eps.

    Truncated Taylor arithmetic (Griewank & Walther, *Evaluating
    Derivatives*, ch. 13) written out for the lengths it needs, on the
    (y, z) components of the jets of orders 2-4: the length-3 series of
    w = eps (y''^2 - z''^2) = kappa^2, its square root and the
    reciprocal (rho, K, dK/ds); then the length-2 quotient tau = num/w
    and the product (T, dT/ds) = rho tau.  Each Leibniz sum is one
    ``fsum`` over the terms c * a_i * b_j (an overflow raises there, and
    -0.0 sums to 0.0), and the first-order bounds accumulate term by
    term in the order of ``series._product_bounds`` and
    ``series._recursion_bounds``, so every value, bound and error is
    bit for bit that of the same pass in :class:`~.series.DSeries`.
    The frame is built last, from rho.  ``errors`` is None where the
    jets of orders 2-4 are exact (err 0.0).
    """
    _, ty, tz, _, _, y0, z0, e2, _, y1, z1, e3, _, y2, z2, e4 = r
    try:
        p0 = fsum((y0 * y0,))                          # y''^2
        p1 = fsum((y0 * y1, y1 * y0))
        p2 = fsum((y0 * y2, 2.0 * y1 * y1, y2 * y0))
        q0 = fsum((z0 * z0,))                          # z''^2
        q1 = fsum((z0 * z1, z1 * z0))
        q2 = fsum((z0 * z2, 2.0 * z1 * z1, z2 * z0))
        # normal_character has made w0 = |y''^2 - z''^2| > 0, finite
        w0, w1, w2 = eps * (p0 - q0), eps * (p1 - q1), eps * (p2 - q2)
        k0 = sqrt(w0)                                  # kappa = sqrt(w)
        k1 = w1 / (2.0 * k0)
        k2 = (w2 - fsum((2.0 * k1 * k1,))) / (2.0 * k0)
        r0 = 1.0 / k0                                  # (rho, K, dK/ds)
        r1 = (0.0 - fsum((r0 * k1,))) / k0
        r2 = (0.0 - fsum((r0 * k2, 2.0 * r1 * k1))) / k0
        t0 = (y0 * z1 - y1 * z0) / w0                  # (tau, dtau/ds)
        t1 = (y0 * z2 - y2 * z0 - fsum((t0 * w1,))) / w0
        torsion = fsum((r0 * t0,))                     # (T, dT/ds)
        torsion_rate = fsum((r0 * t1, r1 * t0))

        errors = None
        if e2 or e3 or e4:
            # bounds of w (those of y''^2 plus those of z''^2), kappa,
            # (rho, K, dK/ds), tau and (T, dT/ds), in that order
            ay0, ay1, ay2, az0, az1, az2 = map(abs, (y0, y1, y2, z0, z1, z2))
            we0 = ((0.0 + (ay0 * e2 + e2 * ay0))
                   + (0.0 + (az0 * e2 + e2 * az0)))
            we1 = ((0.0 + (ay0 * e3 + e2 * ay1) + (ay1 * e2 + e3 * ay0))
                   + (0.0 + (az0 * e3 + e2 * az1) + (az1 * e2 + e3 * az0)))
            we2 = ((0.0 + (ay0 * e4 + e2 * ay2) + 2.0 * (ay1 * e3 + e3 * ay1)
                    + (ay2 * e2 + e4 * ay0))
                   + (0.0 + (az0 * e4 + e2 * az2) + 2.0 * (az1 * e3 + e3 * az1)
                      + (az2 * e2 + e4 * az0)))
            g0, g1, g2 = abs(2.0 * k0), abs(2.0 * k1), abs(2.0 * k2)
            ke0 = we0 / g0
            ke1 = (we1 + ke0 * g1) / g0
            ke2 = (we2 + ke0 * g2 + 2.0 * ke1 * g1) / g0
            ak0, ak1, ak2, ar0, ar1 = map(abs, (k0, k1, k2, r0, r1))
            re0 = (0.0 + (0.0 + ar0 * ke0)) / ak0
            re1 = (0.0 + (0.0 + (ar0 * ke1 + 0.0 * ak1)
                          + ar1 * ke0)
                   + re0 * ak1) / ak0
            re2 = (0.0 + (0.0 + (ar0 * ke2 + 0.0 * ak2)
                          + 2.0 * (ar1 * ke1 + 0.0 * ak1)
                          + abs(r2) * ke0)
                   + re0 * ak2 + 2.0 * re1 * ak1) / ak0
            a2 = ay0 + az0
            aw0, aw1, at0, at1 = abs(w0), abs(w1), abs(t0), abs(t1)
            te0 = ((e3 * a2 + e2 * (ay1 + az1))
                   + (0.0 + at0 * we0)) / aw0
            te1 = ((e4 * a2 + e2 * (ay2 + az2))
                   + (0.0 + (at0 * we1 + 0.0 * aw1) + at1 * we0)
                   + te0 * aw1) / aw0
            errors = (re0, re1, 0.0 + (ar0 * te0 + re0 * at0), re2,
                      0.0 + (ar0 * te1 + re0 * at1) + (ar1 * te0 + re1 * at0))

        return ((r0, r1, torsion, r2, torsion_rate, errors),
                _equiform_frame(ty, tz, y0, z0, eps, r0))
    except (ValueError, ArithmeticError) as exc:
        raise _overflow(s, y0, z0, exc)


def _equiform_frame(y1: float, z1: float, y2: float, z2: float, eps: int,
                    rho: float) -> Frame:
    """The tangent, normal and binormal from y', z', y'' and z'', checked
    in that order (``algebra._finite``)."""
    rho2 = rho * rho
    return _finite(rho, rho * y1, rho * z1,
                   0.0, rho2 * y2, rho2 * z2,
                   0.0, eps * rho2 * z2, eps * rho2 * y2)


def _frames_at(s: float, r: Row) -> tuple[int, Frame, Frame]:
    """eps, the Frenet and the equiform frame at a residual neighbour s,
    from the row ``r`` of orders 1-2 there (``frenet._neighbour``).
    rho = 1/kappa is bit for bit entry 0 of the series pass's rho."""
    eps, kappa, fr = _neighbour(s, r)
    y1, z1, _, _, y2, z2 = r[1:7]
    try:
        return eps, fr, _equiform_frame(y1, z1, y2, z2, eps, 1.0 / kappa)
    except (ValueError, ArithmeticError) as exc:
        raise _overflow(s, y2, z2, exc)


def equiform_grid(c: CurveJet, grid: Sequence[float]) -> list[EquiformData]:
    """Evaluate the apparatus over a grid, rejecting normal-character flips.

    A flip of epsilon inside the grid means the curve crossed the light
    cone, where none of the invariants are continuous; such curves are
    inadmissible as a whole.
    """
    return [_record(s, *p) for s, p in zip(grid, _sweep(c, grid, 1)[1])]


def _sweep(c: CurveJet, grid: Sequence[float], first: int
           ) -> tuple[list[Row], list[SweepPoint]]:
    """The one equiform sweep: one row call for the jets of orders
    first..4 at every grid point (``first`` is 1, or 0 to read the
    positions too) and the equiform pass of each point's orders 1-4, in
    grid order, then the flip check; when the row call fails, each point
    is read and tested before the next (``curves.bundle_reader``).
    Returns each point's (x, y, z) of order ``first`` (the position when
    ``first`` is 0) and its (eps, values, frame)."""
    if len(grid) == 0:
        raise EmptyGridError("equiform sweep needs a non-empty grid")
    _needs_order_4(c)
    heads, points = [], []
    read = bundle_reader(c, grid, first, 4)
    skip = 4 * (1 - first)
    for i, s in enumerate(grid):
        r = read(i)
        o = r[skip:] if skip else r
        eps = _character(s, o[0], o[5], o[6])
        heads.append(r[:3])
        points.append((eps, *_equiform_of(s, eps, o)))
    _one_character(grid, [p[0] for p in points])
    return heads, points


def equiform_residual(c: CurveJet, s: float, h: float | None = None) -> float:
    """Sup-norm defect of the scale-invariant frame equations at s.

    Frame sigma-derivatives are formed as rho(s) times a central s
    difference at step h (by default ``c.residual_step``; else finite
    and nonzero, checked before any jet is read) and compared with the
    right-hand sides; the worst component is returned,
    normalized by rho * max(1, |K|, |T|).  At s - h and s + h only the
    frames are built, from the jets of orders 1-2 (:func:`_frames_at`),
    as ``eval`` does off its grid; the data at s need order 4.  Frames
    at s - h and s + h must share the normal character eps, and the
    points are read in the order of :func:`frenet_residual`.
    """
    h = _residual_step(c, h)
    _needs_order_4(c)
    r = c.rows((s,), 1, 4)[0]
    eps = _character(s, r[0], r[5], r[6])
    (rho, K, T, _, _, _), d0 = _equiform_of(s, eps, r)
    em, _, dm = _frames_at(s - h, c.rows((s - h,), 1, 2)[0])
    ep, _, dp = _frames_at(s + h, c.rows((s + h,), 1, 2)[0])
    _stencil_character(s, em, eps, ep)
    return _equiform_residual_of(dm, d0, dp, rho, K, T, h)


def _equiform_residual_of(dm: Frame, d0: Frame, dp: Frame, rho: float,
                          K: float, T: float, h: float) -> float:
    """:func:`equiform_residual` from the equiform frames at s - h, s and
    s + h and rho, K and T at s, once ``frenet._stencil_character`` has
    passed."""
    rhs = (K, 0, 1.0, 3), (K, 3, T, 6), (T, 3, K, 6)    # 1.0*n is n
    return (_frame_defect(dm, d0, dp, rho * 0.5 / h, rhs)
            / (rho * max(1.0, abs(K), abs(T))))


# ---------------------------------------------------------------------------
# classification by constancy of the invariants


# natural-class thresholds, and the fewest points a grid classification reads
TOL_ZERO = 1e-9
TOL_CONST = 1e-6
MIN_GRID_POINTS = 5


class NaturalClassTag(Enum):
    ISOTROPIC_LOG_SPIRAL = "isotropic-logarithmic-spiral"
    CIRCULAR_HELIX = "circular-helix"
    ISOTROPIC_CIRCLE = "isotropic-circle"
    OTHER = "other"


class NaturalClass(NamedTuple):
    """Outcome of the constant-invariant classification over a grid."""

    tag: NaturalClassTag
    curvature_mean: float
    curvature_spread: float
    torsion_mean: float
    torsion_spread: float


def _spread(vals: Sequence[float]) -> float:
    return max(vals) - min(vals)


def _mean(vals: Sequence[float], name: str) -> float:
    """The mean of ``vals``, the ``name`` at each grid point; an
    ``OverflowError`` of the sum says which quantity overflowed."""
    try:
        return fsum(vals) / len(vals)
    except OverflowError as exc:
        raise OverflowError(
            f"the grid mean of the {name} overflows ({exc})") from exc


def _is_zero(vals: Sequence[float], bounds: Sequence[float],
             tol: float) -> bool:
    return all(abs(v) <= max(tol, e) for v, e in zip(vals, bounds))


def _is_const(vals: Sequence[float], tol: float, name: str) -> bool:
    return _spread(vals) <= tol * max(1.0, abs(_mean(vals, name)))


def natural_class(c: CurveJet, grid: Sequence[float],
                  tol_const: float = TOL_CONST,
                  tol_zero: float = TOL_ZERO) -> NaturalClass:
    """Classify a curve by constancy of K and T over the grid.

    Writing "zero" for |value| <= max(tol_zero, its error bound) at every
    grid point (the bound from ``EquiformData.errors``, 0 for exact jets)
    and "constant" for (max - min) <= tol_const * max(1, |mean|):

    * K zero and T zero: isotropic circle (constant classical curvature,
      zero classical torsion).
    * K zero, T constant and nonzero: circular helix (both classical
      invariants constant).
    * K constant nonzero and T zero: isotropic logarithmic spiral.
    * Everything else — including both invariants constant and nonzero —
      is OTHER.

    Needs at least ``MIN_GRID_POINTS`` grid points, checked after the
    sweep.
    """
    return _natural_class_of(_sweep(c, grid, 1)[1], tol_const, tol_zero)


def _natural_class_of(points: Sequence[SweepPoint],
                      tol_const: float = TOL_CONST,
                      tol_zero: float = TOL_ZERO) -> NaturalClass:
    """:func:`natural_class` of an already evaluated grid sweep."""
    if len(points) < MIN_GRID_POINTS:
        raise ValueError("classification needs a grid of at least "
                         f"{MIN_GRID_POINTS} points")
    Ks = [v[1] for _, v, _ in points]
    Ts = [v[2] for _, v, _ in points]
    k_name, t_name = "equiform curvature", "equiform torsion"

    result = NaturalClassTag.OTHER
    if _is_const(Ks, tol_const, k_name) and _is_const(Ts, tol_const, t_name):
        errs = [v[5] or (0.0,) * 5 for _, v, _ in points]
        k_zero = _is_zero(Ks, [e[1] for e in errs], tol_zero)
        t_zero = _is_zero(Ts, [e[2] for e in errs], tol_zero)
        if k_zero and t_zero:
            result = NaturalClassTag.ISOTROPIC_CIRCLE
        elif k_zero:
            result = NaturalClassTag.CIRCULAR_HELIX
        elif t_zero:
            result = NaturalClassTag.ISOTROPIC_LOG_SPIRAL
    return NaturalClass(tag=result,
                        curvature_mean=_mean(Ks, k_name),
                        curvature_spread=_spread(Ks),
                        torsion_mean=_mean(Ts, t_name),
                        torsion_spread=_spread(Ts))
