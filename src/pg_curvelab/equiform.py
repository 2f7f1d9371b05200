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

The kernels pass the frame as nine floats (``frenet.Frame``), each
finite, checked in the order of its components (``algebra._finite``):
``_equiform_of`` gives the series values and the frame at a point,
``_frames_at`` the Frenet and equiform frames at a residual neighbour
and ``_equiform_residual_of`` reads the frames at s - h, s and s + h.
:func:`equiform_data` and the grid sweep wrap the same pass into
:class:`EquiformData` records.
"""

from __future__ import annotations

from math import fsum, sqrt
from enum import Enum
from typing import NamedTuple, Sequence

from .algebra import PGVector, _finite
from .curves import CurveJet, bundle_reader, jet_errors
from .errors import EmptyGridError, JetOrderError
from .frenet import (Frame, _frame_defect, _frame_vectors, _neighbour,
                     _one_character, _overflow, _residual_step,
                     _stencil_character, normal_character)


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
    return _equiform_record(s, *c.jets(s, 1, 4))


def _needs_order_4(c: CurveJet) -> None:
    if c.max_order < 4:
        raise JetOrderError(
            f"equiform apparatus needs order-4 jets, curve carries {c.max_order}")


def _equiform_record(s: float, j1: PGVector, j2: PGVector, j3: PGVector,
                     j4: PGVector) -> EquiformData:
    """:func:`equiform_data` from the jets of orders 1-4 at s."""
    eps = normal_character(s, j1, j2)
    (rho, K, T, K1, T1, errors), frame = _equiform_of(s, eps, j1, j2, j3, j4)
    return EquiformData(s, eps, rho, K, T, K1, T1, *_frame_vectors(frame),
                        errors)


def _equiform_of(s: float, eps: int, j1: PGVector, j2: PGVector,
                 j3: PGVector, j4: PGVector) -> tuple[tuple, Frame]:
    """The series values (rho, K, T, dK/ds, dT/ds, errors) and the frame
    at s, from the jets of orders 1-4 there, once
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
    The frame is built last, from rho.
    """
    try:
        errs = jet_errors(j2, j3, j4)
        y0, y1, y2 = j2.x2, j3.x2, j4.x2
        z0, z1, z2 = j2.x3, j3.x3, j4.x3
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
        if errs is not None:
            # bounds of w (those of y''^2 plus those of z''^2), kappa,
            # (rho, K, dK/ds), tau and (T, dT/ds), in that order
            e2, e3, e4 = errs
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
                _equiform_frame(j1, j2, eps, r0))
    except (ValueError, ArithmeticError) as exc:
        raise _overflow(s, j2, exc)


def _equiform_frame(j1: PGVector, j2: PGVector, eps: int, rho: float
                    ) -> Frame:
    """The tangent, normal and binormal from the jets of orders 1-2,
    checked in that order (``algebra._finite``)."""
    rho2 = rho * rho
    return _finite(rho, rho * j1.x2, rho * j1.x3,
                   0.0, rho2 * j2.x2, rho2 * j2.x3,
                   0.0, eps * rho2 * j2.x3, eps * rho2 * j2.x2)


def _frames_at(s: float, j1: PGVector, j2: PGVector
               ) -> tuple[int, Frame, Frame]:
    """eps, the Frenet and the equiform frame at a residual neighbour s,
    from the jets of orders 1-2 there (``frenet._neighbour``).
    rho = 1/kappa is bit for bit entry 0 of the series pass's rho."""
    eps, kappa, fr = _neighbour(s, j1, j2)
    try:
        return eps, fr, _equiform_frame(j1, j2, eps, 1.0 / kappa)
    except (ValueError, ArithmeticError) as exc:
        raise _overflow(s, j2, exc)


def equiform_grid(c: CurveJet, grid: Sequence[float]) -> list[EquiformData]:
    """Evaluate the apparatus over a grid, rejecting normal-character flips.

    A flip of epsilon inside the grid means the curve crossed the light
    cone, where none of the invariants are continuous; such curves are
    inadmissible as a whole.
    """
    return _sweep(c, grid, 1)[1]


def _sweep(c: CurveJet, grid: Sequence[float], first: int
           ) -> tuple[list[PGVector], list[EquiformData]]:
    """The one equiform sweep: one grid call for the jets of orders
    first..4 at every grid point (``first`` is 1, or 0 to read the
    positions too) and the equiform data of each point's orders 1-4, in
    grid order, then the flip check; when the grid call fails, each point
    is read and tested before the next (``curves.bundle_reader``).
    Returns the order-``first`` jets (the positions when ``first`` is 0)
    and the data."""
    if len(grid) == 0:
        raise EmptyGridError("equiform sweep needs a non-empty grid")
    _needs_order_4(c)
    heads, datas = [], []
    read = bundle_reader(c, grid, first, 4)
    for i, s in enumerate(grid):
        jets = read(i)
        heads.append(jets[0])
        datas.append(_equiform_record(s, *jets[-4:]))
    _one_character(datas)
    return heads, datas


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
    j1, j2, j3, j4 = c.jets(s, 1, 4)
    eps = normal_character(s, j1, j2)
    (rho, K, T, _, _, _), d0 = _equiform_of(s, eps, j1, j2, j3, j4)
    em, _, dm = _frames_at(s - h, *c.jets(s - h, 1, 2))
    ep, _, dp = _frames_at(s + h, *c.jets(s + h, 1, 2))
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


def _mean(vals: Sequence[float]) -> float:
    return fsum(vals) / len(vals)


def _is_zero(vals: Sequence[float], bounds: Sequence[float],
             tol: float) -> bool:
    return all(abs(v) <= max(tol, e) for v, e in zip(vals, bounds))


def _is_const(vals: Sequence[float], tol: float) -> bool:
    return _spread(vals) <= tol * max(1.0, abs(_mean(vals)))


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
    return _natural_class_of(equiform_grid(c, grid), tol_const, tol_zero)


def _natural_class_of(datas: Sequence[EquiformData],
                      tol_const: float = TOL_CONST,
                      tol_zero: float = TOL_ZERO) -> NaturalClass:
    """:func:`natural_class` of an already evaluated grid sweep."""
    if len(datas) < MIN_GRID_POINTS:
        raise ValueError("classification needs a grid of at least "
                         f"{MIN_GRID_POINTS} points")
    Ks = [d.curvature for d in datas]
    Ts = [d.torsion for d in datas]

    result = NaturalClassTag.OTHER
    if _is_const(Ks, tol_const) and _is_const(Ts, tol_const):
        errs = [d.errors or (0.0,) * 5 for d in datas]
        k_zero = _is_zero(Ks, [e[1] for e in errs], tol_zero)
        t_zero = _is_zero(Ts, [e[2] for e in errs], tol_zero)
        if k_zero and t_zero:
            result = NaturalClassTag.ISOTROPIC_CIRCLE
        elif k_zero:
            result = NaturalClassTag.CIRCULAR_HELIX
        elif t_zero:
            result = NaturalClassTag.ISOTROPIC_LOG_SPIRAL
    return NaturalClass(tag=result,
                        curvature_mean=_mean(Ks),
                        curvature_spread=_spread(Ks),
                        torsion_mean=_mean(Ts),
                        torsion_spread=_spread(Ts))
