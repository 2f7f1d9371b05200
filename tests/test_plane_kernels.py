"""The float kernels against their frozen forms.

The AW span cross-check (``aw._plane``, ``aw._residuals``,
``aw._units``), the two frame-equation residuals
(``frenet._frenet_residual_of``, ``equiform._equiform_residual_of``),
the equiform series pass (``equiform._equiform_of``), the mate's normal
series (``bertrand._normal_series``), the ``eval`` pass
(``cli._eval_rows``, frames as nine floats), and the jets of every tier
with the sweeps that read them (rows of floats, see "the row path"
below) work on plain floats.  The functions below are the ``PGVector``,
``DSeries`` and record forms they replaced, frozen as they were: every
kernel must give their floats bit for bit, NaN in the same places, and
the same error class, message and cause.  ``ref_equiform_of`` also
keeps the public ``DSeries`` error bounds covered.  Counters pin how
few vectors, series and records a CLI grid point now builds.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
from functools import lru_cache
from math import fsum
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import event, given, reject, settings, strategies as st

from pg_curvelab import aw, cli, zoo
from pg_curvelab.algebra import PGVector, SimilarityMotion, pg_dot
from pg_curvelab.aw import (AWReport, AWVerdict, DerivativeVectors,
                            UnitDirections, aw_residuals, classify,
                            derivative_vectors, sigma_rates, unit_directions,
                            vector_identity_residuals)
from pg_curvelab.bertrand import (BertrandNature, BertrandPair,
                                  _normal_series, _offset_rows,
                                  bertrand_mate, verify_bertrand_pair)
from pg_curvelab.curves import (CurveJet, FDVector, JetKind,
                                apply_similarity, make_lattice_curve,
                                make_sampled_curve)
from pg_curvelab.equiform import (MIN_GRID_POINTS, EquiformData,
                                  NaturalClass, NaturalClassTag,
                                  _equiform_record, _equiform_residual_of,
                                  _frames_at, equiform_data, equiform_grid,
                                  natural_class)
from pg_curvelab.errors import (CurveLabError, EmptyGridError,
                                InadmissibleCurveError, JetOrderError,
                                LightlikeNormalError, MateInadmissibleError,
                                NumericalInflectionError)
from pg_curvelab.frenet import (FrenetData, _frame_vectors,
                                _frenet_residual_of, _stencil_character,
                                frenet_data, normal_character)
from pg_curvelab.series import DSeries
from pg_curvelab.zoo import get_example, zoo_names

_OMEGA_FLOOR = 1e-30


# --- the frozen vector forms ----------------------------------------------


def ref_vectors(d: EquiformData) -> DerivativeVectors:
    rho = d.rho
    r2 = rho * rho
    r3 = r2 * rho
    r4 = r3 * rho
    K, Tq = d.curvature, d.torsion
    Kp, Tqp = sigma_rates(d)
    a11 = -K / r3
    a12 = Tq / r3
    a21 = (2.0 * K * K + Tq * Tq - Kp) / r4
    a22 = (Tqp - 3.0 * K * Tq) / r4
    return DerivativeVectors(
        s=d.s, frame=d,
        d2=(1.0 / r2) * d.normal,
        d3=a11 * d.normal + a12 * d.binormal,
        d4=a21 * d.normal + a22 * d.binormal,
        a11=a11, a12=a12, a21=a21, a22=a22)


def ref_unit_directions(dv: DerivativeVectors) -> UnitDirections:
    d2, d3 = dv.d2, dv.d3
    g11 = pg_dot(d2, d2)
    scale = d2.max_abs()
    if scale == 0.0 or abs(g11) <= 1e-14 * scale * scale:
        raise LightlikeNormalError(
            f"second derivative at s={dv.s:.6g} is numerically lightlike; "
            "no unit direction exists")
    q1 = d2 / abs(g11) ** 0.5
    e1 = 1.0 if g11 > 0.0 else -1.0
    w = d3 - (pg_dot(d3, q1) / e1) * q1
    g22 = pg_dot(w, w)
    wscale = w.max_abs()
    if wscale == 0.0 or abs(g22) <= 1e-14 * wscale * wscale:
        return UnitDirections(q1=q1, q2=None)
    return UnitDirections(q1=q1, q2=w / abs(g22) ** 0.5)


def ref_safe_div(num: float, *scales: float) -> float:
    if num == 0.0:
        return 0.0
    return num / max(*scales, _OMEGA_FLOOR)


def ref_vector_identity_residuals(dv: DerivativeVectors) -> dict[str, float]:
    d2, d3, d4 = dv.d2, dv.d3, dv.d4
    out: dict[str, float] = {}
    out["AW1"] = ref_safe_div(d4.max_abs(), d3.max_abs(), d2.max_abs())
    g33 = pg_dot(d3, d3)
    g43 = pg_dot(d4, d3)
    defect = g33 * d4 - g43 * d3
    out["AW2"] = ref_safe_div(defect.max_abs(), abs(g33) * d4.max_abs(),
                              abs(g43) * d3.max_abs())
    g22 = pg_dot(d2, d2)
    g42 = pg_dot(d4, d2)
    defect = g22 * d4 - g42 * d2
    out["AW3"] = ref_safe_div(defect.max_abs(), abs(g22) * d4.max_abs(),
                              abs(g42) * d2.max_abs())
    units = ref_unit_directions(dv)
    if units.q2 is None:
        out["WeakAW2"] = float("nan")
    else:
        q2 = units.q2
        e2 = 1.0 if pg_dot(q2, q2) > 0.0 else -1.0
        defect = d4 - (pg_dot(d4, q2) / e2) * q2
        out["WeakAW2"] = ref_safe_div(defect.max_abs(), d4.max_abs())
    q1 = units.q1
    e1 = 1.0 if pg_dot(q1, q1) > 0.0 else -1.0
    defect = d4 - (pg_dot(d4, q1) / e1) * q1
    out["WeakAW3"] = ref_safe_div(defect.max_abs(), d4.max_abs())
    return out


def ref_frenet_residual_of(fm, f0, fp, h: float) -> float:
    _one_character((fm, f0, fp), f0.s)
    inv = 0.5 / h
    de1 = (fp.tangent - fm.tangent) * inv
    de2 = (fp.normal - fm.normal) * inv
    de3 = (fp.binormal - fm.binormal) * inv
    r1 = (de1 - f0.kappa * f0.normal).max_abs()
    r2 = (de2 - f0.tau * f0.binormal).max_abs()
    r3 = (de3 - f0.tau * f0.normal).max_abs()
    return max(r1, r2, r3) / max(1.0, f0.kappa, abs(f0.tau))


def ref_equiform_residual_of(dm, d0, dp, h: float) -> float:
    _one_character((dm, d0, dp), d0.s)
    scale = d0.rho * 0.5 / h
    dT = (dp.tangent - dm.tangent) * scale
    dN = (dp.normal - dm.normal) * scale
    dB = (dp.binormal - dm.binormal) * scale
    K, T = d0.curvature, d0.torsion
    r1 = (dT - (K * d0.tangent + d0.normal)).max_abs()
    r2 = (dN - (K * d0.normal + T * d0.binormal)).max_abs()
    r3 = (dB - (T * d0.normal + K * d0.binormal)).max_abs()
    return max(r1, r2, r3) / (d0.rho * max(1.0, abs(K), abs(T)))


def ref_equiform_of(s: float, j1: PGVector, j2: PGVector, j3: PGVector,
                    j4: PGVector) -> EquiformData:
    eps = normal_character(s, j1, j2)
    try:
        errs = jet_errors(j2, j3, j4)
        y2 = DSeries((j2.x2, j3.x2, j4.x2), errs)
        z2 = DSeries((j2.x3, j3.x3, j4.x3), errs)
        absw3 = eps * (y2 * y2 - z2 * z2)              # series of kappa^2 > 0
        rho3 = absw3.sqrt().reciprocal()               # (rho, K, dK/ds)
        rho = rho3[0]
        curvature = rho3[1]
        curvature_rate = rho3[2]

        num_errs = None
        if errs is not None:
            e2, e3, e4 = errs
            a2 = abs(j2.x2) + abs(j2.x3)
            num_errs = (e3 * a2 + e2 * (abs(j3.x2) + abs(j3.x3)),
                        e4 * a2 + e2 * (abs(j4.x2) + abs(j4.x3)))
        num2 = DSeries((j2.x2 * j3.x3 - j3.x2 * j2.x3,
                        j2.x2 * j4.x3 - j4.x2 * j2.x3), num_errs)
        tau2 = num2 / absw3.truncate(2)                # (tau, dtau/ds)
        torsion2 = rho3.truncate(2) * tau2             # (T, dT/ds)
        torsion = torsion2[0]
        torsion_rate = torsion2[1]
        errors = None
        if errs is not None:
            errors = (rho3.errs[0], rho3.errs[1], torsion2.errs[0],
                      rho3.errs[2], torsion2.errs[1])

        return EquiformData(s, eps, rho, curvature, torsion, curvature_rate,
                            torsion_rate, *_equiform_frame(j1, j2, eps, rho),
                            errors)
    except (ValueError, ArithmeticError) as exc:
        raise _overflow(s, j2, exc)


def ref_normal_series(jets, s: float) -> tuple[DSeries, DSeries]:
    eps = normal_character(s, None, jets[0])
    y2 = DSeries(j.x2 for j in jets)
    z2 = DSeries(j.x3 for j in jets)
    rho2 = (eps * (y2 * y2 - z2 * z2)).reciprocal()
    return rho2 * y2, rho2 * z2


def ref_offset_jets(base, lam: float, s: float, first: int, last: int):
    """The mate's jets of orders first..last at s as vectors, one base
    bundle and one ``DSeries`` normal series per point."""
    low = min(first, 2)
    jets = base.jets(s, low, last + 2)
    try:
        ny, nz = ref_normal_series(jets[2 - low:], s)
        out = tuple(PGVector(j.x1, j.x2 + lam * ny[k], j.x3 + lam * nz[k])
                    for k, j in enumerate(jets[first - low:last - low + 1],
                                          first))
    except (ValueError, ArithmeticError) as exc:
        raise _overflow(s, jets[2 - low], exc)
    if first <= 2 <= last:      # gamma'' + lam * N'' cancels to round-off
        j, m = jets[2 - low], out[2 - first]
        if (abs(m.x2) <= 8 * math.ulp(abs(j.x2) + abs(lam * ny[2]))
                and abs(m.x3) <= 8 * math.ulp(abs(j.x3) + abs(lam * nz[2]))):
            normal_character(s, None, m)    # an exact zero or lightlike
            raise NumericalInflectionError(
                f"numerically an inflection: the acceleration cancels to "
                f"round-off at s={s:.6g}", param=s)
    return out


# --- the frozen record path of eval ----------------------------------------
# Frames as vectors in records, the flip check over records, and the
# helpers the forms above call by their former names, the vector read
# path (jet error bounds, the overflow rule, the bundle reader and the
# row of vectors) with them.


def jet_errors(*jets):
    errs = tuple(getattr(j, "err", 0.0) for j in jets)
    return errs if any(errs) else None


def _flat(jets):
    """The row of vectors: (x, y, z, err) each, err 0.0 on a PGVector."""
    return [v for j in jets
            for v in (j.x1, j.x2, j.x3, getattr(j, "err", 0.0))]


def _overflow(s, j2, exc):
    if not math.isfinite(j2.x2 * j2.x2 + j2.x3 * j2.x3):
        return exc
    if abs(j2.x2 * j2.x2 - j2.x3 * j2.x3) < 1.0:
        err = NumericalInflectionError(
            f"numerically an inflection: rho = 1/kappa overflows at "
            f"s={s:.6g} ({exc})", param=s)
    else:
        err = type(exc)(f"{exc} at s={s:.6g}")
    err.__cause__ = exc
    return err


def bundle_reader(c, points, first, last):
    try:
        return c.bundles(points, first, last).__getitem__
    except (ArithmeticError, ValueError, CurveLabError):
        return lambda i: c.jets(points[i], first, last)


class Frame(NamedTuple):
    s: float
    epsilon: int
    tangent: PGVector
    normal: PGVector
    binormal: PGVector


def _one_character(datas, stencil_at=None) -> None:
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


def _frenet_frame(j1, j2, eps, kappa):
    return (PGVector(1.0, j1.x2, j1.x3),
            PGVector(0.0, j2.x2 / kappa, j2.x3 / kappa),
            PGVector(0.0, eps * j2.x3 / kappa, eps * j2.x2 / kappa))


def _equiform_frame(j1, j2, eps, rho):
    rho2 = rho * rho
    return (PGVector(rho, rho * j1.x2, rho * j1.x3),
            PGVector(0.0, rho2 * j2.x2, rho2 * j2.x3),
            PGVector(0.0, eps * rho2 * j2.x3, eps * rho2 * j2.x2))


def ref_frenet_of(s, j1, j2, j3) -> FrenetData:
    eps = normal_character(s, j1, j2)
    w = j2.x2 * j2.x2 - j2.x3 * j2.x3
    kappa = math.sqrt(abs(w))
    tau = (j2.x2 * j3.x3 - j3.x2 * j2.x3) / abs(w)
    return FrenetData(s, kappa, tau, eps, *_frenet_frame(j1, j2, eps, kappa))


def ref_neighbour(s, j1, j2):
    eps = normal_character(s, j1, j2)
    kappa = math.sqrt(abs(j2.x2 * j2.x2 - j2.x3 * j2.x3))
    return Frame(s, eps, *_frenet_frame(j1, j2, eps, kappa)), kappa


def ref_frames_at(s, j1, j2):
    fr, kappa = ref_neighbour(s, j1, j2)
    try:
        return fr, Frame(s, fr.epsilon,
                         *_equiform_frame(j1, j2, fr.epsilon, 1.0 / kappa))
    except (ValueError, ArithmeticError) as exc:
        raise _overflow(s, j2, exc)


def ref_eval_rows(res) -> list[list[float]]:
    curve, grid, snap = res.curve, res.grid, res.curve.snap
    h = curve.residual_step
    lo, hi = curve.domain
    pairs = [(snap(s - h), snap(s + h)) if lo <= s - h and s + h <= hi
             else None for s in grid]
    on_grid = {s: i for i, s in enumerate(grid)}
    off_grid = {}
    for pair in filter(None, pairs):
        for t in pair:
            if t not in on_grid:
                off_grid.setdefault(t, len(off_grid))
    at, near = (bundle_reader(curve, grid, 0, 4),
                bundle_reader(curve, list(off_grid), 1, 2))
    records = {}

    def apparatus(s):
        rec = records.get(s)
        if rec is None:
            if s in on_grid:
                p, *jets = at(on_grid[s])
                rec = ref_frenet_of(s, *jets[:3]), ref_equiform_of(s, *jets), p
            else:
                rec = ref_frames_at(s, *near(off_grid[s]))
            records[s] = rec
        return rec

    rows = []
    for s, pair in zip(grid, pairs):
        below = snap(s - h)
        for t in [t for t in records if t < below]:
            del records[t]
        fr, eq, p = apparatus(s)
        if pair:
            (frm, eqm), (frp, eqp) = (apparatus(pair[0])[:2],
                                      apparatus(pair[1])[:2])
            r1 = ref_frenet_residual_of(frm, fr, frp, h)
            r2 = ref_equiform_residual_of(eqm, eq, eqp, h)
        else:
            r1 = r2 = math.nan
        rows.append([
            s, p.x1, p.x2, p.x3, fr.kappa, fr.tau, float(fr.epsilon),
            eq.curvature, eq.torsion,
            *fr.tangent.as_tuple(), *fr.normal.as_tuple(),
            *fr.binormal.as_tuple(), r1, r2,
        ])
    return rows


# --- comparison helpers ----------------------------------------------------


def bits(x: float):
    """The IEEE bit pattern, with every NaN alike."""
    return "nan" if x != x else struct.pack("<d", x)


def field_bits(f):
    """An ``EquiformData`` field as bit patterns: eps and a missing
    ``errors`` as they are, vectors and bounds component by component."""
    if isinstance(f, PGVector):
        return tuple(map(bits, f.as_tuple()))
    if isinstance(f, tuple):
        return tuple(map(bits, f))
    return f if f is None or isinstance(f, int) else bits(f)


def outcome(fn, *args):
    """``fn(*args)`` as bit patterns, or the class, message and cause
    class of what it raised."""
    try:
        out = fn(*args)
    except (CurveLabError, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc), type(exc.__cause__)
    if isinstance(out, EquiformData):
        return tuple(map(field_bits, out))
    if isinstance(out, dict):
        return {k: bits(v) for k, v in out.items()}
    if isinstance(out, UnitDirections):
        return tuple(None if q is None else (q.x1 == 0.0, bits(q.x2),
                                             bits(q.x3)) for q in out)
    if isinstance(out, DerivativeVectors):
        return (bits(out.s), out.frame,
                *((v.x1 == 0.0, bits(v.x2), bits(v.x3))
                  for v in (out.d2, out.d3, out.d4)),
                *map(bits, (out.a11, out.a12, out.a21, out.a22)))
    return bits(out)


def kind(out) -> str:
    """What an outcome is, for the hypothesis statistics."""
    if isinstance(out, tuple) and isinstance(out[0], type):
        named = ": nan" if "got nan" in out[1] else ""
        cause = "" if out[2] is type(None) else f" from {out[2].__name__}"
        return out[0].__name__ + named + cause
    if isinstance(out, tuple) and len(out) == len(EquiformData._fields):
        return "value" + ("" if out[-1] is None else " with bounds")
    if isinstance(out, dict) and out["WeakAW2"] == "nan":
        return "WeakAW2 nan"
    return "value"


def nine(r) -> tuple[float, ...]:
    """The frame of a record as the float kernels take it."""
    return (*r.tangent.as_tuple(), *r.normal.as_tuple(),
            *r.binormal.as_tuple())


def frenet_residual_of(fm, f0, fp, h: float) -> float:
    """The float kernel on the records the frozen form reads, after the
    stencil's flip check, as ``eval`` calls them."""
    _stencil_character(f0.s, fm.epsilon, f0.epsilon, fp.epsilon)
    return _frenet_residual_of(nine(fm), nine(f0), nine(fp), f0.kappa,
                               f0.tau, h)


def equiform_residual_of(dm, d0, dp, h: float) -> float:
    """As :func:`frenet_residual_of`, for the equiform kernel."""
    _stencil_character(d0.s, dm.epsilon, d0.epsilon, dp.epsilon)
    return _equiform_residual_of(nine(dm), nine(d0), nine(dp), d0.rho,
                                 d0.curvature, d0.torsion, h)


def neighbour_frames(s: float, j1: PGVector, j2: PGVector) -> tuple:
    """The Frenet and equiform frames ``eval`` reads at a residual
    neighbour s (``_frames_at``), as records."""
    eps, fr, eq = _frames_at(s, _flat((j1, j2)))
    return tuple(Frame(s, eps, *_frame_vectors(f)) for f in (fr, eq))


def assert_span_kernels(dv: DerivativeVectors) -> None:
    """The public wrappers equal the frozen forms on ``dv``."""
    got = outcome(vector_identity_residuals, dv)
    event(f"cross-check: {kind(got)}")
    assert got == outcome(ref_vector_identity_residuals, dv)
    assert outcome(unit_directions, dv) == outcome(ref_unit_directions, dv)


def assert_point(c, s: float, h: float, full_neighbours: bool) -> None:
    """Every kernel at s equals its frozen form bit for bit: the span
    vectors and the cross-check as ``classify`` runs it, the public
    wrappers, and both residuals with neighbours at s -+ h read as
    ``eval`` reads them (frames only, or full data at grid points)."""
    try:
        d = equiform_data(c, s)
        f0 = frenet_data(c, s)
        if full_neighbours:
            fm, fp = frenet_data(c, s - h), frenet_data(c, s + h)
            dm, dp = equiform_data(c, s - h), equiform_data(c, s + h)
        else:
            fm, dm = neighbour_frames(s - h, *c.jets(s - h, 1, 2))
            fp, dp = neighbour_frames(s + h, *c.jets(s + h, 1, 2))
    except (CurveLabError, ValueError):
        reject()
    ref = ref_vectors(d)
    assert outcome(lambda: derivative_vectors(c, s)) == outcome(lambda: ref)
    res = aw.aw_residuals(d.curvature, d.torsion, *sigma_rates(d))
    classify_path = outcome(
        lambda: aw._residuals(s, *aw._plane(d.rho, d.curvature, d.torsion,
                                            nine(d), res.u, res.v)[1]))
    assert classify_path == outcome(ref_vector_identity_residuals, ref)
    assert_span_kernels(ref)
    assert outcome(frenet_residual_of, fm, f0, fp, h) == \
        outcome(ref_frenet_residual_of, fm, f0, fp, h)
    assert outcome(equiform_residual_of, dm, d, dp, h) == \
        outcome(ref_equiform_residual_of, dm, d, dp, h)


@lru_cache(maxsize=None)
def sampled(name: str):
    """The FD curve of a family at its reference parameters."""
    entry = get_example(name)
    return make_sampled_curve(entry.curve.position, entry.domain, h=1e-3)


steps = st.floats(min_value=1e-6, max_value=1e-2)
fractions = st.floats(min_value=0.0, max_value=1.0)


def inside(c, f: float, h: float) -> float:
    """The point at fraction f of the domain with its stencil inside."""
    lo, hi = c.domain
    return lo + h + f * (hi - lo - 2 * h)


class TestPlaneKernelsBitForBit:
    """Hypothesis draws the seven families on all three jet tiers, a
    point s and a step h; NaN cross-checks (WeakAW2 of the torsion-free
    families) and the degenerate-direction path are among the draws."""

    @given(name=st.sampled_from(zoo_names()), a=st.floats(0.25, 2.0),
           b=st.floats(0.25, 2.0), f=fractions, h=steps,
           full=st.booleans())
    @settings(max_examples=80)
    def test_analytic(self, name, a, b, f, h, full):
        try:
            c = get_example(name, a, b).curve
        except CurveLabError:
            reject()
        assert_point(c, inside(c, f, h), h, full)

    @given(name=st.sampled_from(zoo_names()), f=fractions,
           h=st.floats(min_value=1e-3, max_value=1e-2), full=st.booleans())
    @settings(max_examples=40)
    def test_finite_difference(self, name, f, h, full):
        c = sampled(name)
        assert_point(c, inside(c, f, h), h, full)

    @given(name=st.sampled_from(zoo_names()), a=st.floats(0.25, 2.0),
           b=st.floats(0.25, 2.0), lam=st.floats(-1.0, 1.0), f=fractions,
           h=steps, full=st.booleans())
    @settings(max_examples=40)
    def test_mates(self, name, a, b, lam, f, h, full):
        try:
            c = bertrand_mate(get_example(name, a, b).curve, lam)
        except (CurveLabError, ValueError):
            reject()
        assert_point(c, inside(c, f, h), h, full)


# magnitudes from 1e-200 to 1e200: products and sums overflow, and
# inf * 0 makes NaN, in every kernel
positive = st.builds(lambda m, e: m * 10.0 ** e, st.floats(0.1, 1.0),
                     st.integers(-200, 200))
wide = st.one_of(positive, positive.map(lambda x: -x), st.just(0.0))
plane = st.builds(PGVector, st.just(0.0), wide, wide)
spatial = st.builds(PGVector, wide, wide, wide)
frames = st.builds(Frame, st.just(0.0), st.just(1), spatial, spatial, spatial)


class TestOverflowPaths:
    """Where a vector of the frozen forms would hold a non-finite
    component, the kernels raise its ValueError, naming the same value."""

    @given(d2=plane, d3=plane, d4=plane)
    @settings(max_examples=150)
    def test_span_cross_check(self, d2, d3, d4):
        frame = equiform_data(get_example("bertrand_helix").curve, 0.0)
        assert_span_kernels(DerivativeVectors(0.5, frame, d2, d3, d4,
                                              0.0, 0.0, 0.0, 0.0))

    @given(fm=frames, fp=frames, n=spatial, b=spatial, k=wide, t=wide,
           rho=positive, h=st.one_of(positive, st.just(1e-320)))
    @settings(max_examples=120)
    def test_frame_residuals(self, fm, fp, n, b, k, t, rho, h):
        f0 = FrenetData(0.0, k, t, 1, fp.tangent, n, b)
        d0 = EquiformData(0.0, 1, rho, k, t, 0.0, 0.0, fp.tangent, n, b)
        for new, ref, data in ((frenet_residual_of, ref_frenet_residual_of,
                                f0),
                               (equiform_residual_of,
                                ref_equiform_residual_of, d0)):
            got = outcome(new, fm, data, fp, h)
            event(f"{new.__name__}: {kind(got)}")
            assert got == outcome(ref, fm, data, fp, h)

    def test_named_values(self):
        big, low = PGVector(0.0, 1e200, 0.0), PGVector(0.0, -1e200, 0.0)
        # <d3,d3> overflows: inf * 0 in the x-component of <d3,d3>*d4
        # comes first, so NaN is named
        frame = equiform_data(get_example("bertrand_helix").curve, 0.0)
        dv = DerivativeVectors(0.5, frame, PGVector(0.0, 1.0, 0.5), big,
                               big, 0.0, 0.0, 0.0, 0.0)
        # the difference of the tangents overflows alone: inf
        f = Frame(0.0, 1, PGVector(1.0, 1e308, 0.0), big, big)
        g = Frame(0.0, 1, PGVector(1.0, -1e308, 0.0), big, big)
        f0 = FrenetData(0.0, 1.0, 0.0, 1, f.tangent, big, big)
        # K*N = inf is built before K*N + T*B = inf - inf: inf, not NaN
        d0 = EquiformData(0.0, 1, 1.0, 1e200, 1e200, 0.0, 0.0,
                          PGVector(1e-300, 0.0, 0.0), big, low)
        e = Frame(0.0, 1, d0.tangent, big, low)
        for new, ref, args, named in (
                (vector_identity_residuals, ref_vector_identity_residuals,
                 (dv,), "nan"),
                (frenet_residual_of, ref_frenet_residual_of,
                 (g, f0, f, 0.5), "inf"),
                (equiform_residual_of, ref_equiform_residual_of,
                 (e, d0, e, 0.5), "inf")):
            assert outcome(new, *args) == outcome(ref, *args) == (
                ValueError, f"PGVector components must be finite, got {named}",
                type(None))

    def test_differences_are_checked_first(self):
        # kappa = inf makes kappa * N = (inf * 0, ...) = NaN, but the
        # difference of the tangents, inf, is built before it
        big = PGVector(0.0, 1e200, 0.0)
        f = Frame(0.0, 1, PGVector(1.0, 1e308, 0.0), big, big)
        g = Frame(0.0, 1, PGVector(1.0, -1e308, 0.0), big, big)
        f0 = FrenetData(0.0, math.inf, 0.0, 1, f.tangent, big, big)
        assert outcome(frenet_residual_of, g, f0, f, 0.5) == \
            outcome(ref_frenet_residual_of, g, f0, f, 0.5) == (
                ValueError, "PGVector components must be finite, got inf",
                type(None))

    @pytest.mark.parametrize("em, e0, ep", [
        (em, e0, ep) for em in (1, -1) for e0 in (1, -1) for ep in (1, -1)])
    def test_stencil_characters(self, em, e0, ep):
        # a flip anywhere in the stencil, s itself included, ends both
        # residuals with the flip, naming s
        frame = equiform_data(get_example("bertrand_helix").curve, 0.0)
        f0 = frenet_data(get_example("bertrand_helix").curve, 0.0)
        fm, fp = (Frame(0.0, e, f0.tangent, f0.normal, f0.binormal)
                  for e in (em, ep))
        dm, dp = (Frame(0.0, e, frame.tangent, frame.normal, frame.binormal)
                  for e in (em, ep))
        f0, d0 = f0._replace(epsilon=e0), frame._replace(epsilon=e0)
        for new, ref, args in (
                (frenet_residual_of, ref_frenet_residual_of,
                 (fm, f0, fp, 0.5)),
                (equiform_residual_of, ref_equiform_residual_of,
                 (dm, d0, dp, 0.5))):
            got = outcome(new, *args)
            assert got == outcome(ref, *args)
            assert (got[0] is InadmissibleCurveError) is not (em == e0 == ep)


# --- the equiform series pass --------------------------------------------


def equiform_record(s: float, *jets: PGVector) -> EquiformData:
    """``_equiform_record`` of the row of the jets of orders 1-4 at s."""
    return _equiform_record(s, _flat(jets))


def assert_equiform(s: float, *jets: PGVector) -> None:
    """The float pass equals the frozen ``DSeries`` pass on the jets of
    orders 1-4 at s: all 11 fields, or the error."""
    got = outcome(equiform_record, s, *jets)
    event(f"equiform: {kind(got)}")
    assert got == outcome(ref_equiform_of, s, *jets)


def near(e: int):
    return st.builds(lambda m: m * 10.0 ** e, st.floats(0.1, 10.0))


def signed(*magnitudes):
    return st.builds(lambda m, neg: -m if neg else m,
                     st.one_of(*magnitudes), st.booleans())


def raw_jets(component):
    return st.one_of(
        st.builds(PGVector, st.just(0.0), component, component),
        st.builds(FDVector, st.just(0.0), component, component,
                  st.sampled_from([0.0, 1e-300, 1e-8])))


# signed zeros, subnormals, and magnitudes whose squares underflow
# (1e-154) or overflow (1e154, 1e300) among moderate ones; the second
# derivative mostly admissible, so that the pass itself runs
moderate = st.floats(0.01, 100.0)
component = signed(st.just(0.0), st.floats(5e-324, 2.2e-308), near(-154),
                   moderate, near(10), near(154), near(300))
leading = signed(st.just(0.0), near(-160), moderate, near(10), near(150))


def jets_at(c, f: float):
    """The jets of orders 1-4 at fraction f of the domain of c."""
    s = inside(c, f, 0.0)
    try:
        return (s, *c.jets(s, 1, 4))
    except (CurveLabError, ValueError):
        reject()


class TestEquiformPassBitForBit:
    """Hypothesis draws the jets of orders 1-4 on all three tiers, and
    raw jets with and without error bounds, where overflowed squares,
    inflections and numerical inflections are among the draws.  Named
    jets pin an overflow inside an ``fsum``, inf - inf in one and a
    non-finite frame."""

    @given(name=st.sampled_from(zoo_names()), a=st.floats(0.25, 2.0),
           b=st.floats(0.25, 2.0), f=fractions)
    @settings(max_examples=80)
    def test_analytic(self, name, a, b, f):
        try:
            c = get_example(name, a, b).curve
        except CurveLabError:
            reject()
        assert_equiform(*jets_at(c, f))

    @given(name=st.sampled_from(zoo_names()), f=fractions)
    @settings(max_examples=40)
    def test_finite_difference(self, name, f):
        assert_equiform(*jets_at(sampled(name), f))

    @given(name=st.sampled_from(zoo_names()), a=st.floats(0.25, 2.0),
           b=st.floats(0.25, 2.0), lam=st.floats(-1.0, 1.0), f=fractions)
    @settings(max_examples=40)
    def test_mates(self, name, a, b, lam, f):
        try:
            c = bertrand_mate(get_example(name, a, b).curve, lam)
        except (CurveLabError, ValueError):
            reject()
        assert_equiform(*jets_at(c, f))

    @given(s=st.floats(-2.0, 2.0), y1=component, z1=component,
           j2=raw_jets(leading), j3=raw_jets(component),
           j4=raw_jets(component))
    @settings(max_examples=400)
    def test_raw_jets(self, s, y1, z1, j2, j3, j4):
        assert_equiform(s, PGVector(1.0, y1, z1), j2, j3, j4)

    @pytest.mark.parametrize("y, named", [
        ((1.0, 1e308, 0.0), (OverflowError,
                             "intermediate overflow in fsum at s=0.5",
                             OverflowError)),
        ((1e10, 1e200, -1e300), (ValueError, "-inf + inf in fsum at s=0.5",
                                 ValueError)),
        ((1e-160, 0.0, 0.0), (NumericalInflectionError,
                              "numerically an inflection: rho = 1/kappa "
                              "overflows at s=0.5 (PGVector components "
                              "must be finite, got inf)", ValueError))])
    def test_named_errors(self, y, named):
        jets = [PGVector(1.0, 0.0, 0.0)] + [FDVector(0.0, v, 0.0, 1e-8)
                                            for v in y]
        assert outcome(equiform_record, 0.5, *jets) == \
            outcome(ref_equiform_of, 0.5, *jets) == named

    @given(s=st.floats(-2.0, 2.0), y1=component, z1=component,
           j2=raw_jets(leading))
    @settings(max_examples=100)
    def test_neighbour_frames(self, s, y1, z1, j2):
        # the frames at a residual neighbour, where rho * y' or rho^2 y''
        # overflows among the draws
        j1 = PGVector(1.0, y1, z1)
        assert row_outcome(neighbour_frames, s, j1, j2) == \
            row_outcome(ref_frames_at, s, j1, j2)

    def test_subnormal_term(self):
        # 2 y'''^2 is subnormal: 2.0 * y''' * y''' rounds it once, where
        # 2.0 * (y''' * y''') would round the square first and move
        # dK/ds
        jets = (PGVector(1.0, 0.0, 0.0), PGVector(0.0, 1e-3, 0.0),
                PGVector(0.0, 3.141681643827022e-159, 0.0),
                PGVector(0.0, 0.0, 0.0))
        got = outcome(equiform_record, 0.5, *jets)
        assert kind(got) == "value"
        assert got == outcome(ref_equiform_of, 0.5, *jets)


# --- the mate's normal series ----------------------------------------------


def hexes(fn, *args):
    """``fn(*args)``, a pair of series or a tuple of vectors, as
    ``float.hex`` strings (so signed zeros count), or the class, message
    and cause class of what it raised."""
    try:
        out = fn(*args)
    except (CurveLabError, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc), type(exc.__cause__)
    if isinstance(out[0], PGVector):
        return tuple(tuple(map(float.hex, v.as_tuple())) for v in out)
    return tuple(tuple(map(float.hex, series)) for series in out)


def hex_kind(out) -> str:
    """What a ``hexes`` outcome is, for the hypothesis statistics."""
    return out[0].__name__ if isinstance(out[0], type) else "value"


def normal_series(jets, s: float):
    """``_normal_series`` of the y and z components of ``jets``."""
    return _normal_series([j.x2 for j in jets], [j.x3 for j in jets], s)


def assert_normal_series(jets, s: float) -> None:
    """The float kernel equals the frozen ``DSeries`` form on the base
    jets of orders 2..len(jets)+1: both series, or the error."""
    got = hexes(normal_series, jets, s)
    event(f"normal series: {hex_kind(got)}")
    assert got == hexes(ref_normal_series, jets, s)


def offset_jets(base: CurveJet, lam: float, s: float, first: int,
                last: int) -> tuple[PGVector, ...]:
    """The mate row of ``_offset_rows`` at s, as vectors."""
    row = _offset_rows(base, lam, [s], first, last)[0]
    return tuple(PGVector(*row[i:i + 3]) for i in range(0, len(row), 4))


def assert_offset_jets(base: CurveJet, lam: float, s: float, first: int,
                       last: int) -> None:
    """The mate rows of ``_offset_rows`` give the same mate jets or error
    as the frozen vector form with its ``DSeries`` series, the
    ``_overflow`` and cancellation paths included."""
    got = hexes(offset_jets, base, lam, s, first, last)
    event(f"offset jets: {hex_kind(got)}")
    assert got == hexes(ref_offset_jets, base, lam, s, first, last)


def raw_base(jets) -> CurveJet:
    """A curve on [-2, 2] whose jet of order k is ``jets[k]``, k = 0..8."""
    return CurveJet(lambda s, k: jets[k], (-2.0, 2.0), JetKind.ANALYTIC,
                    max_order=8)


lengths = st.integers(1, 7)
# the second derivative: zero (an inflection), subnormal, underflowing
# and overflowing squares, and moderate values
acceleration = signed(st.just(0.0), st.floats(5e-324, 2.2e-308),
                      near(-160), near(-154), moderate, near(10), near(150),
                      near(154))


class TestNormalSeriesBitForBit:
    """Hypothesis draws the base jets of series lengths 1-7 on the seven
    families and of lengths 1-5 on the FD tier, raw jets with signed
    zeros, subnormals and magnitudes whose squares underflow or overflow,
    and the mate rows of ``_offset_rows`` on raw bases and at flattening
    offsets.  Outputs are compared by ``float.hex``, errors by class,
    message and cause."""

    @given(name=st.sampled_from(zoo_names()), a=st.floats(0.25, 2.0),
           b=st.floats(0.25, 2.0), f=fractions, n=lengths)
    @settings(max_examples=100)
    def test_analytic(self, name, a, b, f, n):
        try:
            c = get_example(name, a, b).curve
        except CurveLabError:
            reject()
        s = inside(c, f, 0.0)
        assert_normal_series(c.jets(s, 2, n + 1), s)

    @given(name=st.sampled_from(zoo_names()), f=fractions,
           n=st.integers(1, 5))
    @settings(max_examples=40)
    def test_finite_difference(self, name, f, n):
        c = sampled(name)
        s = inside(c, f, 0.0)
        assert_normal_series(c.jets(s, 2, n + 1), s)

    @given(s=st.floats(-2.0, 2.0), n=lengths, j2=raw_jets(acceleration),
           rest=st.lists(raw_jets(component), min_size=6, max_size=6))
    @settings(max_examples=500)
    def test_raw_jets(self, s, n, j2, rest):
        assert_normal_series([j2, *rest][:n], s)

    @given(s=st.floats(-2.0, 2.0),
           lam=signed(moderate, near(10), near(150), near(300)),
           j2=raw_jets(acceleration),
           rest=st.lists(raw_jets(component), min_size=6, max_size=6),
           first=st.integers(0, 6), span=st.integers(0, 6))
    @settings(max_examples=300)
    def test_offset_jets(self, s, lam, j2, rest, first, span):
        jets = [PGVector(s, 0.0, 0.0), PGVector(1.0, 0.0, 0.0), j2, *rest]
        assert_offset_jets(raw_base(jets), lam, s, first,
                           min(first + span, 6))

    @given(a=st.floats(0.1, 3.0), b=st.floats(0.1, 3.0),
           s=st.floats(-1.0, 1.0), last=st.integers(2, 6))
    @settings(max_examples=60)
    def test_flattening_offsets(self, a, b, s, last):
        # lam = -a^2/b^2 cancels the helix's acceleration to an exact
        # zero or a round-off residue, an inflection either way
        base = get_example("bertrand_helix", a, b).curve
        assert_offset_jets(base, -(a * a) / (b * b), s, 0, last)

    @pytest.mark.parametrize("ys, zs, named", [
        # entry 1 of y''^2, y'' y''' + y''' y'', overflows inside its
        # fsum, whose terms are finite
        ((2.0, 8e307), (1.0, 0.0),
         (OverflowError, "intermediate overflow in fsum", type(None))),
        # +inf and -inf terms in entry 3 of y''^2
        ((-10.0, 1e200, 0.0, 1e308), (1.0, 0.0, 0.0, 0.0),
         (ValueError, "-inf + inf in fsum", type(None))),
        # the first fsum to fail in the order of the stages: an entry of
        # y''^2 (-inf + inf), not the earlier entry of rho^2 y'' that an
        # order-by-order pass would reach first (intermediate overflow)
        ((53.10030847559971, -86.12591844466527, -7.483106568839778e+154,
          63.376913769453296, 3.559555875028168e+250, -25.94249197028176),
         (-38.922372534564325, 89893007992.07391, 63337860510.176834,
          8.478053859350798e+300, -6.881821070522389e+154,
          5.95805039425329e-309),
         (ValueError, "-inf + inf in fsum", type(None))),
    ])
    def test_named_errors(self, ys, zs, named):
        jets = [PGVector(0.0, y, z) for y, z in zip(ys, zs)]
        assert hexes(normal_series, jets, 0.5) == \
            hexes(ref_normal_series, jets, 0.5) == named

    def test_subnormal_square(self):
        # y''^2 is subnormal and admissible: rho^2 = 1/w overflows to
        # inf without an error, in both forms
        jets = [PGVector(0.0, 1.5e-155, 0.0)]
        got = hexes(normal_series, jets, 0.5)
        assert got == hexes(ref_normal_series, jets, 0.5) == (("inf",),
                                                              ("nan",))


# --- the eval pass ---------------------------------------------------------


def eval_outcome(rows_fn, res):
    """``rows_fn(res)`` as ``float.hex`` strings, or the class and message
    of what it raised and of its cause."""
    try:
        rows = rows_fn(res)
    except (CurveLabError, ValueError, ArithmeticError) as exc:
        cause = exc.__cause__
        return type(exc), str(exc), type(cause), str(cause)
    return [[float.hex(v) for v in row] for row in rows]


def assert_eval_rows(curve: CurveJet, grid: list[float]) -> None:
    """``cli._eval_rows`` equals the frozen record path on ``grid``: every
    row, or the error."""
    res = cli._Resolved(curve=curve, label="", params={}, grid=grid)
    got = eval_outcome(cli._eval_rows, res)
    event(f"eval: {'rows' if isinstance(got, list) else got[0].__name__}")
    assert got == eval_outcome(ref_eval_rows, res)


def stepped_grid(start: float, step: float, count: int) -> list[float]:
    """``count`` points from start, each the last plus ``step``: with the
    residual step, s + h is the next grid point exactly."""
    grid = [start]
    for _ in range(count - 1):
        grid.append(grid[-1] + step)
    return grid


@lru_cache(maxsize=None)
def lattice(kind: str) -> CurveJet:
    """A dyadic, a non-dyadic, an x-shifted and a far-from-0 lattice, and
    one that crosses the light cone at s = 1."""
    if kind == "far":
        s0, d = 17412.45260415335, 0.9196491627865294
        return make_lattice_curve(
            (s, s, (s - s0) ** 2 / 2e3, (s - s0) ** 3 / 6e7)
            for s in (s0 + i * d for i in range(942)))
    if kind == "cone":
        return make_lattice_curve(
            (s, s, s ** 3 / 6.0, 0.5 * s * s)
            for s in (0.25 + i * 2.0 ** -7 for i in range(225)))
    helix = get_example("bertrand_helix", 1.0, 1.0).curve
    spacing, count = (2.0 ** -7, 257) if kind == "dyadic" else (0.01, 201)
    dx = 0.25 if kind == "shifted" else 0.0
    return make_lattice_curve(
        (s, p.x1 + dx, p.x2, p.x3)
        for s, p in ((s, helix.jet(s, 0))
                     for s in (-1.0 + i * spacing for i in range(count))))


def overflow_boundary(c: CurveJet) -> float:
    """Where ``equiform_data`` of c starts to raise on its domain, to
    1e-9: a grid point just below it has a neighbour beyond it."""
    lo, hi = c.domain
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        try:
            equiform_data(c, mid)
            lo = mid
        except (CurveLabError, ValueError, ArithmeticError):
            hi = mid
    return hi


class TestEvalRowsBitForBit:
    """``cli._eval_rows`` reads frames as nine floats; the frozen
    ``ref_eval_rows`` built them as vectors in records.  Rows are compared
    by ``float.hex``, errors by class, message and cause.  Hypothesis
    draws the seven families at their reference and at extreme
    parameters, lattices, grids whose spacing is the residual step h and
    grids whose spacing is not, overflows at a neighbour and light-cone
    crossings inside a stencil."""

    @given(name=st.sampled_from(zoo_names()),
           a=st.one_of(st.none(), positive), b=st.one_of(st.none(), positive),
           count=st.integers(2, 21), f=fractions, stepped=st.booleans())
    @settings(max_examples=120)
    def test_families(self, name, a, b, count, f, stepped):
        try:
            c = get_example(name, a, b).curve
            lo, hi = c.domain
            grid = (stepped_grid(inside(c, f, count * 1e-4), 1e-4, count)
                    if stepped else c.grid(lo, hi, count))
        except (CurveLabError, ValueError, ArithmeticError):
            reject()
        assert_eval_rows(c, grid)

    @given(a=st.floats(200.0, 1000.0), k=st.integers(-3, 2),
           stepped=st.booleans())
    @settings(max_examples=30)
    def test_neighbour_overflow(self, a, k, stepped):
        # kappa = e^(-a s): rho^2 overflows beyond a boundary inside the
        # domain, so the point k h/2 from it, or the step-h grid around
        # it, reads a neighbour frame or a grid point that overflows
        c = get_example("timelike_general_helix", a, 1.0).curve
        s = overflow_boundary(c) + 0.5 * k * 1e-4
        assert_eval_rows(c, stepped_grid(s - 2e-4, 1e-4, 5) if stepped
                         else [s])

    @given(kind=st.sampled_from(["dyadic", "nondyadic", "shifted", "far",
                                 "cone"]),
           f=fractions, count=st.integers(1, 12), m=st.integers(1, 3))
    @settings(max_examples=40)
    def test_lattices(self, kind, f, count, m):
        # grid spacing m lattice spacings: the residual step h is 2
        # spacings, so m = 2 puts every neighbour on the grid, m = 1 puts
        # them two points away and m = 3 off the grid
        c = lattice(kind)
        lo, hi = c.domain
        spacing = c.nodes[1]
        span = (count - 1) * m * spacing
        start = c.snap(lo + f * (hi - lo - span))
        grid = c.grid(start, start + span, count) if count > 1 else [start]
        assert_eval_rows(c, grid)

    @given(offset=st.floats(-4e-4, 4e-4), count=st.integers(1, 6),
           stepped=st.booleans())
    @settings(max_examples=40)
    def test_light_cone_in_the_stencil(self, light_cone_crossing_curve,
                                       offset, count, stepped):
        # eps flips at s = 1; h = 1e-4
        s = 1.0 + offset
        grid = (stepped_grid(s, 1e-4, count) if stepped
                else [s + 7e-5 * i for i in range(count)])
        assert_eval_rows(light_cone_crossing_curve, grid)

    @given(i=st.integers(-5, 3), count=st.integers(1, 4), m=st.integers(1, 3))
    @settings(max_examples=25)
    def test_light_cone_on_a_lattice(self, i, count, m):
        # the lattice of the same curve, spacing 2^-7 and h = 2^-6
        c = lattice("cone")
        spacing = c.nodes[1]
        start = c.snap(1.0 + i * spacing)
        stop = start + (count - 1) * m * spacing
        assert_eval_rows(c, c.grid(start, stop, count) if count > 1
                         else [start])


# --- vectors and series built per grid point -----------------------------


def counted_method(method, calls: list[int]):
    """``method`` (a function, a classmethod or a staticmethod) bumping
    ``calls[0]``."""
    if isinstance(method, (classmethod, staticmethod)):
        return type(method)(counted_method(method.__func__, calls))

    def counted(*args, **kwargs):
        calls[0] += 1
        return method(*args, **kwargs)

    return counted


def built_per_point(cls, *argv: str, points: int = 101) -> float:
    """Instances of ``cls`` (a class or a tuple of classes) built per grid
    point of ``cli.main(argv)``, curve set-up included: its ``__init__``
    calls (``__new__`` for a record), and for ``DSeries`` the unchecked
    ``_of`` too."""
    calls = [0]
    with contextlib.ExitStack() as stack:
        for c in cls if isinstance(cls, tuple) else (cls,):
            names = (["__init__", "_of"] if c is DSeries
                     else ["__new__"] if issubclass(c, tuple)
                     else ["__init__"])
            for name in names:
                stack.enter_context(mock.patch.object(
                    c, name, counted_method(c.__dict__[name], calls)))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        assert cli.main(list(argv)) == 0
    return calls[0] / points


def default_grid(name: str) -> tuple[str, str]:
    lo, hi = get_example(name).domain
    return "--grid", f"{lo}:{hi}:101"


class TestVectorsPerPoint:
    """``PGVector`` constructions (``FDVector`` ones included) per grid
    point of the CLI, curve set-up included, on a 101-point grid.  Every
    tier serves rows of floats and the sweeps read them, so no
    ``classify``, ``eval`` or ``bertrand`` point builds a vector or a
    ``FrenetData`` or ``EquiformData`` record, on closed forms, on a
    lattice, and for a mate, whose five-point probe reads rows too.
    With jets as vectors a ``classify`` point built 7 (its 4 jets and 3
    frame vectors), an ``eval`` point 9 and a ``bertrand`` point 24.5
    vectors and 2 ``EquiformData`` records; with frames as vectors an
    ``eval`` point built 27, and with vector arithmetic in the kernels
    as well 29.4 per ``classify`` point and 58.4 per ``eval`` point.
    ``test_vectors_per_point`` keeps the ceilings of the vector path, so
    that its ids stay."""

    @pytest.mark.parametrize("name", ["timelike_general_helix",
                                      "timelike_log_spiral",
                                      "bertrand_helix"])
    @pytest.mark.parametrize("command, most", [("classify", 10),
                                               ("eval", 9)])
    def test_vectors_per_point(self, name, command, most):
        n = built_per_point(PGVector, command, "--curve", name,
                            *default_grid(name))
        assert n <= most

    @pytest.mark.parametrize("name", ["timelike_general_helix",
                                      "bertrand_helix"])
    @pytest.mark.parametrize("cls", [FrenetData, EquiformData])
    def test_no_records_per_eval_point(self, name, cls):
        # the frames are tuples of nine floats: the library has no frame
        # record left to count
        assert built_per_point(cls, "eval", "--curve", name,
                               *default_grid(name)) == 0

    @pytest.mark.parametrize("argv", [
        *[(command, "--curve", name)
          for command in ("classify", "eval")
          for name in ("timelike_general_helix", "timelike_log_spiral",
                       "bertrand_helix")],
        ("bertrand", "--curve", "bertrand_helix", "--lambda", "0.3"),
        ("bertrand", "--curve", "isotropic_circle", "--lambda", "0.5"),
        ("bertrand", "--curve", "timelike_general_helix", "--lambda", "0.3"),
        ("classify", "--input"), ("eval", "--input")],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
    def test_no_vectors_or_records(self, argv, helix_lattice):
        if argv[1] == "--input":
            argv += (helix_lattice, "--grid", "-0.8:0.8:101")
        else:
            argv += default_grid(argv[2])
        assert built_per_point((PGVector, FrenetData, EquiformData),
                               *argv) == 0


@pytest.fixture(scope="module")
def helix_lattice(tmp_path_factory) -> str:
    """The a = b = 1 Bertrand helix sampled at 129 rows on [-1, 1]."""
    c = get_example("bertrand_helix", 1.0, 1.0).curve
    path = tmp_path_factory.mktemp("lattice") / "helix.csv"
    rows = ["s,x,y,z"]
    for i in range(129):
        s = -1.0 + i * 2.0 ** -6
        p = c.jet(s, 0)
        rows.append(f"{s:.17g},{p.x1:.17g},{p.x2:.17g},{p.x3:.17g}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestSeriesPerPoint:
    """``DSeries`` constructions per grid point of the CLI on a 101-point
    grid: none.  The series form of the equiform pass built 14 per point
    of each sweep, and that of the mate's normal 10.5 per ``bertrand``
    point, which sweeps base and mate: 38.5 in all."""

    @pytest.mark.parametrize("name", ["timelike_general_helix",
                                      "timelike_log_spiral",
                                      "bertrand_helix"])
    @pytest.mark.parametrize("command", ["classify", "eval"])
    def test_curve(self, name, command):
        assert built_per_point(DSeries, command, "--curve", name,
                               *default_grid(name)) == 0

    @pytest.mark.parametrize("command", ["classify", "eval"])
    def test_lattice(self, command, helix_lattice):
        assert built_per_point(DSeries, command, "--input", helix_lattice,
                               "--grid", "-0.8:0.8:101") == 0

    def test_bertrand_lattice(self, helix_lattice):
        assert built_per_point(DSeries, "bertrand", "--input", helix_lattice,
                               "--lambda", "0.3",
                               "--grid", "-0.8:0.8:101") == 0

    @pytest.mark.parametrize("name, lam", [("bertrand_helix", "0.3"),
                                           ("isotropic_circle", "0.5"),
                                           ("timelike_general_helix", "0.3")])
    def test_bertrand(self, name, lam):
        assert built_per_point(DSeries, "bertrand", "--curve", name,
                               "--lambda", lam, *default_grid(name)) == 0


# --- the row path -----------------------------------------------------------
# Every tier serves rows (``CurveJet.rows``: x, y, z and err of each
# order, flat floats) and the sweeps read floats: ``equiform._sweep``,
# ``aw._classify_of``, ``equiform._natural_class_of``,
# ``verify_bertrand_pair`` and the mate's ``bertrand._offset_rows``.
# Below is the path they replaced, frozen: the seven closed forms as
# vector bundles, the mate's vector offset (``ref_offset_jets``), the
# similarity image of vectors, and the sweep over ``EquiformData``
# records (``ref_equiform_of``) with the classification, the natural
# class and the pair verification read from records.  An FD curve's
# twin reads its vector ``jets``, which ``tests/test_fd_batch.py``
# fuzzes against the frozen per-point FD tier.  The one intended
# difference: an overflowing grid mean names its quantity
# (``ref_mean``).


class RefCurve:
    """A curve of the frozen path: ``jets(s, first, last)`` checks the
    orders and the domain as ``CurveJet`` does, then reads the vector
    bundle ``fn(s, first, last)``; ``snap`` is its twin's."""

    def __init__(self, fn, twin, max_order=None):
        self.fn, self.domain, self.kind = fn, twin.domain, twin.kind
        self.snap = twin.snap
        self.max_order = twin.max_order if max_order is None else max_order

    def jets(self, s, first, last):
        if first > last:
            raise JetOrderError(f"empty order range {first}..{last}")
        if first < 0 or last > self.max_order:
            order = first if first < 0 else last
            raise JetOrderError(
                f"order {order} not available (curve carries orders "
                f"0..{self.max_order})")
        lo, hi = self.domain
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if not lo - slack <= s <= hi + slack:
            raise ValueError(f"parameter {s} outside domain [{lo}, {hi}]")
        return self.fn(s, first, last)


def ref_naming_s(jets_fn):
    def jets(s, first, last):
        try:
            return jets_fn(s, first, last)
        except (ArithmeticError, ValueError) as exc:
            raise type(exc)(f"{exc} at s={s:.6g}") from exc
    return jets


def ref_family_jets(name, a, b):
    """The closed form of a family as a vector bundle; the coefficient
    tables are the catalogue's own."""
    mirrored = name.startswith("spacelike")
    if "general_helix" in name:
        d = (a * a - b * b) ** 2
        ycoef = zoo._exp_helix_tables(a, b, (a * a + b * b) / d,
                                      2.0 * a * b / d)
        zcoef = zoo._exp_helix_tables(a, b, 2.0 * a * b / d,
                                      (a * a + b * b) / d)
        if mirrored:
            ycoef, zcoef = zcoef, ycoef

        def jets(s, first, last):
            e = math.exp(-a * s)
            ch = math.cosh(b * s)
            sh = math.sinh(b * s)
            out = []
            for k in range(first, last + 1):
                py, qy = ycoef[k]
                pz, qz = zcoef[k]
                out.append(PGVector(s if k == 0 else (1.0 if k == 1 else 0.0),
                                    e * (py * ch + qy * sh),
                                    e * (pz * ch + qz * sh)))
            return tuple(out)
    elif "circular_helix" in name:
        c = a ** 3 / (b * (b * b - a * a))
        ycoef = zoo._log_helix_tables(a, b, -a * c, b * c)
        zcoef = zoo._log_helix_tables(a, b, b * c, -a * c)
        if mirrored:
            ycoef, zcoef = zcoef, ycoef

        def jets(s, first, last):
            u = (b / a) * math.log(a * s)
            ch, sh = math.cosh(u), math.sinh(u)
            out = []
            for k in range(first, last + 1):
                m, py, qy = ycoef[k]
                _, pz, qz = zcoef[k]
                sc = s ** (-m)
                out.append(PGVector(s if k == 0 else (1.0 if k == 1 else 0.0),
                                    sc * (py * ch + qy * sh),
                                    sc * (pz * ch + qz * sh)))
            return tuple(out)
    elif name == "timelike_log_spiral":
        def jets(s, first, last):
            g = a * s + b
            out = []
            for k in range(first, last + 1):
                if k == 0:
                    out.append(PGVector(s, g / (a * a) * (math.log(g) - 1.0),
                                        0.0))
                elif k == 1:
                    out.append(PGVector(1.0, math.log(g) / a, 0.0))
                else:
                    out.append(PGVector(0.0, (-1.0) ** k
                                        * math.factorial(k - 2)
                                        * a ** (k - 2) / g ** (k - 1), 0.0))
            return tuple(out)
    elif name == "bertrand_helix":
        def jets(s, first, last):
            ch, sh = math.cosh(b * s), math.sinh(b * s)
            out = []
            for k in range(first, last + 1):
                try:
                    amp = a * b ** (k - 2)
                except OverflowError:       # the amplitude names its order
                    raise OverflowError(
                        f"the order-{k} amplitude a*b^(k-2) = {a:g}*{b:g}^"
                        f"{k - 2} overflows") from None
                even = k % 2 == 0
                out.append(PGVector(s if k == 0 else (1.0 if k == 1 else 0.0),
                                    amp * (ch if even else sh),
                                    amp * (sh if even else ch)))
            return tuple(out)
    else:
        def jets(s, first, last):
            return tuple(PGVector(s, 0.5 * a * s * s, 0.0) if k == 0 else
                         PGVector(1.0, a * s, 0.0) if k == 1 else
                         PGVector(0.0, a if k == 2 else 0.0, 0.0)
                         for k in range(first, last + 1))
    return jets


def catalogue(name, a=None, b=None):
    """A family's curve and its frozen twin, or a rejected draw."""
    try:
        entry = get_example(name, a, b)
    except CurveLabError:
        reject()
    a, b = (entry.params.get("a"), entry.params.get("b", 1.0))
    return entry.curve, RefCurve(ref_naming_s(ref_family_jets(name, a, b)),
                                 entry.curve)


def ref_mate_of(base, lam):
    """The mate of a frozen curve, vector jets from ``ref_offset_jets``,
    probed at five points as ``bertrand_mate`` probes it."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"offset must be finite, got {lam}")
    if base.max_order < 6:
        raise JetOrderError(f"a mate needs base jets of order 6, the base "
                            f"carries {base.max_order}")
    mate = RefCurve(lambda s, first, last: ref_offset_jets(base, lam, s,
                                                           first, last),
                    base, min(base.max_order, 8) - 2)
    lo, hi = mate.domain
    for f in (0.1, 0.3, 0.5, 0.7, 0.9):
        s = mate.snap(lo + f * (hi - lo))
        try:
            ref_frenet_of(s, *mate.jets(s, 1, 3))
        except InadmissibleCurveError as exc:
            raise MateInadmissibleError(
                f"offset {lam:g} produces an inadmissible mate: {exc}",
                param=getattr(exc, "param", None)) from exc
    return mate


def ref_similarity(c, m, twin):
    """The similarity image of a frozen curve, vector by vector; ``twin``
    is the image under test."""
    a, b = m.a, m.b
    rch = m.r * math.cosh(m.theta)
    rsh = m.r * math.sinh(m.theta)
    row_sum = max(abs(b), max(abs(m.d), abs(m.f))
                  + abs(m.r) * math.exp(abs(m.theta)))

    def image(k, j):
        q = b ** k
        x = b * j.x1 / q
        y = (m.d * j.x1 + rch * j.x2 + rsh * j.x3) / q
        z = (m.f * j.x1 + rsh * j.x2 + rch * j.x3) / q
        if k == 0:
            return PGVector(a + x, m.c + y, m.e + z)
        if isinstance(j, FDVector):
            return FDVector(x, y, z, j.err * row_sum / abs(q))
        return PGVector(x, y, z)

    def jets(t, first, last):
        return tuple(image(k, j) for k, j in
                     enumerate(c.jets((t - a) / b, first, last), first))

    return RefCurve(jets, twin)


# --- the frozen consumers: records ------------------------------------------


def ref_sweep(c, grid, first):
    """The equiform sweep point by point: the order-``first`` jets and
    the ``EquiformData`` records, then the flip check."""
    if len(grid) == 0:
        raise EmptyGridError("equiform sweep needs a non-empty grid")
    if c.max_order < 4:
        raise JetOrderError(
            f"equiform apparatus needs order-4 jets, curve carries "
            f"{c.max_order}")
    heads, datas = [], []
    for s in grid:
        jets = c.jets(s, first, 4)
        heads.append(jets[0])
        datas.append(ref_equiform_of(s, *jets[-4:]))
    _one_character(datas)
    return heads, datas


def ref_plane(d, u, v):
    rho = d.rho
    r2 = rho * rho
    r3 = r2 * rho
    r4 = r3 * rho
    if r4 == 0.0:
        raise ValueError(f"the span coefficients divide by rho^4, which "
                         f"underflows to 0 (rho = {rho:.6g})")
    a = (-d.curvature / r3, d.torsion / r3, u / r4, v / r4)
    n, b, c = d.normal, d.binormal, 1.0 / r2
    return a, ((c * n).as_tuple()[1:]
               + aw._lin(a[0], n.x2, n.x3, a[1], b.x2, b.x3)
               + aw._lin(a[2], n.x2, n.x3, a[3], b.x2, b.x3))


def ref_classify_of(datas, kind, tol=None, notes=()):
    if tol is None:
        tol = kind.tolerance
    names = ("AW1", "AW2", "AW3", "WeakAW2", "WeakAW3")
    sup = {name: 0.0 for name in names}
    degenerate, limited, diagnostics = [], [], list(notes)
    mismatches = 0
    for d in datas:
        s = d.s
        Kp, Tqp = aw.sigma_rates(d)
        try:
            res = aw_residuals(d.curvature, d.torsion, Kp, Tqp,
                               aw.omega_resolution(d))
            vectors = (None if res.resolution_limited
                       else aw._residuals(s, *ref_plane(d, res.u, res.v)[1]))
        except (ValueError, ArithmeticError) as exc:
            # the overflow rule names s, and omega or the coefficients
            raise aw._span_error(s, d.rho, d.curvature, d.torsion, Kp, Tqp,
                                 exc) from exc
        scalars = res.as_dict()
        for name in names:
            sup[name] = max(sup[name], scalars[name])
        if vectors is None:
            limited.append(s)
            continue
        for name in names:
            rv = vectors[name]
            if rv != rv:
                continue
            if (scalars[name] <= tol) != (rv <= tol) and mismatches < 5:
                diagnostics.append(
                    f"{name} at s={s:.6g}: scalar residual "
                    f"{scalars[name]:.3e} and vector residual {rv:.3e} "
                    f"fall on opposite sides of tol={tol:.1e}")
                mismatches += 1
        if vectors["WeakAW2"] != vectors["WeakAW2"]:
            degenerate.append(s)
    verdicts = {name: AWVerdict(sup[name] <= tol, sup[name], len(datas))
                for name in names}
    return AWReport(verdicts, tol, tuple(degenerate), tuple(diagnostics),
                    tuple(limited))


def ref_mean(vals, name):
    try:
        return fsum(vals) / len(vals)
    except OverflowError as exc:
        raise OverflowError(
            f"the grid mean of the {name} overflows ({exc})") from exc


def ref_is_const(vals, tol, name):
    return max(vals) - min(vals) <= tol * max(1.0, abs(ref_mean(vals, name)))


def ref_natural_class_of(datas, tol_const=1e-6, tol_zero=1e-9):
    if len(datas) < MIN_GRID_POINTS:
        raise ValueError("classification needs a grid of at least "
                         f"{MIN_GRID_POINTS} points")
    Ks = [d.curvature for d in datas]
    Ts = [d.torsion for d in datas]
    k_name, t_name = "equiform curvature", "equiform torsion"
    result = NaturalClassTag.OTHER
    if ref_is_const(Ks, tol_const, k_name) and ref_is_const(Ts, tol_const,
                                                            t_name):
        errs = [d.errors or (0.0,) * 5 for d in datas]
        k_zero = all(abs(v) <= max(tol_zero, e[1]) for v, e in zip(Ks, errs))
        t_zero = all(abs(v) <= max(tol_zero, e[2]) for v, e in zip(Ts, errs))
        if k_zero and t_zero:
            result = NaturalClassTag.ISOTROPIC_CIRCLE
        elif k_zero:
            result = NaturalClassTag.CIRCULAR_HELIX
        elif t_zero:
            result = NaturalClassTag.ISOTROPIC_LOG_SPIRAL
    return NaturalClass(result, ref_mean(Ks, k_name), max(Ks) - min(Ks),
                        ref_mean(Ts, t_name), max(Ts) - min(Ts))


def ref_verify(base, mate, lam, grid, tol=None):
    if len(grid) < MIN_GRID_POINTS:
        raise ValueError("verification needs a grid of at least "
                         f"{MIN_GRID_POINTS} points")
    if tol is None:
        tol = max(base.kind.tolerance, mate.kind.tolerance)
    claimed = [float(lam)] * len(grid)
    xb, db = ref_sweep(base, grid, 0)
    xm, dm = ref_sweep(mate, grid, 0)
    flat_sup = max(max(abs(d.curvature) for d in db),
                   max(abs(d.curvature) for d in dm))
    par_sup = 0.0
    recovered, products = [], []
    for b, m, pb, pm in zip(db, dm, xb, xm):
        nb, nm = b.normal, m.normal
        det2 = nb.x2 * nm.x3 - nb.x3 * nm.x2
        norms = math.hypot(nb.x2, nb.x3) * math.hypot(nm.x2, nm.x3)
        par_sup = max(par_sup, abs(det2) / norms if norms else math.inf)
        o = pm - pb
        nn = nb.x2 * nb.x2 + nb.x3 * nb.x3
        recovered.append((o.x2 * nb.x2 + o.x3 * nb.x3) / nn)
        products.append(pg_dot(m.tangent, b.tangent))
    lam_mean = ref_mean(recovered, "recovered offset")
    lam_scale = max(1.0, abs(lam_mean))
    prod_spread = max(products) - min(products)
    failures = []
    if flat_sup > tol:
        failures.append(
            f"equiform curvature reaches {flat_sup:.3e}; offset mates "
            "exist only over curves of constant classical curvature")
    if par_sup > tol:
        failures.append(
            f"scale-invariant normals deviate from parallel by {par_sup:.3e}")
    if not ref_is_const(recovered, tol, "recovered offset"):
        failures.append(
            f"recovered offset varies by "
            f"{max(recovered) - min(recovered):.3e} over the grid")
    if not ref_is_const(claimed, tol, "claimed offset"):
        failures.append("claimed offset is not constant over the grid")
    if max(abs(r - c) for r, c in zip(recovered, claimed)) > tol * lam_scale:
        failures.append(
            f"claimed offset differs from the recovered {lam_mean:.6g}")
    if not ref_is_const(products, tol, "tangent scalar product"):
        failures.append(
            f"tangent scalar product varies by {prod_spread:.3e} over the "
            "grid")
    tag = ref_natural_class_of(db).tag
    nature = (BertrandNature.CIRCULAR_HELIX
              if tag is NaturalClassTag.CIRCULAR_HELIX else
              BertrandNature.ISOTROPIC_CIRCLE
              if tag is NaturalClassTag.ISOTROPIC_CIRCLE else
              BertrandNature.NOT_BERTRAND)
    return BertrandPair(base, mate, lam_mean, not failures, nature, par_sup,
                        prod_spread, flat_sup,
                        max(recovered) - min(recovered), tuple(failures))


# --- comparison --------------------------------------------------------------


def hexed(v):
    """``v`` with every float as ``float.hex`` (NaNs alike), vectors as
    their class, components and ``err``; curves dropped."""
    if isinstance(v, float):
        return "nan" if v != v else v.hex()
    if isinstance(v, PGVector):
        return (type(v).__name__, *map(hexed, v.as_tuple()),
                hexed(getattr(v, "err", 0.0)))
    if isinstance(v, (CurveJet, RefCurve)):
        return "curve"
    if isinstance(v, dict):
        return {k: hexed(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return tuple(map(hexed, v))
    return v


def row_outcome(fn, *args):
    """``fn(*args)`` hexed, or the class and message of what it raised
    and of its cause."""
    try:
        return hexed(fn(*args))
    except (CurveLabError, ValueError, ArithmeticError) as exc:
        cause = exc.__cause__
        return type(exc), str(exc), type(cause), str(cause)


def row_kind(out) -> str:
    """"value", or the class of what an outcome raised."""
    return out[0].__name__ if isinstance(out[0], type) else "value"


def assert_jets(c, ref, grid, last):
    """Every point's bundle of orders 0..last, through the row call and
    one point at a time."""
    want = [row_outcome(ref.jets, s, 0, last) for s in grid]
    assert [row_outcome(c.jets, s, 0, last) for s in grid] == want
    got = row_outcome(c.bundles, grid, 0, last)
    if all(row_kind(w) == "value" for w in want):
        assert got == tuple(want)
    else:
        assert row_kind(got) != "value", "a failing point fails the call"


def assert_sweeps(c, ref, grid):
    """The public records and both classifications of one grid."""
    assert row_outcome(equiform_grid, c, grid) == \
        row_outcome(lambda: ref_sweep(ref, grid, 1)[1])
    assert row_outcome(classify, c, grid) == row_outcome(
        lambda: ref_classify_of(ref_sweep(ref, grid, 1)[1], ref.kind))
    assert row_outcome(natural_class, c, grid) == row_outcome(
        lambda: ref_natural_class_of(ref_sweep(ref, grid, 1)[1]))


def assert_pair(base, ref_base, lam, grid):
    """The mate's construction, its jets, and the pair verification."""
    got = row_outcome(bertrand_mate, base, lam)
    assert got == row_outcome(ref_mate_of, ref_base, lam)
    if row_kind(got) != "value":
        return
    mate, ref_mate = bertrand_mate(base, lam), ref_mate_of(ref_base, lam)
    assert_jets(mate, ref_mate, grid[::4], mate.max_order)
    assert row_outcome(verify_bertrand_pair, base, mate, lam, grid) == \
        row_outcome(ref_verify, ref_base, ref_mate, lam, grid)


def family_grid(c, count, f=0.0, g=1.0):
    """``count`` points over the fraction [f, g] of the domain of c, the
    stop 1e-12 of the domain inside it: start + (count - 1) * step may
    round past the stop."""
    lo, hi = c.domain
    return c.grid(lo + f * (hi - lo), lo + (g - 1e-12) * (hi - lo), count)


# magnitudes from 1e-200 to 1e200, of either sign
extreme = st.one_of(st.none(), positive, positive.map(lambda x: -x))


class TestRowPathCatalogue:
    """The seven families at their reference parameters and at (a, b)
    from 1e-200 to 1e200: jets, sweeps, classifications and mates."""

    @pytest.mark.parametrize("name", zoo_names())
    def test_reference_parameters(self, name):
        c, ref = catalogue(name)
        grid = family_grid(c, 21)
        assert_jets(c, ref, grid, 8)
        assert_sweeps(c, ref, grid)
        assert_pair(c, ref, 0.3, family_grid(c, 9, 0.1, 0.9))

    @given(name=st.sampled_from(zoo_names()), a=extreme, b=extreme,
           count=st.integers(5, 13), lam=st.floats(-2.0, 2.0))
    @settings(max_examples=100)
    def test_extreme_parameters(self, name, a, b, count, lam):
        c, ref = catalogue(name, a, b)
        grid = family_grid(c, count)
        assert_jets(c, ref, grid[::3], 8)
        assert_sweeps(c, ref, grid)
        assert_pair(c, ref, lam, grid)

    def test_orders_filled_before_an_error_are_checked_first(self):
        # a = b = 1e200 at s = 0: order 3 is (0, inf * 0, inf), a NaN,
        # before b ** 2 of order 4 overflows
        c, ref = catalogue("bertrand_helix", 1e200, 1e200)
        got = row_outcome(c.jets, 0.0, 0, 8)
        assert got == row_outcome(ref.jets, 0.0, 0, 8)
        assert got[:2] == (ValueError, "PGVector components must be "
                                       "finite, got nan at s=0")


class TestRowPathMates:
    """Offsets near the flattening one, 1 + lam T^2 = 0, and at +-1e300;
    mates of a 257-row lattice and of a non-dyadic 2001-row one."""

    @given(a=st.floats(0.1, 3.0), b=st.floats(0.1, 3.0),
           k=st.integers(-12, -1), sign=st.sampled_from((-1.0, 0.0, 1.0)))
    @settings(max_examples=40)
    def test_near_flattening(self, a, b, k, sign):
        c, ref = catalogue("bertrand_helix", a, b)
        lam = -(a * a) / (b * b) * (1.0 + sign * 10.0 ** k)
        assert_pair(c, ref, lam, family_grid(c, 9))

    @pytest.mark.parametrize("name", ["bertrand_helix", "isotropic_circle",
                                      "timelike_general_helix"])
    @pytest.mark.parametrize("lam", [1e300, -1e300, 1e308])
    def test_huge_offsets(self, name, lam):
        c, ref = catalogue(name)
        assert_pair(c, ref, lam, family_grid(c, 11))

    @pytest.mark.parametrize("rows, spacing", [(257, 2.0 ** -7),
                                               (2001, 0.001)])
    @pytest.mark.parametrize("lam", [0.3, -0.7])
    def test_lattice_mates(self, rows, spacing, lam):
        c, ref = sampled_lattice(rows, spacing)
        lo, hi = c.domain
        assert_pair(c, ref, lam, c.grid(lo, hi, 21))


@lru_cache(maxsize=None)
def sampled_lattice(rows, spacing):
    """The a = b = 1 Bertrand helix sampled at ``rows`` rows from -1, and
    its twin."""
    helix = get_example("bertrand_helix").curve
    samples = [(s, *helix.position(s).as_tuple())
               for s in (-1.0 + i * spacing for i in range(rows))]
    c = make_lattice_curve(samples)
    return c, RefCurve(c.jets, c)


MOTIONS = st.builds(SimilarityMotion, a=st.floats(-2.0, 2.0),
                    b=st.sampled_from([0.5, -1.5, 2.0, 1e-3]),
                    c=st.floats(-1.0, 1.0), d=st.floats(-1.0, 1.0),
                    e=st.floats(-1.0, 1.0), f=st.floats(-1.0, 1.0),
                    r=st.sampled_from([1.0, -0.5, 3.0, 1e150]),
                    theta=st.floats(-2.0, 2.0))


class TestRowPathImages:
    """Similarity images of FD curves, a lattice and a position
    function: rows map with their error bounds."""

    @given(m=MOTIONS, on_lattice=st.booleans(), count=st.integers(5, 9))
    @settings(max_examples=25)
    def test_images(self, m, on_lattice, count):
        if on_lattice:
            c, ref = sampled_lattice(257, 2.0 ** -7)
        else:
            c, ref = sampled_helix()
        image = apply_similarity(c, m)
        ref_image = ref_similarity(ref, m, image)
        grid = family_grid(image, count, 0.05, 0.95)
        assert_jets(image, ref_image, grid[::2], 6)
        assert_sweeps(image, ref_image, grid)


@lru_cache(maxsize=None)
def sampled_helix():
    """The general helix rebuilt by finite differences from its position
    function at h = 1e-3, and its twin."""
    position = get_example("timelike_general_helix").curve.position
    domain = (0.1, 1.9)
    c = make_sampled_curve(position, domain, h=1e-3)
    return c, RefCurve(c.jets, c)
