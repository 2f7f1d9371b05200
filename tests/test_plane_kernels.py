"""The float kernels against their frozen forms.

The AW span cross-check (``aw._plane``, ``aw._residuals``,
``aw._units``), the two frame-equation residuals
(``frenet._frenet_residual_of``, ``equiform._equiform_residual_of``),
the equiform series pass (``equiform._equiform_of``), the mate's normal
series (``bertrand._normal_series``) and the ``eval`` pass
(``cli._eval_rows``, frames as nine floats) work on plain floats.  The
functions below are the ``PGVector``, ``DSeries`` and record forms they
replaced, frozen as they were: every kernel must give their floats bit
for bit, NaN in the same places, and the same error class, message and
cause.  ``ref_equiform_of`` also keeps the public ``DSeries`` error
bounds covered.  Counters pin how few vectors, series and records a CLI
grid point now builds.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
from functools import lru_cache
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import event, given, reject, settings, strategies as st

from pg_curvelab import aw, bertrand, cli
from pg_curvelab.algebra import PGVector, pg_dot
from pg_curvelab.aw import (DerivativeVectors, UnitDirections,
                            derivative_vectors, sigma_rates, unit_directions,
                            vector_identity_residuals)
from pg_curvelab.bertrand import _normal_series, _offset_jets, bertrand_mate
from pg_curvelab.curves import (CurveJet, FDVector, JetKind, bundle_reader,
                                jet_errors, make_lattice_curve,
                                make_sampled_curve)
from pg_curvelab.equiform import (EquiformData, _equiform_record,
                                  _equiform_residual_of, _frames_at,
                                  equiform_data)
from pg_curvelab.errors import (CurveLabError, InadmissibleCurveError,
                                LightlikeNormalError,
                                NumericalInflectionError)
from pg_curvelab.frenet import (FrenetData, _frame_vectors,
                                _frenet_residual_of, _overflow,
                                _stencil_character, frenet_data,
                                normal_character)
from pg_curvelab.series import DSeries
from pg_curvelab.zoo import get_example, zoo_names

settings.register_profile("no_deadline", deadline=None)
settings.load_profile("no_deadline")

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


# --- the frozen record path of eval ----------------------------------------
# Frames as vectors in records, the flip check over records, and the
# helpers the forms above call by their former names.


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
    eps, fr, eq = _frames_at(s, j1, j2)
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
        lambda: aw._residuals(s, *aw._plane(d, res.u, res.v)[1]))
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


def assert_equiform(s: float, *jets: PGVector) -> None:
    """The float pass equals the frozen ``DSeries`` pass on the jets of
    orders 1-4 at s: all 11 fields, or the error."""
    got = outcome(_equiform_record, s, *jets)
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
        assert outcome(_equiform_record, 0.5, *jets) == \
            outcome(ref_equiform_of, 0.5, *jets) == named

    def test_subnormal_term(self):
        # 2 y'''^2 is subnormal: 2.0 * y''' * y''' rounds it once, where
        # 2.0 * (y''' * y''') would round the square first and move
        # dK/ds
        jets = (PGVector(1.0, 0.0, 0.0), PGVector(0.0, 1e-3, 0.0),
                PGVector(0.0, 3.141681643827022e-159, 0.0),
                PGVector(0.0, 0.0, 0.0))
        got = outcome(_equiform_record, 0.5, *jets)
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


def assert_normal_series(jets, s: float) -> None:
    """The float kernel equals the frozen ``DSeries`` form on the base
    jets of orders 2..len(jets)+1: both series, or the error."""
    got = hexes(_normal_series, jets, s)
    event(f"normal series: {hex_kind(got)}")
    assert got == hexes(ref_normal_series, jets, s)


def assert_offset_jets(base: CurveJet, lam: float, s: float, first: int,
                       last: int) -> None:
    """``_offset_jets`` gives the same mate jets or error with the float
    kernel as with the frozen form, its ``_overflow`` and cancellation
    paths included."""
    got = hexes(_offset_jets, base, lam, s, first, last)
    with mock.patch.object(bertrand, "_normal_series", ref_normal_series):
        ref = hexes(_offset_jets, base, lam, s, first, last)
    event(f"offset jets: {hex_kind(got)}")
    assert got == ref


def raw_base(jets) -> CurveJet:
    """A curve on [-2, 2] whose every bundle is a slice of ``jets``, the
    jets of orders 0..8."""
    return CurveJet(None, (-2.0, 2.0), JetKind.ANALYTIC, max_order=8,
                    jets_fn=lambda s, first, last: tuple(jets[first:last + 1]))


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
    and the mate jets of ``_offset_jets`` on raw bases and at flattening
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
        assert hexes(_normal_series, jets, 0.5) == \
            hexes(ref_normal_series, jets, 0.5) == named

    def test_subnormal_square(self):
        # y''^2 is subnormal and admissible: rho^2 = 1/w overflows to
        # inf without an error, in both forms
        jets = [PGVector(0.0, 1.5e-155, 0.0)]
        got = hexes(_normal_series, jets, 0.5)
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
    """Instances of ``cls`` built per grid point of ``cli.main(argv)``,
    curve set-up included: its ``__init__`` calls (``__new__`` for a
    record), and for ``DSeries`` the unchecked ``_of`` too."""
    calls = [0]
    names = (["__init__", "_of"] if cls is DSeries
             else ["__new__"] if issubclass(cls, tuple) else ["__init__"])
    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(mock.patch.object(
                cls, name, counted_method(cls.__dict__[name], calls)))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        assert cli.main(list(argv)) == 0
    return calls[0] / points


def default_grid(name: str) -> tuple[str, str]:
    lo, hi = get_example(name).domain
    return "--grid", f"{lo}:{hi}:101"


class TestVectorsPerPoint:
    """``PGVector`` constructions per grid point of the CLI, curve set-up
    included, on a 101-point grid.  A ``classify`` point builds 7: its 4
    jets and the 3 vectors of its ``EquiformData`` frame.  An ``eval``
    point builds 9: its 5 jets and the 2 jets of each residual neighbour
    off the grid; its frames are floats.  With frames as vectors an
    ``eval`` point built 27, and with vector arithmetic in the kernels
    as well 29.4 per ``classify`` point and 58.4 per ``eval`` point."""

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
