"""The float kernels against their frozen forms.

The AW span cross-check (``aw._plane``, ``aw._residuals``,
``aw._units``), the two frame-equation residuals
(``frenet._frenet_residual_of``, ``equiform._equiform_residual_of``),
the equiform series pass (``equiform._equiform_of``) and the mate's
normal series (``bertrand._normal_series``) work on plain floats.  The
functions below are the ``PGVector`` and ``DSeries`` forms they
replaced, frozen as they were: every kernel must give their floats bit
for bit, NaN in the same places, and the same error class, message and
cause.  ``ref_equiform_of`` also keeps the public ``DSeries`` error
bounds covered.  Counters pin how few vectors and series a CLI grid
point now builds.
"""

from __future__ import annotations

import contextlib
import io
import struct
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import event, given, reject, settings, strategies as st

from pg_curvelab import aw, bertrand, cli
from pg_curvelab.algebra import PGVector, pg_dot
from pg_curvelab.aw import (DerivativeVectors, UnitDirections,
                            derivative_vectors, sigma_rates, unit_directions,
                            vector_identity_residuals)
from pg_curvelab.bertrand import _normal_series, _offset_jets, bertrand_mate
from pg_curvelab.curves import (CurveJet, FDVector, JetKind, jet_errors,
                                make_sampled_curve)
from pg_curvelab.equiform import (EquiformData, _equiform_frame,
                                  _equiform_of, _equiform_residual_of,
                                  _frames_at, equiform_data)
from pg_curvelab.errors import (CurveLabError, LightlikeNormalError,
                               NumericalInflectionError)
from pg_curvelab.frenet import (Frame, FrenetData, _frenet_residual_of,
                                _neighbour, _one_character, _overflow,
                                frenet_data, normal_character)
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
            fm, fp = _neighbour(c, s - h)[0], _neighbour(c, s + h)[0]
            dm, dp = _frames_at(c, s - h)[1], _frames_at(c, s + h)[1]
    except (CurveLabError, ValueError):
        reject()
    ref = ref_vectors(d)
    assert outcome(lambda: derivative_vectors(c, s)) == outcome(lambda: ref)
    res = aw.aw_residuals(d.curvature, d.torsion, *sigma_rates(d))
    classify_path = outcome(
        lambda: aw._residuals(s, *aw._plane(d, res.u, res.v)[1]))
    assert classify_path == outcome(ref_vector_identity_residuals, ref)
    assert_span_kernels(ref)
    assert outcome(_frenet_residual_of, fm, f0, fp, h) == \
        outcome(ref_frenet_residual_of, fm, f0, fp, h)
    assert outcome(_equiform_residual_of, dm, d, dp, h) == \
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
        for new, ref, data in ((_frenet_residual_of, ref_frenet_residual_of,
                                f0),
                               (_equiform_residual_of,
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
                (_frenet_residual_of, ref_frenet_residual_of,
                 (g, f0, f, 0.5), "inf"),
                (_equiform_residual_of, ref_equiform_residual_of,
                 (e, d0, e, 0.5), "inf")):
            assert outcome(new, *args) == outcome(ref, *args) == (
                ValueError, f"PGVector components must be finite, got {named}",
                type(None))


# --- the equiform series pass --------------------------------------------


def assert_equiform(s: float, *jets: PGVector) -> None:
    """The float pass equals the frozen ``DSeries`` pass on the jets of
    orders 1-4 at s: all 11 fields, or the error."""
    got = outcome(_equiform_of, s, *jets)
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
        assert outcome(_equiform_of, 0.5, *jets) == \
            outcome(ref_equiform_of, 0.5, *jets) == named

    def test_subnormal_term(self):
        # 2 y'''^2 is subnormal: 2.0 * y''' * y''' rounds it once, where
        # 2.0 * (y''' * y''') would round the square first and move
        # dK/ds
        jets = (PGVector(1.0, 0.0, 0.0), PGVector(0.0, 1e-3, 0.0),
                PGVector(0.0, 3.141681643827022e-159, 0.0),
                PGVector(0.0, 0.0, 0.0))
        got = outcome(_equiform_of, 0.5, *jets)
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


# --- vectors and series built per grid point -----------------------------


def counted_method(method, calls: list[int]):
    """``method`` (a function or a classmethod) bumping ``calls[0]``."""
    if isinstance(method, classmethod):
        return classmethod(counted_method(method.__func__, calls))

    def counted(*args, **kwargs):
        calls[0] += 1
        return method(*args, **kwargs)

    return counted


def built_per_point(cls, *argv: str, points: int = 101) -> float:
    """Instances of ``cls`` built per grid point of ``cli.main(argv)``,
    curve set-up included: its ``__init__`` calls, and for ``DSeries``
    the unchecked ``_of`` too."""
    calls = [0]
    names = ["__init__", "_of"] if cls is DSeries else ["__init__"]
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
    included, on a 101-point grid.  The vector forms built 29.4 per
    ``classify`` point and 58.4 per ``eval`` point."""

    @pytest.mark.parametrize("name", ["timelike_general_helix",
                                      "timelike_log_spiral",
                                      "bertrand_helix"])
    @pytest.mark.parametrize("command, most", [("classify", 10),
                                               ("eval", 30)])
    def test_vectors_per_point(self, name, command, most):
        n = built_per_point(PGVector, command, "--curve", name,
                            *default_grid(name))
        assert n <= most


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
