"""The plane-float kernels against their frozen PGVector forms.

The AW span cross-check (``aw._plane``, ``aw._residuals``,
``aw._units``) and the two frame-equation residuals
(``frenet._frenet_residual_of``, ``equiform._equiform_residual_of``)
work on plain floats.  The functions below are the vector forms they
replaced, frozen as they were: every kernel must give their floats bit
for bit, NaN in the same places, and the same error class and message.
A counter pins how few vectors a CLI grid point now builds.
"""

from __future__ import annotations

import contextlib
import io
import struct
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import event, given, reject, settings, strategies as st

from pg_curvelab import aw, cli
from pg_curvelab.algebra import PGVector, pg_dot
from pg_curvelab.aw import (DerivativeVectors, UnitDirections,
                            derivative_vectors, sigma_rates, unit_directions,
                            vector_identity_residuals)
from pg_curvelab.bertrand import bertrand_mate
from pg_curvelab.curves import make_sampled_curve
from pg_curvelab.equiform import (EquiformData, _equiform_residual_of,
                                  _frames_at, equiform_data)
from pg_curvelab.errors import CurveLabError, LightlikeNormalError
from pg_curvelab.frenet import (Frame, FrenetData, _frenet_residual_of,
                                _neighbour, _one_character, frenet_data)
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


# --- comparison helpers ----------------------------------------------------


def bits(x: float):
    """The IEEE bit pattern, with every NaN alike."""
    return "nan" if x != x else struct.pack("<d", x)


def outcome(fn, *args):
    """``fn(*args)`` as bit patterns, or the class and message it raised."""
    try:
        out = fn(*args)
    except (CurveLabError, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
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
        return out[0].__name__ + (": nan" if "got nan" in out[1] else "")
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
                ValueError, f"PGVector components must be finite, got {named}")


# --- vectors built per grid point ----------------------------------------


def vectors_per_point(*argv: str, points: int) -> float:
    calls = [0]
    init = PGVector.__init__

    def counted(self, *args):
        calls[0] += 1
        init(self, *args)

    with mock.patch.object(PGVector, "__init__", counted), \
            contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return calls[0] / points


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
        lo, hi = get_example(name).domain
        n = vectors_per_point(command, "--curve", name,
                              "--grid", f"{lo}:{hi}:101", points=101)
        assert n <= most
