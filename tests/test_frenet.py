"""Classical curvature, torsion, frame and the frame-ODE residual."""

from __future__ import annotations

import math

import pytest

from pg_curvelab.algebra import PGVector, det3
from pg_curvelab.curves import CurveJet, JetKind, make_analytic_curve
from pg_curvelab.equiform import equiform_residual
from pg_curvelab.errors import InadmissibleCurveError
from pg_curvelab.frenet import (frenet_data, frenet_residual,
                                normal_character)


def tuple_approx(v, expected, **kw):
    assert v.as_tuple() == pytest.approx(expected, **kw)


class TestFrenetData:
    def test_general_helix_at_origin(self, general_helix):
        f = frenet_data(general_helix.curve, 0.0)
        assert f.kappa == pytest.approx(1.0, rel=1e-12)
        assert f.tau == pytest.approx(2.0, rel=1e-12)
        assert f.epsilon == 1
        tuple_approx(f.tangent, (1.0, 1.0 / 3.0, 2.0 / 3.0), abs=1e-14)
        tuple_approx(f.normal, (0.0, 1.0, 0.0), abs=1e-14)
        tuple_approx(f.binormal, (0.0, 0.0, 1.0), abs=1e-14)

    def test_general_helix_interior_point(self, general_helix):
        f = frenet_data(general_helix.curve, 0.75)
        assert f.kappa == pytest.approx(math.exp(-0.75), rel=1e-12)
        assert f.tau == pytest.approx(2.0, rel=1e-12)
        tuple_approx(f.normal,
                     (0.0, 2.3524096152432468, 2.1292794550948164),
                     rel=1e-12)

    def test_mirrored_helix_swaps_normal_character(self, mirrored_helix):
        f = frenet_data(mirrored_helix.curve, 0.0)
        assert f.kappa == pytest.approx(1.0, rel=1e-12)
        assert f.tau == pytest.approx(-2.0, rel=1e-12)
        assert f.epsilon == -1

    def test_circular_helix_at_one(self, circular_helix):
        f = frenet_data(circular_helix.curve, 1.0)
        assert f.kappa == pytest.approx(1.0, rel=1e-14)
        assert f.tau == pytest.approx(-2.0, rel=1e-14)
        assert f.epsilon == -1
        tuple_approx(f.normal, (0.0, 0.0, 1.0), abs=1e-15)
        tuple_approx(f.binormal, (0.0, -1.0, 0.0), abs=1e-15)

    def test_planar_spiral_exact_values(self, log_spiral):
        f = frenet_data(log_spiral.curve, 1.0)
        assert f.kappa == 0.5
        assert f.tau == 0.0
        assert f.epsilon == 1
        assert f.tangent.as_tuple() == (1.0, math.log(2.0), 0.0)

    def test_frame_determinant_is_plus_one(self, general_helix, circular_helix):
        for entry, s in ((general_helix, 0.75), (circular_helix, 2.2)):
            f = frenet_data(entry.curve, s)
            assert det3(f.tangent, f.normal, f.binormal) == pytest.approx(
                1.0, abs=1e-12)

    def test_rejects_non_arclength_parametrization(self):
        c = CurveJet(
            lambda s, k: (PGVector(2 * s, 0.5 * s * s, 0.0), PGVector(2.0, s, 0.0),
                          PGVector(0.0, 1.0, 0.0), PGVector(0.0, 0.0, 0.0),
                          PGVector(0.0, 0.0, 0.0))[k],
            (0.0, 1.0), JetKind.ANALYTIC)
        with pytest.raises(InadmissibleCurveError, match="arc-length"):
            frenet_data(c, 0.5)

    def test_rejects_inflection_point(self):
        c = make_analytic_curve(
            lambda s: PGVector(s, s ** 3 / 6.0, 0.0),
            lambda s: PGVector(1.0, 0.5 * s * s, 0.0),
            lambda s: PGVector(0.0, s, 0.0),
            lambda s: PGVector(0.0, 1.0, 0.0),
            lambda s: PGVector(0.0, 0.0, 0.0),
            domain=(-1.0, 1.0))
        with pytest.raises(InadmissibleCurveError, match="inflection"):
            frenet_data(c, 0.0)
        f = frenet_data(c, 0.5)           # away from the inflection: fine
        assert f.kappa == 0.5
        assert f.tau == 0.0

    def test_rejects_lightlike_acceleration(self):
        c = make_analytic_curve(
            *([lambda s: PGVector(s, math.exp(s), math.exp(s))]
              + [lambda s, k=k: PGVector(1.0 if k == 1 else 0.0,
                                         math.exp(s), math.exp(s))
                 for k in range(1, 5)]),
            domain=(0.0, 1.0))
        with pytest.raises(InadmissibleCurveError, match="lightlike"):
            frenet_data(c, 0.5)

    @pytest.mark.parametrize("j2", [PGVector(0.0, 1e155, 0.0),
                                    PGVector(0.0, 1e155, 1e155),
                                    PGVector(0.0, 1.5e154, 1.5e154)])
    def test_overflowing_acceleration_is_an_overflow(self, j2):
        # neither a light cone (inf <= tol * inf) nor a nan epsilon
        with pytest.raises(OverflowError) as exc:
            normal_character(0.25, PGVector(1.0, 0.0, 0.0), j2)
        assert str(exc.value) == "y''^2 + z''^2 overflows at s=0.25"


class TestFrenetResidual:
    def test_small_on_catalogue_curves(self, general_helix, parabola):
        assert frenet_residual(general_helix.curve, 1.0) < 1e-6
        assert frenet_residual(parabola.curve, 0.3) < 1e-11

    def test_detects_light_cone_crossing(self, light_cone_crossing_curve):
        c = light_cone_crossing_curve
        # fine on either side of the crossing ...
        assert frenet_data(c, 0.5).epsilon == -1
        assert frenet_data(c, 1.5).epsilon == 1
        # ... lightlike exactly on it ...
        with pytest.raises(InadmissibleCurveError, match="lightlike"):
            frenet_data(c, 1.0)
        # ... and the stencil refuses to straddle it
        with pytest.raises(InadmissibleCurveError, match="flips"):
            frenet_residual(c, 1.00005, h=1e-4)

    @pytest.mark.parametrize("residual", [frenet_residual, equiform_residual])
    @pytest.mark.parametrize("h", [0.0, -0.0, 0, math.nan, math.inf,
                                   -math.inf])
    def test_step_must_be_finite_and_nonzero(self, general_helix, counting,
                                             residual, h):
        # refused before any jet is read, naming h
        curve, calls = counting(general_helix.curve)
        with pytest.raises(ValueError) as exc:
            residual(curve, 1.0, h)
        assert str(exc.value) == \
            f"residual step h must be finite and nonzero, got {h!r}"
        assert calls.orders == [] and calls.bundles == []
