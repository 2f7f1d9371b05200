"""Span-structure conditions: scalar coefficients, vectors, classification."""

from __future__ import annotations

import math

import pytest

from pg_curvelab.algebra import PGVector
from pg_curvelab.aw import (
    AWResiduals,
    DerivativeVectors,
    aw_residuals,
    classify,
    derivative_vectors,
    sigma_rates,
    unit_directions,
    vector_identity_residuals,
)
from pg_curvelab.curves import (CurveJet, JetKind, apply_homothety,
                                make_sampled_curve)
from pg_curvelab.equiform import EquiformData, equiform_data
from pg_curvelab.errors import LightlikeNormalError, NumericalInflectionError
from pg_curvelab.frenet import FrenetData
from pg_curvelab.zoo import get_example

ALL = {"AW1", "AW2", "AW3", "WeakAW2", "WeakAW3"}


class TestScalarResiduals:
    def test_planar_spiral_point(self, log_spiral):
        dv = derivative_vectors(log_spiral.curve, 1.0)
        assert dv.d2.as_tuple() == (0.0, 0.5, 0.0)
        assert dv.d3.as_tuple() == (0.0, -0.25, 0.0)
        assert dv.d4.as_tuple() == (0.0, 0.25, 0.0)
        assert (dv.a11, dv.a12, dv.a21, dv.a22) == (-0.125, 0.0, 0.125, 0.0)

        Kp, Tqp = sigma_rates(dv.frame)
        r = aw_residuals(dv.frame.curvature, dv.frame.torsion, Kp, Tqp)
        assert (r.u, r.v, r.det, r.omega) == (2.0, 0.0, 0.0, 1.0)
        assert r.as_dict() == {"AW1": 2.0, "AW2": 0.0, "AW3": 0.0,
                               "WeakAW2": 2.0, "WeakAW3": 0.0}

    def test_constant_invariant_helix_point(self, helix_fixture):
        dv = derivative_vectors(helix_fixture.curve, 0.0)
        assert dv.d2.as_tuple() == (0.0, 1.0, 0.0)
        assert dv.d3.as_tuple() == (0.0, 0.0, 1.0)
        assert dv.d4.as_tuple() == (0.0, 1.0, 0.0)

        Kp, Tqp = sigma_rates(dv.frame)
        r = aw_residuals(dv.frame.curvature, dv.frame.torsion, Kp, Tqp)
        assert (r.u, r.v, r.det) == (1.0, 0.0, -1.0)
        assert r.as_dict() == {"AW1": 1.0, "AW2": 1.0, "AW3": 0.0,
                               "WeakAW2": 1.0, "WeakAW3": 0.0}

    def test_magnitude_floor(self):
        r = aw_residuals(0.0, 0.0, 0.0, 0.0)
        assert r.omega == 1e-30
        assert r.as_dict() == {name: 0.0 for name in ALL}

    def test_resolution_floor_reads_unresolved_point_as_zero(self):
        # every entry within its own bound: FD noise around K = T = 0
        bounds = (1e-6, 1e-6, 1e-9, 1e-9)
        r = aw_residuals(1e-12, 0.0, 3e-10, -2e-10, resolution=bounds)
        assert r.resolution_limited
        assert r.omega == 1e-9
        assert r.as_dict() == {name: 0.0 for name in ALL}
        # one resolved entry keeps the ordinary normalization
        r = aw_residuals(1e-12, 0.0, 3e-10, 2e-9, resolution=bounds)
        assert not r.resolution_limited
        assert r.omega == 2e-9
        assert r.weak_aw3 == pytest.approx(1.0)

    def test_resolved_invariant_is_not_limited_by_a_larger_rate_bound(self):
        # K = 1e-3 is resolved (bound 1e-9), though K^2 = 1e-6 sits below
        # the bound 1e-5 of K': the point is not resolution-limited, and
        # the floor under omega is that largest bound
        r = aw_residuals(1e-3, 0.0, 2e-7, 0.0,
                         resolution=(1e-9, 1e-9, 1e-5, 1e-9))
        assert not r.resolution_limited
        assert r.omega == 1e-5
        assert r.weak_aw2 == pytest.approx((2e-6 - 2e-7) / 1e-5)

    def test_residuals_invariant_under_weighted_rescaling(self):
        base = aw_residuals(0.7, -1.3, 0.4, 2.1)
        c = 3.0
        scaled = aw_residuals(c * 0.7, c * -1.3, c * c * 0.4, c * c * 2.1)
        for name in ALL:
            assert scaled.as_dict()[name] == pytest.approx(
                base.as_dict()[name], rel=1e-12)


class TestDerivativeVectors:
    def test_reconstructs_raw_jets(self, zoo_entries, uniform):
        # the N/B decomposition with sigma-parameter rates must reproduce
        # the literal second, third and fourth derivatives of the curve
        for entry in zoo_entries:
            lo, hi = entry.domain
            for s in uniform(lo, hi, 9)[1:-1]:
                dv = derivative_vectors(entry.curve, s)
                for vec, order in ((dv.d2, 2), (dv.d3, 3), (dv.d4, 4)):
                    jet = entry.curve.jet(s, order)
                    scale = max(1.0, jet.max_abs())
                    assert (vec - jet).max_abs() <= 1e-9 * scale


_E1, _E2, _E3 = (PGVector(1.0, 0.0, 0.0), PGVector(0.0, 1.0, 0.0),
                 PGVector(0.0, 0.0, 1.0))
_EQ = dict(s=0.5, epsilon=-1, rho=2.0, curvature=0.25, torsion=-0.5,
           curvature_rate=0.125, torsion_rate=1.5, tangent=_E1, normal=_E2,
           binormal=_E3)
_AW = dict(aw1=0.5, aw2=0.25, aw3=0.125, weak_aw2=1.0, weak_aw3=2.0, u=3.0,
           v=-4.0, det=5.0, omega=6.0)
RECORDS = [
    (FrenetData, dict(s=0.5, kappa=2.0, tau=-1.0, epsilon=-1, tangent=_E1,
                      normal=_E2, binormal=_E3)),
    (EquiformData, _EQ),
    (AWResiduals, _AW),
    (DerivativeVectors, dict(s=0.5, frame=EquiformData(**_EQ), d2=_E1,
                             d3=_E2, d4=_E3, a11=1.0, a12=2.0, a21=3.0,
                             a22=4.0)),
]


class TestPerPointRecords:
    """The per-point records are immutable values built by keyword or by
    position in their declared field order."""

    @pytest.mark.parametrize("cls, fields", RECORDS)
    def test_keyword_and_positional_construction_agree(self, cls, fields):
        rec = cls(**fields)
        assert rec == cls(*fields.values())
        assert all(getattr(rec, k) == v for k, v in fields.items())

    @pytest.mark.parametrize("cls, fields", RECORDS)
    def test_fields_cannot_be_assigned(self, cls, fields):
        rec = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, 0.0)
        assert all(getattr(rec, k) == v for k, v in fields.items())

    def test_defaults(self):
        assert EquiformData(**_EQ).errors is None
        assert AWResiduals(**_AW).resolution_limited is False


class TestUnitDirections:
    def test_helix_directions(self, helix_fixture):
        units = unit_directions(derivative_vectors(helix_fixture.curve, 0.0))
        assert units.q1.as_tuple() == (0.0, 1.0, 0.0)
        assert units.q2.as_tuple() == (0.0, 0.0, 1.0)

    def test_planar_curve_has_no_second_direction(self, log_spiral):
        units = unit_directions(derivative_vectors(log_spiral.curve, 1.0))
        assert units.q1.as_tuple() == (0.0, 1.0, 0.0)
        assert units.q2 is None

    def test_lightlike_second_derivative_rejected(self, log_spiral):
        frame = equiform_data(log_spiral.curve, 1.0)
        for bad in (PGVector(0.0, 1.0, 1.0), PGVector(0.0, 0.0, 0.0)):
            dv = DerivativeVectors(s=1.0, frame=frame, d2=bad,
                                   d3=PGVector(0.0, 1.0, 0.0),
                                   d4=PGVector(0.0, 1.0, 0.0),
                                   a11=0.0, a12=0.0, a21=0.0, a22=0.0)
            with pytest.raises(LightlikeNormalError):
                unit_directions(dv)


class TestVectorResiduals:
    def test_planar_spiral_point(self, log_spiral):
        out = vector_identity_residuals(derivative_vectors(log_spiral.curve, 1.0))
        assert out["AW1"] == 0.5
        assert out["AW2"] == 0.0
        assert out["AW3"] == 0.0
        assert math.isnan(out["WeakAW2"])
        assert out["WeakAW3"] == 0.0

    def test_constant_invariant_helix_point(self, helix_fixture):
        out = vector_identity_residuals(derivative_vectors(helix_fixture.curve, 0.0))
        assert out == {"AW1": 1.0, "AW2": 1.0, "AW3": 0.0,
                       "WeakAW2": 1.0, "WeakAW3": 0.0}


class TestClassify:
    @pytest.mark.parametrize("name, expected", [
        ("timelike_general_helix", set()),
        ("spacelike_general_helix", set()),
        ("timelike_circular_helix", set()),
        ("spacelike_circular_helix", set()),
        ("timelike_log_spiral", {"AW2", "AW3", "WeakAW3"}),
        ("bertrand_helix", {"AW3", "WeakAW3"}),
        ("isotropic_circle", ALL),
    ])
    def test_catalogue_verdicts(self, zoo_entries, uniform, name, expected):
        entry = next(e for e in zoo_entries if e.name == name)
        report = classify(entry.curve, uniform(*entry.domain, 21))
        assert report.holds == expected
        assert all(v.grid_size == 21 for v in report.verdicts.values())

    def test_degenerate_points_collect_planar_grid(self, log_spiral, uniform):
        grid = uniform(0.5, 3.5, 11)
        report = classify(log_spiral.curve, grid)
        assert report.degenerate_points == tuple(grid)

    def test_fd_isotropic_circle_reports_resolution_limited_points(
            self, parabola, uniform):
        # K = T = 0 exactly, so every rebuilt invariant is FD noise: each
        # point is counted as resolution-limited and reads as the exact
        # tier's all-zero residuals
        h = 1e-3
        samp = make_sampled_curve(lambda s: parabola.curve.jet(s, 0),
                                  (-1.0 + 4 * h, 1.0 - 4 * h), h=h)
        grid = uniform(-1.0 + 4 * h, 1.0 - 4 * h, 21)
        report = classify(samp, grid)
        assert report.resolution_limited_points == tuple(grid)
        assert report.holds == ALL
        assert report.diagnostics == ()
        exact = classify(parabola.curve, grid)
        assert exact.resolution_limited_points == ()
        assert exact.holds == ALL

    def test_fd_points_with_resolved_invariants_are_not_limited(
            self, helix_fixture, uniform):
        samp = make_sampled_curve(lambda s: helix_fixture.curve.jet(s, 0),
                                  (-0.9, 0.9), h=1e-3)
        report = classify(samp, uniform(-0.9, 0.9, 21))
        assert report.resolution_limited_points == ()
        assert report.holds == {"AW3", "WeakAW3"}

    def test_default_tolerance_by_jet_kind(self, general_helix, uniform):
        grid = uniform(0.3, 1.7, 9)
        assert classify(general_helix.curve, grid).tolerance == 1e-8
        samp = make_sampled_curve(lambda s: general_helix.curve.jet(s, 0),
                                  (0.2, 1.8))
        assert classify(samp, grid).tolerance == 1e-5

    def test_explicit_tolerance_overrides(self, circular_helix, uniform):
        grid = uniform(1.0, 2.5, 9)
        report = classify(circular_helix.curve, grid, tol=10.0)
        assert report.tolerance == 10.0
        assert report.holds == ALL       # every residual on this curve is O(1)

    def test_verdicts_invariant_under_homothety(self, helix_fixture,
                                                log_spiral, uniform):
        for entry in (helix_fixture, log_spiral):
            lo, hi = entry.domain
            grid = uniform(lo + 0.1, hi - 0.1, 11)
            base = classify(entry.curve, grid)
            scaled_curve = apply_homothety(entry.curve, 2.0)
            scaled = classify(scaled_curve, [2.0 * s for s in grid])
            assert scaled.holds == base.holds

    def test_caller_notes_are_carried(self, helix_fixture, uniform):
        report = classify(helix_fixture.curve, uniform(-0.9, 0.9, 7),
                          notes=("context note",))
        assert "context note" in report.diagnostics


@pytest.mark.parametrize("name, a, b", [("isotropic_circle", 1e90, None),
                                        ("bertrand_helix", 1e90, 1.0)])
def test_underflowing_rho4_names_its_point(name, a, b):
    # kappa^2 is finite, so the equiform data exist, but rho^4 is 0.0
    curve = get_example(name, a, b).curve
    with pytest.raises(ValueError, match=r"underflows to 0 \(rho = 1e-90\) at s=0\.25$"):
        derivative_vectors(curve, 0.25)
    with pytest.raises(ValueError, match=r"underflows to 0 \(rho = 1e-90\) at s=-0\.5$"):
        classify(curve, [-0.5, -0.25, 0.0, 0.25, 0.5])


SPAN = "the span coefficients (-K/rho^3, T/rho^3, u/rho^4, v/rho^4) = "


def test_overflowing_span_coefficients_with_rho_above_one_are_an_inflection():
    # T = b/a = 5e307, so u and rho^4 = 6.25e614 overflow and u/rho^4
    # reads inf/inf; rho = 5e153 > 1, as in frenet's overflow rule
    curve = get_example("bertrand_helix", 2e-154, 1e154).curve
    message = (f"numerically an inflection: {SPAN}(-0, 0, nan, nan) "
               "overflow at s=-1e-156 (rho = 5e+153)")
    for call in (lambda: derivative_vectors(curve, -1e-156),
                 lambda: classify(curve, [-1e-156, 0.0, 1e-156])):
        with pytest.raises(NumericalInflectionError) as exc:
            call()
        assert str(exc.value) == message
        assert exc.value.param == -1e-156
        assert type(exc.value.__cause__) is ValueError


def test_overflowing_span_coefficients_with_rho_one_are_an_overflow():
    # raw jets with kappa = 1 and a third derivative of 1e154: K^2 and K'
    # overflow, so u = inf - inf; rho = 1 is no inflection
    jets = (PGVector(0.0, 0.0, 0.0), PGVector(1.0, 0.0, 0.0),
            PGVector(0.0, 1.0, 0.0), PGVector(0.0, 1e154, 0.0),
            PGVector(0.0, 0.0, 0.0))
    curve = CurveJet(lambda s, k: jets[k], (-1.0, 1.0), JetKind.ANALYTIC)
    message = f"{SPAN}(1e+154, 0, nan, 0) overflow at s=0 (rho = 1)"
    for call in (lambda: derivative_vectors(curve, 0.0),
                 lambda: classify(curve, [0.0, 0.5])):
        with pytest.raises(OverflowError) as exc:
            call()
        assert str(exc.value) == message


def test_overflowing_omega_with_rho_one_is_an_overflow():
    # raw jets with kappa = 1 and a third derivative of 1e150: every span
    # coefficient is finite, but omega = max(K^2, ..., |K'|) = 2e300 and
    # omega^1.5 overflows; rho = 1 is no inflection
    jets = (PGVector(0.0, 0.0, 0.0), PGVector(1.0, 0.0, 0.0),
            PGVector(0.0, 1.0, 0.0), PGVector(0.0, 1e150, 0.0),
            PGVector(0.0, 0.0, 0.0))
    curve = CurveJet(lambda s, k: jets[k], (-1.0, 1.0), JetKind.ANALYTIC)
    message = "omega^1.5 overflows for omega = 2e+300 at s=0 (rho = 1)"
    for call in (lambda: derivative_vectors(curve, 0.0),
                 lambda: classify(curve, [0.0, 0.5])):
        with pytest.raises(OverflowError) as exc:
            call()
        assert type(exc.value) is OverflowError
        assert str(exc.value) == message
        assert type(exc.value.__cause__) is OverflowError
