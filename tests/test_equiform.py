"""Scale-invariant curvature/torsion, frame, residuals, natural classes."""

from __future__ import annotations

import math

import pytest

from pg_curvelab.curves import CurveJet, make_sampled_curve
from pg_curvelab.equiform import (
    NaturalClassTag,
    equiform_data,
    equiform_grid,
    equiform_residual,
    natural_class,
)
from pg_curvelab.errors import (
    EmptyGridError,
    InadmissibleCurveError,
    JetOrderError,
    NumericalInflectionError,
)
from pg_curvelab.frenet import frenet_data
from pg_curvelab.zoo import get_example


class TestEquiformData:
    def test_general_helix_at_origin(self, general_helix):
        d = equiform_data(general_helix.curve, 0.0)
        assert d.epsilon == 1
        assert d.rho == pytest.approx(1.0, rel=1e-12)
        assert d.curvature == pytest.approx(1.0, rel=1e-12)
        assert d.torsion == pytest.approx(2.0, rel=1e-12)
        assert d.curvature_rate == pytest.approx(1.0, rel=1e-12)
        assert d.torsion_rate == pytest.approx(2.0, rel=1e-12)
        assert d.tangent.as_tuple() == pytest.approx(
            (1.0, 1.0 / 3.0, 2.0 / 3.0), abs=1e-14)
        assert d.normal.as_tuple() == pytest.approx((0.0, 1.0, 0.0), abs=1e-14)
        assert d.binormal.as_tuple() == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)

    def test_general_helix_interior_point(self, general_helix):
        s = 1.2
        e = math.exp(s)
        d = equiform_data(general_helix.curve, s)
        assert d.rho == pytest.approx(e, rel=1e-12)
        assert d.curvature == pytest.approx(e, rel=1e-11)
        assert d.torsion == pytest.approx(2.0 * e, rel=1e-11)
        assert d.curvature_rate == pytest.approx(e, rel=1e-10)
        assert d.torsion_rate == pytest.approx(2.0 * e, rel=1e-10)

    def test_planar_spiral_exact_values(self, log_spiral):
        d = equiform_data(log_spiral.curve, 1.0)
        assert d.epsilon == 1
        assert d.rho == 2.0
        assert d.curvature == 1.0
        assert d.torsion == 0.0
        assert d.curvature_rate == 0.0
        assert d.torsion_rate == 0.0
        assert d.tangent.as_tuple() == (2.0, 2.0 * math.log(2.0), 0.0)
        assert d.normal.as_tuple() == (0.0, 2.0, 0.0)
        assert d.binormal.as_tuple() == (0.0, 0.0, 2.0)

    def test_torsion_is_tau_over_kappa(self, general_helix, mirrored_helix,
                                       circular_helix, log_spiral, uniform):
        for entry in (general_helix, mirrored_helix, circular_helix, log_spiral):
            for s in uniform(*entry.domain, 15)[1:-1]:
                d = equiform_data(entry.curve, s)
                f = frenet_data(entry.curve, s)
                ratio = f.tau / f.kappa
                assert abs(d.torsion - ratio) <= 1e-10 * max(1.0, abs(ratio))

    def test_frame_is_scaled_classical_frame(self, circular_helix):
        s = 1.9
        d = equiform_data(circular_helix.curve, s)
        f = frenet_data(circular_helix.curve, s)
        for eq, cl in ((d.tangent, f.tangent), (d.normal, f.normal),
                       (d.binormal, f.binormal)):
            assert eq.as_tuple() == pytest.approx(
                tuple(d.rho * x for x in cl.as_tuple()), rel=1e-13, abs=1e-15)

    def test_rates_match_central_differences(self, general_helix,
                                             circular_helix):
        h = 1e-4
        for entry, s in ((general_helix, 0.9), (circular_helix, 1.7)):
            d = equiform_data(entry.curve, s)
            dp = equiform_data(entry.curve, s + h)
            dm = equiform_data(entry.curve, s - h)
            fd_k = (dp.curvature - dm.curvature) / (2.0 * h)
            fd_t = (dp.torsion - dm.torsion) / (2.0 * h)
            assert d.curvature_rate == pytest.approx(fd_k, abs=1e-5)
            assert d.torsion_rate == pytest.approx(fd_t, abs=1e-5)

    def test_needs_order_four_jets(self, general_helix):
        helix = general_helix.curve
        low = CurveJet(helix.jet, helix.domain, helix.kind, max_order=2)
        with pytest.raises(JetOrderError, match="order-4"):
            equiform_data(low, 1.0)


class TestEquiformGrid:
    def test_empty_grid_rejected(self, general_helix):
        with pytest.raises(EmptyGridError):
            equiform_grid(general_helix.curve, [])

    def test_light_cone_crossing_rejected(self, light_cone_crossing_curve):
        c = light_cone_crossing_curve
        with pytest.raises(InadmissibleCurveError, match="crosses the light cone"):
            equiform_grid(c, [0.5, 1.5])

    def test_returns_data_per_grid_point(self, general_helix, uniform):
        grid = uniform(0.1, 1.9, 7)
        datas = equiform_grid(general_helix.curve, grid)
        assert [d.s for d in datas] == grid


class TestEquiformResidual:
    def test_small_on_catalogue_curves(self, general_helix, parabola):
        assert equiform_residual(general_helix.curve, 1.0) < 1e-6
        assert equiform_residual(parabola.curve, 0.3) < 1e-11

    def test_detects_light_cone_crossing(self, light_cone_crossing_curve):
        # the stencil straddles s = 1, where eps flips from -1 to +1
        with pytest.raises(InadmissibleCurveError, match="flips near"):
            equiform_residual(light_cone_crossing_curve, 1.00005, h=1e-4)

    def test_overflowing_neighbour_names_its_point(self):
        # kappa = e^(-200 s): rho^2 fits a double at s = 1.7, not at 1.8;
        # a read outside the domain keeps its own error
        c = get_example("timelike_general_helix", 200.0, 1.0).curve
        with pytest.raises(NumericalInflectionError, match="at s=1.8 ") as exc:
            equiform_residual(c, 1.7, h=0.1)
        assert exc.value.param == 1.8
        with pytest.raises(ValueError, match="outside domain"):
            equiform_residual(c, 1.7, h=1.0)


class TestNaturalClass:
    @pytest.mark.parametrize("name, tag", [
        ("timelike_general_helix", NaturalClassTag.OTHER),
        ("spacelike_general_helix", NaturalClassTag.OTHER),
        ("timelike_circular_helix", NaturalClassTag.OTHER),
        ("spacelike_circular_helix", NaturalClassTag.OTHER),
        ("timelike_log_spiral", NaturalClassTag.ISOTROPIC_LOG_SPIRAL),
        ("bertrand_helix", NaturalClassTag.CIRCULAR_HELIX),
        ("isotropic_circle", NaturalClassTag.ISOTROPIC_CIRCLE),
    ])
    def test_catalogue_tags(self, zoo_entries, uniform, name, tag):
        entry = next(e for e in zoo_entries if e.name == name)
        nc = natural_class(entry.curve, uniform(*entry.domain, 21))
        assert nc.tag is tag

    def test_helix_fixture_statistics(self, helix_fixture, uniform):
        nc = natural_class(helix_fixture.curve, uniform(-1.0, 1.0, 21))
        assert nc.curvature_mean == 0.0
        assert nc.curvature_spread == 0.0
        assert nc.torsion_mean == pytest.approx(1.0, rel=1e-12)
        assert nc.torsion_spread <= 1e-12

    def test_exact_zero_curvature_survives_tiny_tolerance(self, helix_fixture,
                                                          uniform):
        # the fixture's scale-invariant curvature cancels exactly in float
        # arithmetic, so even an absurdly small zero-tolerance keeps the tag
        nc = natural_class(helix_fixture.curve, uniform(-1.0, 1.0, 21),
                           tol_zero=1e-300)
        assert nc.tag is NaturalClassTag.CIRCULAR_HELIX

    def test_zero_tolerance_is_monotone(self, log_spiral, uniform):
        grid = uniform(0.5, 3.5, 21)
        assert natural_class(log_spiral.curve, grid).tag is \
            NaturalClassTag.ISOTROPIC_LOG_SPIRAL
        # a tolerance that swallows K = 1 reclassifies the curve
        assert natural_class(log_spiral.curve, grid, tol_zero=10.0).tag is \
            NaturalClassTag.ISOTROPIC_CIRCLE

    def test_sampled_helix_zero_test_honours_fd_bounds(self, helix_fixture,
                                                       uniform):
        # rebuilt from positions, K carries ~1e-8 of FD error: above the
        # default tol_zero, but inside each point's own error bound
        c = make_sampled_curve(helix_fixture.curve.position, (-0.9, 0.9),
                               h=1e-3)
        grid = uniform(-0.9, 0.9, 21)
        datas = equiform_grid(c, grid)
        assert max(abs(d.curvature) for d in datas) > 1e-9
        assert all(abs(d.curvature) <= d.errors[1] for d in datas)
        assert natural_class(c, grid).tag is NaturalClassTag.CIRCULAR_HELIX

    def test_sampled_general_helix_stays_other(self, general_helix, uniform):
        # a resolved nonzero K is not read as zero by its bound
        c = make_sampled_curve(general_helix.curve.position,
                               general_helix.domain, h=1e-3)
        nc = natural_class(c, uniform(*general_helix.domain, 21))
        assert nc.tag is NaturalClassTag.OTHER

    def test_short_grid_rejected(self, general_helix):
        with pytest.raises(ValueError, match="at least 5"):
            natural_class(general_helix.curve, [0.1, 0.5, 0.9, 1.3])

    def test_overflowing_mean_names_its_quantity(self):
        # T = b/a = 5e307 at every point: the sum of five overflows
        c = get_example("bertrand_helix", 2e-154, 1e154).curve
        with pytest.raises(OverflowError) as exc:
            natural_class(c, [-1e-156, -5e-157, 0.0, 5e-157, 1e-156])
        assert str(exc.value) == ("the grid mean of the equiform torsion "
                                  "overflows (intermediate overflow in fsum)")
        assert type(exc.value.__cause__) is OverflowError
