"""Normal-offset mates: construction, verification, failure modes."""

from __future__ import annotations

import math

import pytest

from pg_curvelab.algebra import PGVector, pg_dot
from pg_curvelab.bertrand import (
    BertrandNature,
    _normal_series,
    bertrand_mate,
    bertrand_nature,
    verify_bertrand_pair,
)
from pg_curvelab.curves import CurveJet, JetKind, make_sampled_curve
from pg_curvelab.equiform import equiform_data
from pg_curvelab.errors import MateInadmissibleError
from pg_curvelab.frenet import frenet_data


class TestExactMate:
    def test_mate_metadata(self, helix_fixture):
        mate = bertrand_mate(helix_fixture.curve, 1.0)
        assert mate.kind is JetKind.ANALYTIC
        assert mate.max_order == 6
        assert mate.domain == helix_fixture.curve.domain

    def test_mate_stays_in_arclength_form(self, helix_fixture):
        mate = bertrand_mate(helix_fixture.curve, 2.0)
        for s in (-0.7, 0.0, 0.4):
            assert mate.jet(s, 0).x1 == s
            assert mate.jet(s, 1).x1 == 1.0
            assert mate.jet(s, 2).x1 == 0.0

    def test_mate_invariants(self, helix_fixture):
        # offset 1 against curvature 1, torsion 1 doubles the curvature
        # radius direction: the mate has kappa 2, tau 1
        mate = bertrand_mate(helix_fixture.curve, 1.0)
        f = frenet_data(mate, 0.3)
        assert f.kappa == pytest.approx(2.0, rel=1e-13)
        assert f.tau == pytest.approx(1.0, rel=1e-13)

    def test_tangent_scalar_product_is_constant(self, helix_fixture):
        base = helix_fixture.curve
        mate = bertrand_mate(base, 1.0)
        values = [pg_dot(equiform_data(mate, s).tangent,
                         equiform_data(base, s).tangent)
                  for s in (-0.8, -0.2, 0.1, 0.6)]
        assert values == pytest.approx([0.5] * 4, rel=1e-13)

    def test_mate_of_mate_returns_to_base(self, helix_fixture):
        base = helix_fixture.curve
        mate = bertrand_mate(base, 1.0)
        back = bertrand_mate(mate, -2.0)
        for s in (-0.6, 0.0, 0.5):
            defect = (back.position(s) - base.position(s)).max_abs()
            assert defect <= 1e-13

    def test_flattening_offset_is_rejected(self, helix_fixture):
        with pytest.raises(MateInadmissibleError, match="inadmissible mate"):
            bertrand_mate(helix_fixture.curve, -1.0)

    def test_lightlike_base_fails_the_shared_predicate(self):
        # y'' = z'' everywhere: the base normal is lightlike, and the
        # normal series rejects it with the apparatus's own message
        def jet(s, k):              # (s, 1 + s^2, 1 + s^2)
            y = (1.0 + s * s, 2.0 * s, 2.0, 0.0)[min(k, 3)]
            return PGVector((s, 1.0, 0.0)[min(k, 2)], y, y)

        base = CurveJet(jet, (0.0, 1.0), JetKind.ANALYTIC, max_order=8)
        with pytest.raises(MateInadmissibleError,
                           match="lightlike acceleration at s="):
            bertrand_mate(base, 0.5)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("max_order", [8, 4])
    def test_non_finite_offset_is_rejected_before_any_jet(self, offset,
                                                          max_order):
        def jet(s, k):
            raise AssertionError("the base was evaluated")

        base = CurveJet(jet, (0.0, 1.0), JetKind.ANALYTIC, max_order=max_order)
        with pytest.raises(ValueError, match="offset must be finite, got"):
            bertrand_mate(base, offset)


class TestVerification:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_helix_offsets_verify(self, helix_fixture, uniform, lam):
        base = helix_fixture.curve
        mate = bertrand_mate(base, lam)
        pair = verify_bertrand_pair(base, mate, lam, uniform(-0.9, 0.9, 11))
        assert pair.is_pair
        assert pair.failures == ()
        assert pair.nature is BertrandNature.CIRCULAR_HELIX
        assert pair.offset == pytest.approx(lam, rel=1e-12)
        assert pair.offset_spread <= 1e-10
        assert pair.normal_parallel_sup <= 1e-10
        assert pair.tangent_product_spread <= 1e-12

    def test_parabola_offsets_verify(self, parabola, uniform):
        base = parabola.curve
        mate = bertrand_mate(base, 0.7)
        pair = verify_bertrand_pair(base, mate, 0.7, uniform(-0.9, 0.9, 11))
        assert pair.is_pair
        assert pair.nature is BertrandNature.ISOTROPIC_CIRCLE
        assert pair.offset == 0.7
        assert pair.offset_spread == 0.0

    def test_non_constant_claim_fails(self, helix_fixture, uniform):
        base = helix_fixture.curve
        mate = bertrand_mate(base, 1.0)
        pair = verify_bertrand_pair(base, mate, lambda s: s,
                                    uniform(-0.9, 0.9, 11))
        assert not pair.is_pair
        assert any("not constant" in f for f in pair.failures)
        assert any("differs from the recovered" in f for f in pair.failures)

    def test_wrong_constant_claim_fails(self, helix_fixture, uniform):
        base = helix_fixture.curve
        mate = bertrand_mate(base, 1.0)
        pair = verify_bertrand_pair(base, mate, 2.0, uniform(-0.9, 0.9, 11))
        assert not pair.is_pair
        assert pair.failures == (
            "claimed offset differs from the recovered 1",)

    def test_varying_curvature_admits_no_mates(self, general_helix, uniform):
        base = general_helix.curve
        mate = bertrand_mate(base, 1.0)
        pair = verify_bertrand_pair(base, mate, 1.0, uniform(0.2, 1.8, 11))
        assert not pair.is_pair
        assert "equiform curvature reaches" in pair.failures[0]
        assert pair.nature is BertrandNature.NOT_BERTRAND

    def test_short_grid_rejected(self, helix_fixture):
        base = helix_fixture.curve
        mate = bertrand_mate(base, 1.0)
        with pytest.raises(ValueError, match="at least 5"):
            verify_bertrand_pair(base, mate, 1.0, [0.0, 0.1, 0.2, 0.3])


class TestNature:
    def test_catalogue_natures(self, helix_fixture, parabola, general_helix,
                               uniform):
        assert bertrand_nature(helix_fixture.curve, uniform(-0.9, 0.9, 11)) \
            is BertrandNature.CIRCULAR_HELIX
        assert bertrand_nature(parabola.curve, uniform(-0.9, 0.9, 11)) \
            is BertrandNature.ISOTROPIC_CIRCLE
        assert bertrand_nature(general_helix.curve, uniform(0.2, 1.8, 11)) \
            is BertrandNature.NOT_BERTRAND


class TestFiniteDifferenceFallback:
    def test_low_order_base_gets_difference_jets(self, helix_fixture, uniform):
        base = make_sampled_curve(lambda s: helix_fixture.curve.jet(s, 0),
                                  (-0.9, 0.9))
        mate = bertrand_mate(base, 1.0)
        assert mate.kind is JetKind.FINITE_DIFFERENCE
        assert mate.max_order == 4
        assert any("finite differences" in w for w in mate.warnings)
        lo, hi = mate.domain
        assert -0.9 < lo < hi < 0.9

        pair = verify_bertrand_pair(base, mate, 1.0, uniform(-0.85, 0.85, 11),
                                    tol=1e-4)
        assert pair.is_pair
        assert pair.offset == pytest.approx(1.0, rel=1e-4)

        strict = verify_bertrand_pair(base, mate, 1.0,
                                      uniform(-0.85, 0.85, 11))
        assert not strict.is_pair
        assert any("equiform curvature" in f for f in strict.failures)


def bits(v: PGVector) -> tuple[str, ...]:
    return tuple(x.hex() for x in v.as_tuple())


def counting(curve: CurveJet, max_order: int | None = None):
    """The same curve through the public constructor, logging every
    (s, order) its jet function is asked for."""
    calls: list[tuple[float, int]] = []

    def jet_fn(s: float, order: int) -> PGVector:
        calls.append((s, order))
        return curve.jet(s, order)

    wrapped = CurveJet(jet_fn, curve.domain, curve.kind,
                       max_order=curve.max_order if max_order is None
                       else max_order, warnings=curve.warnings)
    return wrapped, calls


class TestMateJetBundles:
    @pytest.mark.parametrize("fixture, lam, params", [
        ("helix_fixture", 1.0, (-0.8, 0.0, 0.55)),
        ("general_helix", 0.3, (0.2, 1.0, 1.7)),
        ("circular_helix", 0.2, (0.7, 1.5, 2.8)),
        ("parabola", 0.7, (-0.6, 0.25)),
    ])
    def test_bundle_matches_single_orders_and_full_series(
            self, request, fixture, lam, params):
        base = request.getfixturevalue(fixture).curve
        mate = bertrand_mate(base, lam)
        for s in params:
            # the longest series the base allows: shortening a series
            # must not change any of its remaining entries
            ny, nz = _normal_series(base.jets(s, 2, base.max_order), s)
            bundle = mate.jets(s, 0, mate.max_order)
            for k, got in enumerate(bundle):
                j = base.jet(s, k)
                full = PGVector(j.x1, j.x2 + lam * ny[k], j.x3 + lam * nz[k])
                assert bits(got) == bits(mate.jet(s, k)) == bits(full)
            assert [bits(v) for v in mate.jets(s, 1, 4)] == \
                [bits(v) for v in bundle[1:5]]

    def test_equiform_point_reads_six_base_jets(self, helix_fixture):
        base, calls = counting(helix_fixture.curve)
        mate = bertrand_mate(base, 0.5)
        calls.clear()
        equiform_data(mate, 0.3)
        assert sorted(calls) == [(0.3, k) for k in range(1, 7)]

    def test_verification_sweeps_each_base_point_once(self, helix_fixture,
                                                      uniform):
        base, calls = counting(helix_fixture.curve)
        mate = bertrand_mate(base, 0.5)
        grid = uniform(-0.9, 0.9, 11)
        calls.clear()
        pair = verify_bertrand_pair(base, mate, 0.5, grid)
        assert pair.nature is bertrand_nature(helix_fixture.curve, grid)
        # per grid point: the base's equiform sweep (orders 1-4), the
        # mate's equiform bundle (base orders 1-6) and the two positions
        # (base order 0, mate order 0 from base orders 0-2); a second
        # sweep of the base would add four more
        per_point = {s: 0 for s in grid}
        for s, _ in calls:
            per_point[s] += 1
        assert per_point == {s: 4 + 6 + 1 + 3 for s in grid}

    def test_fallback_bundle_matches_single_orders(self, helix_fixture):
        base, _ = counting(helix_fixture.curve, max_order=4)
        mate = bertrand_mate(base, 1.0)
        assert mate.kind is JetKind.FINITE_DIFFERENCE
        for s in (-0.5, 0.1, 0.6):
            bundle = mate.jets(s, 0, 4)
            assert [bits(v) for v in bundle] == \
                [bits(mate.jet(s, k)) for k in range(5)]
            assert [bits(v) for v in mate.jets(s, 2, 3)] == \
                [bits(v) for v in bundle[2:4]]

    def test_fallback_exact_orders_use_right_length_series(self,
                                                           helix_fixture):
        base, calls = counting(helix_fixture.curve, max_order=4)
        mate = bertrand_mate(base, 1.0)
        calls.clear()
        mate.jets(0.2, 0, 2)
        assert sorted(calls) == [(0.2, k) for k in range(5)]
        calls.clear()
        mate.jet(0.2, 0)
        assert sorted(calls) == [(0.2, k) for k in range(3)]

    @pytest.mark.parametrize("max_order", [8, 4])
    def test_flattening_offset_is_rejected(self, helix_fixture, max_order):
        base, _ = counting(helix_fixture.curve, max_order=max_order)
        with pytest.raises(MateInadmissibleError, match="inadmissible mate"):
            bertrand_mate(base, -1.0)
