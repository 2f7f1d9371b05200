"""Normal-offset mates: construction, verification, failure modes."""

from __future__ import annotations

import math

import pytest

from pg_curvelab import bertrand
from pg_curvelab.algebra import PGVector, SimilarityMotion, pg_dot
from pg_curvelab.bertrand import (
    BertrandNature,
    _normal_series,
    bertrand_mate,
    bertrand_nature,
    verify_bertrand_pair,
)
from pg_curvelab.curves import (CurveJet, JetKind, apply_similarity,
                                 make_lattice_curve, make_sampled_curve)
from pg_curvelab.equiform import equiform_data
from pg_curvelab.errors import (InadmissibleCurveError, JetOrderError,
                                 MateInadmissibleError)
from pg_curvelab.frenet import frenet_data
from pg_curvelab.zoo import get_example


class TestExactMate:
    def test_mate_metadata(self, helix_fixture):
        mate = bertrand_mate(helix_fixture.curve, 1.0)
        assert mate.kind is JetKind.ANALYTIC
        assert mate.max_order == 6
        assert mate.domain == helix_fixture.curve.domain

    def test_mate_order_is_at_most_six(self, helix_fixture):
        # the normal series is written out to length 7: a base of order
        # 10 gives a mate of order 6, with the bits of the order-8 base's
        base = helix_fixture.curve
        zero = PGVector(0.0, 0.0, 0.0)

        deep = CurveJet(lambda s, k: base.jet(s, k) if k <= 8 else zero,
                        base.domain, base.kind, max_order=10)
        mate = bertrand_mate(deep, 1.0)
        assert mate.max_order == 6
        assert list(map(bits, mate.jets(0.3, 0, 6))) == \
            list(map(bits, bertrand_mate(base, 1.0).jets(0.3, 0, 6)))

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

    @pytest.mark.parametrize("a", [0.2, 0.3, 0.5])
    def test_flattening_offset_with_a_round_off_residue(self, a):
        # T = b/a = 1 and lam = -1, so 1 + lam T^2 = 0 exactly; the mate's
        # acceleration is a residue of a few ulps of its summands, not an
        # exact zero, and is rejected as a numerical inflection
        base = get_example("bertrand_helix", a, a).curve
        with pytest.raises(MateInadmissibleError) as info:
            bertrand_mate(base, -1.0)
        assert str(info.value).startswith(
            "offset -1 produces an inadmissible mate: numerically an "
            "inflection: the acceleration cancels to round-off at s=")
        assert info.value.param == base.domain[0] + 0.1 * (
            base.domain[1] - base.domain[0])
        # an offset near the flattening one still gives a mate
        assert bertrand_mate(base, -0.999).max_order == 6

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

    def test_nan_claim_fails(self, helix_fixture, uniform):
        # every comparison with NaN is false: the claim must be shown to
        # match the recovered offset, not merely not shown to differ
        base = helix_fixture.curve
        mate = bertrand_mate(base, 0.5)
        pair = verify_bertrand_pair(base, mate, math.nan,
                                    uniform(-0.9, 0.9, 11))
        assert not pair.is_pair
        assert len(pair.failures) == 1
        assert pair.failures[0].startswith("claimed offset ")

    def test_wrong_constant_claim_fails(self, helix_fixture, uniform):
        base = helix_fixture.curve
        mate = bertrand_mate(base, 1.0)
        pair = verify_bertrand_pair(base, mate, 2.0, uniform(-0.9, 0.9, 11))
        assert not pair.is_pair
        assert pair.failures == (
            "claimed offset differs from the recovered 1",)

    def test_translated_copy_is_not_a_mate(self, helix_fixture, uniform):
        # a shift along y keeps the normals parallel and the tangents
        # equal, but its projection on the rotating normal is not constant
        base = helix_fixture.curve
        shifted = apply_similarity(base, SimilarityMotion(c=0.1))
        pair = verify_bertrand_pair(base, shifted, 0.0,
                                    uniform(-0.9, 0.9, 11))
        assert not pair.is_pair
        assert pair.failures[0].startswith("recovered offset varies by")

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
    """A finite-difference base carries jets to order 6, so its mate is
    built as an exact base's is; a base below order 6 has no mate."""

    def test_low_order_base_gets_difference_jets(self, helix_fixture, uniform):
        base = make_sampled_curve(lambda s: helix_fixture.curve.jet(s, 0),
                                  (-0.9, 0.9))
        mate = bertrand_mate(base, 1.0)
        assert base.max_order == 6
        assert mate.kind is JetKind.FINITE_DIFFERENCE
        assert mate.max_order == 4
        assert mate.warnings == ()
        assert mate.domain == base.domain == (-0.9, 0.9)

        grid = uniform(*mate.domain, 11)
        pair = verify_bertrand_pair(base, mate, 1.0, grid, tol=1e-4)
        assert pair.is_pair
        assert pair.offset == pytest.approx(1.0, rel=1e-4)

        strict = verify_bertrand_pair(base, mate, 1.0, grid, tol=1e-8)
        assert not strict.is_pair
        assert any("equiform curvature" in f for f in strict.failures)

    def test_order_four_base_is_rejected(self):
        def jet(s, k):
            raise AssertionError("the base was evaluated")

        base = CurveJet(jet, (-1.0, 1.0), JetKind.ANALYTIC, max_order=4)
        with pytest.raises(JetOrderError, match=(
                "^a mate needs base jets of order 6, the base carries 4$")):
            bertrand_mate(base, 0.3)

    @pytest.mark.parametrize("fixture", ["helix_fixture", "parabola"])
    def test_resampled_mate_matches_the_analytic_pair(self, request,
                                                      fixture, uniform):
        # the mate analogue of acceptance criterion 8: the base rebuilt
        # from its positions at h = 1e-3, verified at the default (FD
        # tier) tolerance, gives the analytic pair's verdicts
        entry = request.getfixturevalue(fixture)
        lo, hi = entry.domain
        base = make_sampled_curve(entry.curve.position, (lo, hi), h=1e-3)
        mate = bertrand_mate(base, 0.3)
        pad = max(0.05 * (hi - lo), mate.domain[0] - lo, hi - mate.domain[1])
        grid = uniform(lo + pad, hi - pad, 21)
        exact = verify_bertrand_pair(entry.curve,
                                     bertrand_mate(entry.curve, 0.3), 0.3,
                                     grid)
        pair = verify_bertrand_pair(base, mate, 0.3, grid)
        assert exact.is_pair and pair.is_pair, pair.failures
        assert pair.nature is exact.nature
        assert pair.offset == pytest.approx(exact.offset, rel=1e-12)


class TestSweepOrder:
    """Each curve is swept whole, the base first, so where both sweeps
    would raise, the base's error is the one reported, even when the
    mate fails at an earlier grid point."""

    def test_base_inadmissible_point_is_reported(self):
        # kappa = e^-s, tau = 6.2: the base turns lightlike between
        # s = 1.9 and 1.92, the mate at 0.3 already at 1.9
        base = get_example("timelike_general_helix", 1.0, 6.2).curve
        mate = bertrand_mate(base, 0.3)
        grid = [1.9 + 0.02 * i for i in range(8)]
        equiform_data(base, grid[0])
        with pytest.raises(InadmissibleCurveError, match="s=1.9:"):
            equiform_data(mate, grid[0])
        with pytest.raises(InadmissibleCurveError) as exc:
            verify_bertrand_pair(base, mate, 0.3, grid)
        assert str(exc.value) == \
            "lightlike acceleration at s=1.92: y''^2 - z''^2 ~ 0"
        assert exc.value.param == grid[1]

    def test_base_character_flip_is_reported(self,
                                             light_cone_crossing_curve):
        # eps flips at s = 1 on the base; the mate at -0.08 flips between
        # the first two grid points
        base = light_cone_crossing_curve
        mate = bertrand_mate(base, -0.08)
        grid = [0.5 + i / 9 for i in range(10)]
        assert equiform_data(mate, grid[0]).epsilon != \
            equiform_data(mate, grid[1]).epsilon
        with pytest.raises(InadmissibleCurveError) as exc:
            verify_bertrand_pair(base, mate, -0.08, grid)
        assert str(exc.value) == (
            "normal character flips between s=0.5 and s=1.05556; the curve "
            "crosses the light cone")


def bits(v: PGVector) -> tuple[str, ...]:
    return tuple(x.hex() for x in v.as_tuple())


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
            js = base.jets(s, 2, base.max_order)
            ny, nz = _normal_series([j.x2 for j in js], [j.x3 for j in js],
                                    s)
            bundle = mate.jets(s, 0, mate.max_order)
            for k, got in enumerate(bundle):
                j = base.jet(s, k)
                full = PGVector(j.x1, j.x2 + lam * ny[k], j.x3 + lam * nz[k])
                assert bits(got) == bits(mate.jet(s, k)) == bits(full)
            assert [bits(v) for v in mate.jets(s, 1, 4)] == \
                [bits(v) for v in bundle[1:5]]

    def test_equiform_point_reads_six_base_jets(self, helix_fixture,
                                                counting):
        base, calls = counting(helix_fixture.curve)
        mate = bertrand_mate(base, 0.5)
        calls.clear()
        equiform_data(mate, 0.3)
        assert sorted(calls.orders) == [(0.3, k) for k in range(1, 7)]
        assert calls.bundles == [(0.3, 1, 6)]

    def test_verification_sweeps_each_base_point_once(self, helix_fixture,
                                                      uniform, monkeypatch,
                                                      counting):
        base, calls = counting(helix_fixture.curve)
        mate, mate_calls = counting(bertrand_mate(base, 0.5))
        grid = uniform(-0.9, 0.9, 11)
        calls.clear()
        series_at: list[float] = []

        def normal_series(y, z, s):
            series_at.append(s)
            return _normal_series(y, z, s)

        monkeypatch.setattr(bertrand, "_normal_series", normal_series)
        pair = verify_bertrand_pair(base, mate, 0.5, grid)
        assert pair.nature is bertrand_nature(helix_fixture.curve, grid)
        # per grid point: the base's bundle of orders 0-4 and the mate's
        # (base orders 0-6, one normal series); a separate position read
        # would add base order 0 and, for the mate, base orders 0-2 and a
        # second normal series
        per_point = {s: 0 for s in grid}
        for s, _ in calls.orders:
            per_point[s] += 1
        assert per_point == {s: 5 + 7 for s in grid}
        assert sorted(calls.orders) == sorted(
            [(s, k) for s in grid for k in range(5)]
            + [(s, k) for s in grid for k in range(7)])
        assert series_at == grid
        # one bundle per curve and point: the base's sweep, then the
        # mate's, whose bundles each read the base once
        assert mate_calls.bundles == [(s, 0, 4) for s in grid]
        assert calls.bundles == [(s, 0, 4) for s in grid] + \
            [(s, 0, 6) for s in grid]

    def test_fallback_bundle_matches_single_orders(self, helix_fixture):
        # a finite-difference base: its bundles and single orders agree
        # bit for bit, error bounds included, and so do its mate's
        base = make_sampled_curve(helix_fixture.curve.position, (-0.9, 0.9),
                                  h=1e-3)
        mate = bertrand_mate(base, 1.0)
        assert mate.kind is JetKind.FINITE_DIFFERENCE
        for s in (-0.5, 0.1, 0.6):
            bundle = mate.jets(s, 0, 4)
            assert [bits(v) for v in bundle] == \
                [bits(mate.jet(s, k)) for k in range(5)]
            assert [bits(v) for v in mate.jets(s, 2, 3)] == \
                [bits(v) for v in bundle[2:4]]

    def test_fallback_exact_orders_use_right_length_series(self,
                                                           helix_fixture,
                                                           counting):
        base, calls = counting(make_sampled_curve(
            helix_fixture.curve.position, (-0.9, 0.9)))
        mate = bertrand_mate(base, 1.0)
        calls.clear()
        mate.jets(0.2, 0, 2)
        assert sorted(calls.orders) == [(0.2, k) for k in range(5)]
        calls.clear()
        mate.jet(0.2, 0)
        assert sorted(calls.orders) == [(0.2, k) for k in range(3)]

    @pytest.mark.parametrize("max_order", [8, 4])
    def test_flattening_offset_is_rejected(self, helix_fixture, max_order,
                                           counting):
        base, calls = counting(helix_fixture.curve, max_order=max_order)
        error, message = ((MateInadmissibleError, "inadmissible mate")
                          if max_order == 8 else (JetOrderError, "order 6"))
        with pytest.raises(error, match=message):
            bertrand_mate(base, -1.0)
        # a base cut to order 4 has no mate and is never read
        assert bool(calls.orders) is (max_order == 8)

    def test_fd_mate_reads_each_base_point_once(self, helix_fixture,
                                                counting):
        # the mate of the 257-row helix lattice: one base bundle of orders
        # 0-6 per point of its sweep, and no other read
        c = helix_fixture.curve
        d = 2.0 ** -7
        base, calls = counting(make_lattice_curve(
            (s, *c.position(s).as_tuple())
            for s in (-1.0 + i * d for i in range(257))))
        mate = bertrand_mate(base, 0.3)
        grid = base.grid(-0.8, 0.8, 21)
        calls.clear()
        pair = verify_bertrand_pair(base, mate, 0.3, grid)
        assert pair.is_pair, pair.failures
        assert calls.bundles == [(s, 0, 4) for s in grid] + \
            [(s, 0, 6) for s in grid]
