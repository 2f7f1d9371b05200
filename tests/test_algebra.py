"""Vectors, scalar product, determinant and the similarity group."""

from __future__ import annotations

import copy
import math
import pickle

import pytest

from pg_curvelab.algebra import PGVector, SimilarityMotion, det3, pg_dot
from pg_curvelab.curves import apply_similarity
from pg_curvelab.frenet import frenet_data


class TestPGVector:
    def test_componentwise_arithmetic(self):
        u = PGVector(1.0, 2.0, 3.0)
        v = PGVector(0.5, -1.0, 4.0)
        assert (u + v).as_tuple() == (1.5, 1.0, 7.0)
        assert (u - v).as_tuple() == (0.5, 3.0, -1.0)
        assert (2.0 * u).as_tuple() == (2.0, 4.0, 6.0)
        assert (u * 2.0).as_tuple() == (2.0, 4.0, 6.0)
        assert (u / 2.0).as_tuple() == (0.5, 1.0, 1.5)
        assert (-u).as_tuple() == (-1.0, -2.0, -3.0)

    def test_max_abs(self):
        assert PGVector(1.0, -5.0, 3.0).max_abs() == 5.0
        assert PGVector(0.0, 0.0, 0.0).max_abs() == 0.0

    def test_rejects_non_finite_components(self):
        with pytest.raises(ValueError, match="finite"):
            PGVector(math.inf, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            PGVector(0.0, math.nan, 0.0)

    def test_is_immutable(self):
        u = PGVector(1.0, 2.0, 3.0)
        with pytest.raises(Exception):
            u.x1 = 5.0


class TestPGVectorValueType:
    """The value-type contract: equality by class and components, hash,
    repr, copy and pickle, immutability and the finiteness message."""

    def test_equality_and_hash(self):
        u = PGVector(1.0, 2.0, 3.0)
        assert u == PGVector(1.0, 2.0, 3.0)
        assert u == PGVector(1, 2, 3)
        assert u != PGVector(1.0, 2.0, 4.0)
        assert u != (1.0, 2.0, 3.0)
        assert hash(u) == hash(PGVector(1, 2, 3))
        assert len({u, PGVector(1.0, 2.0, 3.0), -u}) == 2

    def test_repr(self):
        assert repr(PGVector(1.0, -0.0, 2.5e-300)) == (
            "PGVector(x1=1.0, x2=-0.0, x3=2.5e-300)")

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        lambda v: pickle.loads(pickle.dumps(v)),
    ])
    def test_copy_and_pickle_round_trip(self, clone):
        u = PGVector(1.0, -0.0, 0.1)
        w = clone(u)
        assert type(w) is PGVector and w == u
        assert math.copysign(1.0, w.x2) == -1.0

    @pytest.mark.parametrize("name", ["x1", "x2", "x3", "other"])
    def test_assignment_raises_attribute_error(self, name):
        u = PGVector(1.0, 2.0, 3.0)
        with pytest.raises(AttributeError):
            setattr(u, name, 5.0)
        with pytest.raises(AttributeError):
            delattr(u, name)
        assert u.as_tuple() == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_finiteness_message_names_the_first_bad_component(self, bad,
                                                               position):
        comps = [1.0, 2.0, 3.0]
        comps[position] = bad
        with pytest.raises(ValueError) as info:
            PGVector(*comps)
        assert str(info.value) == (
            f"PGVector components must be finite, got {bad!r}")
        # the first offending component is the one reported
        with pytest.raises(ValueError, match="got nan$"):
            PGVector(*[0.0 if i < position else
                       math.nan if i == position else math.inf
                       for i in range(3)])


class TestScalarProduct:
    def test_non_isotropic_pair_uses_first_components(self):
        assert pg_dot(PGVector(1.0, 2.0, 3.0), PGVector(4.0, 5.0, 6.0)) == 4.0

    def test_isotropic_pair_uses_lorentzian_part(self):
        assert pg_dot(PGVector(0.0, 2.0, 3.0), PGVector(0.0, 5.0, 6.0)) == -8.0

    def test_mixed_pair_is_zero(self):
        # one factor non-isotropic, the other isotropic: product 1*0
        assert pg_dot(PGVector(1.0, 2.0, 3.0), PGVector(0.0, 5.0, 6.0)) == 0.0

    def test_case_split_is_exact_not_fuzzy(self):
        # a nonzero first component selects the first branch no matter how
        # small it is; the Lorentzian branch would return 0.0 here
        tiny = 1e-150
        assert pg_dot(PGVector(tiny, 0.0, 0.0), PGVector(tiny, 7.0, 0.0)) == 1e-300


class TestDet3:
    def test_identity(self):
        e1 = PGVector(1.0, 0.0, 0.0)
        e2 = PGVector(0.0, 1.0, 0.0)
        e3 = PGVector(0.0, 0.0, 1.0)
        assert det3(e1, e2, e3) == 1.0

    def test_frozen_value(self):
        u = PGVector(1.0, 2.0, 3.0)
        v = PGVector(4.0, 5.0, 6.0)
        w = PGVector(7.0, 8.0, 10.0)
        assert det3(u, v, w) == -3.0

    def test_alternating(self):
        u = PGVector(1.0, 2.0, 3.0)
        v = PGVector(4.0, 5.0, 6.0)
        w = PGVector(7.0, 8.0, 10.0)
        assert det3(v, u, w) == 3.0


class TestSimilarityMotion:
    """The group acting on curves (``curves.apply_similarity``): the
    image's order-k jet at t = a + b*s is the linear part applied to the
    order-k jet at s, over b**k, and translations move positions only."""

    def test_zero_scale_rejected(self, general_helix):
        with pytest.raises(ValueError, match="nonzero"):
            apply_similarity(general_helix.curve, SimilarityMotion(r=0.0))

    def test_identity_fixes_points(self, general_helix):
        c = general_helix.curve
        same = apply_similarity(c, SimilarityMotion())
        assert same.domain == c.domain
        for s in (0.1, 0.9, 1.7):
            assert same.jets(s, 0, 4) == c.jets(s, 0, 4)

    def test_frozen_full_motion(self, parabola):
        # (s, s^2/2, 0) at s = 0.5; every float below is exact
        m = SimilarityMotion(a=1.0, b=2.0, c=0.5, d=1.0, e=-1.0, f=0.0,
                             r=3.0, theta=0.0)
        p0, p1, p2 = apply_similarity(parabola.curve, m).jets(2.0, 0, 2)
        assert p0.as_tuple() == (2.0, 1.375, -1.0)
        assert p1.as_tuple() == (1.0, 1.25, 0.0)
        assert p2.as_tuple() == (0.0, 0.75, 0.0)
        # a boost by ln 2: cosh = 1.25, sinh = 0.75
        boosted = apply_similarity(parabola.curve,
                                   SimilarityMotion(theta=math.log(2.0)))
        assert boosted.position(0.5).as_tuple() == pytest.approx(
            (0.5, 0.15625, 0.09375), rel=1e-15)

    def test_isometry_preserves_scalar_product(self, general_helix):
        m = SimilarityMotion(a=0.3, c=-1.2, d=0.8, e=2.0, f=-0.4, theta=0.9)
        moved = apply_similarity(general_helix.curve, m)
        for s in (0.25, 1.0, 1.75):
            base = general_helix.curve.jets(s, 1, 3)
            image = moved.jets(0.3 + s, 1, 3)
            for i in range(3):
                for j in range(i, 3):
                    assert pg_dot(image[i], image[j]) == pytest.approx(
                        pg_dot(base[i], base[j]), rel=1e-13, abs=1e-13)

    def test_boost_preserves_causal_class(self, general_helix,
                                          mirrored_helix):
        m = SimilarityMotion(theta=1.3)
        for entry, eps in ((general_helix, 1), (mirrored_helix, -1)):
            moved = apply_similarity(entry.curve, m)
            for s in (0.25, 1.0, 1.75):
                assert frenet_data(moved, s).epsilon == eps

    def test_linear_part_matches_full_motion_on_differences(self,
                                                             general_helix):
        m = SimilarityMotion(a=1.0, b=1.5, c=-0.3, d=0.2, e=0.7, f=-0.9,
                             r=2.0, theta=-0.4)
        linear = SimilarityMotion(b=1.5, d=0.2, f=-0.9, r=2.0, theta=-0.4)
        full = apply_similarity(general_helix.curve, m)
        lin = apply_similarity(general_helix.curve, linear)
        for s, u in ((0.25, 1.5), (1.0, 0.5)):
            lhs = full.position(1.0 + 1.5 * s) - full.position(1.0 + 1.5 * u)
            rhs = lin.position(1.5 * s) - lin.position(1.5 * u)
            assert lhs.as_tuple() == pytest.approx(rhs.as_tuple(),
                                                   rel=1e-14, abs=1e-14)
