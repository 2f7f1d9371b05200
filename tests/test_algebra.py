"""Scalar product, cross product, causal classes and the similarity group."""

from __future__ import annotations

import copy
import math
import pickle

import pytest

from pg_curvelab.algebra import (
    CausalClass,
    PGVector,
    SimilarityMotion,
    apply_similarity,
    apply_similarity_linear,
    causal_class,
    det3,
    pg_cross,
    pg_dot,
)


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


class TestCrossProduct:
    def test_frozen_value(self):
        w = pg_cross(PGVector(1.0, 2.0, 3.0), PGVector(4.0, 5.0, 6.0))
        assert w.as_tuple() == (0.0, -6.0, -3.0)

    def test_result_is_isotropic(self):
        w = pg_cross(PGVector(2.0, -1.0, 0.5), PGVector(-3.0, 0.0, 1.0))
        assert w.x1 == 0.0

    def test_vanishes_on_parallel_vectors(self):
        u = PGVector(2.0, -1.0, 0.5)
        assert pg_cross(u, 3.0 * u).as_tuple() == (0.0, 0.0, 0.0)


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


@pytest.mark.parametrize("vec, expected", [
    ((1.0, 2.0, 3.0), CausalClass.NON_ISOTROPIC),
    ((-0.5, 0.0, 0.0), CausalClass.NON_ISOTROPIC),
    ((0.0, 0.0, 0.0), CausalClass.ZERO),
    ((0.0, 2.0, 1.0), CausalClass.SPACELIKE),
    ((0.0, 1.0, 2.0), CausalClass.TIMELIKE),
    ((0.0, 1.0, 1.0), CausalClass.LIGHTLIKE),
    ((0.0, 1.0, -1.0), CausalClass.LIGHTLIKE),
    ((0.0, -3.0, 0.0), CausalClass.SPACELIKE),
    ((0.0, 0.0, 0.25), CausalClass.TIMELIKE),
])
def test_causal_class(vec, expected):
    assert causal_class(PGVector(*vec)) is expected


class TestSimilarityMotion:
    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            SimilarityMotion(r=0.0)

    def test_is_isometry(self):
        assert SimilarityMotion().is_isometry
        assert SimilarityMotion(a=3.0, c=-1.0, d=2.0, theta=0.7).is_isometry
        assert not SimilarityMotion(b=2.0).is_isometry
        assert not SimilarityMotion(r=0.5).is_isometry

    def test_identity_fixes_points(self):
        p = PGVector(1.5, -2.0, 0.25)
        assert apply_similarity(SimilarityMotion(), p).as_tuple() == p.as_tuple()

    def test_translation_moves_points_not_vectors(self):
        m = SimilarityMotion(a=1.0, c=2.0, e=3.0)
        p = PGVector(0.5, 0.5, 0.5)
        assert apply_similarity(m, p).as_tuple() == (1.5, 2.5, 3.5)
        assert apply_similarity_linear(m, p).as_tuple() == p.as_tuple()

    def test_frozen_full_motion(self):
        m = SimilarityMotion(a=1.0, b=2.0, c=0.5, d=1.0, e=-1.0, f=0.0,
                             r=3.0, theta=0.0)
        q = apply_similarity(m, PGVector(2.0, 1.0, -1.0))
        assert q.as_tuple() == (5.0, 5.5, -4.0)

    def test_isometry_preserves_scalar_product(self):
        m = SimilarityMotion(a=0.3, c=-1.2, d=0.8, e=2.0, f=-0.4, theta=0.9)
        pairs = [
            (PGVector(1.0, 2.0, 3.0), PGVector(-0.5, 1.0, 0.25)),
            (PGVector(0.0, 2.0, 3.0), PGVector(0.0, -1.0, 0.5)),
            (PGVector(0.0, 1.5, -2.5), PGVector(0.0, 1.5, -2.5)),
        ]
        for u, v in pairs:
            lu = apply_similarity_linear(m, u)
            lv = apply_similarity_linear(m, v)
            assert pg_dot(lu, lv) == pytest.approx(pg_dot(u, v), rel=1e-13, abs=1e-13)

    def test_boost_preserves_causal_class(self):
        m = SimilarityMotion(theta=1.3)
        for vec, cls in [((0.0, 2.0, 1.0), CausalClass.SPACELIKE),
                         ((0.0, 1.0, 2.0), CausalClass.TIMELIKE)]:
            assert causal_class(apply_similarity_linear(m, PGVector(*vec))) is cls

    def test_linear_part_matches_full_motion_on_differences(self):
        m = SimilarityMotion(a=1.0, b=1.5, c=-0.3, d=0.2, e=0.7, f=-0.9,
                             r=2.0, theta=-0.4)
        p = PGVector(0.25, -1.0, 2.0)
        q = PGVector(-0.75, 0.5, 1.0)
        lhs = apply_similarity(m, p) - apply_similarity(m, q)
        rhs = apply_similarity_linear(m, p - q)
        assert lhs.as_tuple() == pytest.approx(rhs.as_tuple(), rel=1e-14, abs=1e-14)
