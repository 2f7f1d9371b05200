"""Property-based tests of the algebraic core and the series arithmetic."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

from pg_curvelab.algebra import (
    CausalClass,
    PGVector,
    SimilarityMotion,
    apply_similarity,
    apply_similarity_linear,
    causal_class,
    pg_cross,
    pg_dot,
)
from pg_curvelab.series import DSeries

settings.register_profile("no_deadline", deadline=None)
settings.load_profile("no_deadline")

component = st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False)
vectors = st.builds(PGVector, component, component, component)
isotropic = st.builds(PGVector, st.just(0.0), component, component)

small = st.floats(min_value=-3.0, max_value=3.0,
                  allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(small, min_size=1, max_size=4)

boosts = st.builds(
    SimilarityMotion,
    a=st.floats(min_value=-5.0, max_value=5.0),
    c=st.floats(min_value=-5.0, max_value=5.0),
    e=st.floats(min_value=-5.0, max_value=5.0),
    d=st.floats(min_value=-2.0, max_value=2.0),
    f=st.floats(min_value=-2.0, max_value=2.0),
    theta=st.floats(min_value=-2.0, max_value=2.0),
)


# every finite double, so that sums, products and quotients can overflow
finite = st.floats(allow_nan=False, allow_infinity=False)
triples = st.tuples(finite, finite, finite)
scalars = st.one_of(finite, st.integers(-3, 3))


def bits(xs) -> tuple[bytes, ...]:
    """The IEEE bit patterns, so that -0.0 and 0.0 differ."""
    return tuple(struct.pack("<d", x) for x in xs)


def assert_componentwise(build, expected) -> None:
    """``build()`` gives the componentwise floats ``expected`` bit for bit,
    or raises the finiteness error when one of them overflowed."""
    if all(map(math.isfinite, expected)):
        assert bits(build().as_tuple()) == bits(expected)
    else:
        with pytest.raises(ValueError, match="must be finite"):
            build()


class TestVectorArithmeticBits:
    """PGVector arithmetic is the componentwise float arithmetic."""

    @given(triples, triples)
    def test_sum_and_difference(self, a, b):
        u, v = PGVector(*a), PGVector(*b)
        assert_componentwise(lambda: u + v, [x + y for x, y in zip(a, b)])
        assert_componentwise(lambda: u - v, [x - y for x, y in zip(a, b)])

    @given(triples)
    def test_negation(self, a):
        assert_componentwise(lambda: -PGVector(*a), [-x for x in a])

    @given(triples, scalars)
    def test_scaling_from_either_side(self, a, eps):
        u = PGVector(*a)
        expected = [eps * x for x in a]
        assert_componentwise(lambda: eps * u, expected)
        assert_componentwise(lambda: u * eps, expected)

    @given(triples, scalars)
    def test_division(self, a, eps):
        u = PGVector(*a)
        if eps == 0:
            with pytest.raises(ZeroDivisionError):
                u / eps
            return
        assert_componentwise(lambda: u / eps, [x / eps for x in a])


class TestMetricProperties:
    @given(vectors, vectors)
    def test_cross_product_is_isotropic_and_antisymmetric(self, u, v):
        c = pg_cross(u, v)
        assert c.x1 == 0.0
        d = pg_cross(v, u)
        assert (d.x1, d.x2, d.x3) == (-c.x1, -c.x2, -c.x3)

    @given(vectors, vectors)
    def test_dot_is_symmetric(self, u, v):
        assert pg_dot(u, v) == pg_dot(v, u)

    @given(vectors, vectors)
    def test_cross_is_orthogonal_to_both_factors(self, u, v):
        c = pg_cross(u, v)
        tol = 1e-12 * (1.0 + u.max_abs() ** 2 * v.max_abs()
                       + v.max_abs() ** 2 * u.max_abs())
        assert abs(pg_dot(u, c)) <= tol
        assert abs(pg_dot(v, c)) <= tol

    @given(vectors, vectors)
    def test_projective_part_dominates_the_dot(self, u, v):
        if u.x1 != 0.0 or v.x1 != 0.0:
            assert pg_dot(u, v) == u.x1 * v.x1
        else:
            assert pg_dot(u, v) == u.x2 * v.x2 - u.x3 * v.x3

    @given(isotropic)
    def test_causal_class_tracks_the_quadratic_form(self, v):
        q = pg_dot(v, v)
        cls = causal_class(v)
        if v.x2 == 0.0 and v.x3 == 0.0:
            assert cls is CausalClass.ZERO
        elif q > 0.0:
            assert cls is CausalClass.SPACELIKE
        elif q < 0.0:
            assert cls is CausalClass.TIMELIKE
        else:
            assert cls is CausalClass.LIGHTLIKE

    @given(boosts, vectors, vectors)
    def test_isometries_preserve_the_dot(self, m, u, v):
        assert m.is_isometry
        mu = apply_similarity_linear(m, u)
        mv = apply_similarity_linear(m, v)
        tol = 1e-12 * (1.0 + mu.max_abs() * mv.max_abs()
                       + u.max_abs() * v.max_abs())
        assert abs(pg_dot(mu, mv) - pg_dot(u, v)) <= tol

    @given(boosts, isotropic)
    def test_isometries_preserve_causal_class_off_the_cone(self, m, v):
        q = v.x2 * v.x2 - v.x3 * v.x3
        assume(abs(q) > 1e-6 * (v.x2 * v.x2 + v.x3 * v.x3))
        assert causal_class(apply_similarity_linear(m, v)) is causal_class(v)

    @given(boosts, vectors, vectors)
    def test_point_map_minus_point_map_is_the_linear_map(self, m, p, q):
        lhs = apply_similarity(m, p) - apply_similarity(m, q)
        rhs = apply_similarity_linear(m, p - q)
        scale = 1.0 + p.max_abs() + q.max_abs()
        assert (lhs - rhs).max_abs() <= 1e-9 * scale


class TestSeriesProperties:
    @given(coeff_lists, coeff_lists)
    def test_product_commutes(self, a, b):
        n = min(len(a), len(b))
        x = DSeries(a[:n])
        y = DSeries(b[:n])
        left = (x * y).vals
        right = (y * x).vals
        for lv, rv in zip(left, right):
            assert lv == rv or abs(lv - rv) <= 1e-12 * (1.0 + abs(lv))

    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_product_distributes_over_addition(self, a, b, c):
        n = min(len(a), len(b), len(c))
        x, y, z = DSeries(a[:n]), DSeries(b[:n]), DSeries(c[:n])
        left = ((x + y) * z).vals
        right = (x * z + y * z).vals
        for lv, rv in zip(left, right):
            assert abs(lv - rv) <= 1e-10 * (1.0 + abs(lv) + abs(rv))

    @given(coeff_lists)
    def test_truncated_product_forgets_high_orders_exactly(self, a):
        x = DSeries(a)
        y = x * x
        for n in range(1, len(a) + 1):
            assert (x.truncate(n) * x.truncate(n)).vals == y.truncate(n).vals

    @given(st.floats(min_value=0.25, max_value=4.0), st.lists(
        small, min_size=0, max_size=3))
    def test_sqrt_squares_back(self, lead, rest):
        s = DSeries([lead, *rest])
        r = s.sqrt()
        back = (r * r).vals
        for got, want in zip(back, s.vals):
            assert got == want or abs(got - want) <= 1e-8 * (1.0 + abs(want))

    @given(st.floats(min_value=0.25, max_value=4.0), st.booleans(),
           st.lists(small, min_size=0, max_size=3))
    def test_reciprocal_multiplies_back_to_one(self, lead, negate, rest):
        s = DSeries([-lead if negate else lead, *rest])
        back = (s.reciprocal() * s).vals
        assert abs(back[0] - 1.0) <= 1e-10
        for v in back[1:]:
            assert abs(v) <= 1e-8

    @given(coeff_lists, st.floats(min_value=0.25, max_value=4.0),
           st.booleans(), st.lists(small, min_size=0, max_size=3))
    @settings(max_examples=60)
    def test_division_multiplies_back(self, a, lead, negate, rest):
        denom_vals = [-lead if negate else lead, *rest]
        n = min(len(a), len(denom_vals))
        num = DSeries(a[:n])
        den = DSeries(denom_vals[:n])
        back = ((num / den) * den).vals
        for got, want in zip(back, num.vals):
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))
