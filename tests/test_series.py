"""Derivative-series arithmetic against hand-derived calculus values."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from pg_curvelab.series import DSeries


def sin_jets(x: float) -> DSeries:
    return DSeries((math.sin(x), math.cos(x), -math.sin(x), -math.cos(x)))


def cos_jets(x: float) -> DSeries:
    return DSeries((math.cos(x), -math.sin(x), -math.cos(x), math.sin(x)))


def exp_jets(x: float) -> DSeries:
    return DSeries((math.exp(x),) * 4)


class TestBasics:
    def test_len_getitem_repr(self):
        s = DSeries((1.0, 2.0, 3.0))
        assert len(s) == 3
        assert s[1] == 2.0
        assert repr(s) == "DSeries(1.0, 2.0, 3.0)"
        assert repr(DSeries((1.0, 2.0), (0.5, 0.25))) == \
            "DSeries((1.0, 2.0), errs=(0.5, 0.25))"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DSeries(())

    def test_truncate_and_constant(self):
        s = DSeries((1.0, 2.0, 3.0, 4.0))
        assert s.truncate(2).vals == (1.0, 2.0)
        assert DSeries.constant(5.0, 3).vals == (5.0, 0.0, 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            DSeries((1.0, 2.0)) + DSeries((1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="errs and vals lengths differ"):
            DSeries((1.0, 2.0), (0.5,))

    def test_add_sub_neg_scalar(self):
        a = DSeries((1.0, 2.0, 3.0))
        b = DSeries((0.5, -1.0, 4.0))
        assert (a + b).vals == (1.5, 1.0, 7.0)
        assert (a - b).vals == (0.5, 3.0, -1.0)
        assert (-a).vals == (-1.0, -2.0, -3.0)
        assert (2.0 * a).vals == (2.0, 4.0, 6.0)


class TestProduct:
    def test_against_product_rule_for_exp_times_sin(self):
        # d^k/dx^k of e^x sin x at x = 0.7
        got = exp_jets(0.7) * sin_jets(0.7)
        assert got.vals == pytest.approx((
            1.297295111875269,
            2.8374981373070494,
            3.08040605086356,
            0.4858158271130221,
        ), rel=1e-14)

    def test_polynomial_product_is_exact(self):
        # (x^2) * (x^3) = x^5 at x = 2: values 32, 80, 160, 240
        x = 2.0
        p2 = DSeries((x * x, 2.0 * x, 2.0, 0.0))
        p3 = DSeries((x ** 3, 3.0 * x * x, 6.0 * x, 6.0))
        assert (p2 * p3).vals == (32.0, 80.0, 160.0, 240.0)


class TestQuotient:
    def test_against_quotient_rule_for_tan(self):
        # d^k/dx^k of tan x at x = 0.3
        got = sin_jets(0.3) / cos_jets(0.3)
        assert got.vals == pytest.approx((
            0.30933624960962325,
            1.095688915322547,
            0.6778725996094256,
            2.8204495336740103,
        ), rel=1e-13)

    def test_zero_leading_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError, match="zero leading"):
            DSeries((1.0, 0.0)) / DSeries((0.0, 1.0))

    def test_self_division_gives_one(self):
        s = DSeries((2.0, -3.0, 0.5, 7.0))
        assert (s / s).vals == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-15)

    def test_reciprocal_times_self_gives_one(self):
        s = DSeries((0.8, 1.1, -0.6, 2.0))
        assert (s.reciprocal() * s).vals == pytest.approx(
            (1.0, 0.0, 0.0, 0.0), abs=1e-14)


class TestSqrt:
    def test_square_of_linear_comes_back_linear(self):
        # jets of (1 + x)^2 at x = 0.5 are (2.25, 3, 2, 0); sqrt jets are
        # those of 1 + x, and every division is float-exact here
        assert DSeries((2.25, 3.0, 2.0, 0.0)).sqrt().vals == (1.5, 1.0, 0.0, 0.0)

    def test_sqrt_squares_back(self):
        s = DSeries((1.7, -0.4, 2.2, 0.9))
        r = s.sqrt()
        assert (r * r).vals == pytest.approx(s.vals, rel=1e-14)

    def test_nonpositive_leading_rejected(self):
        with pytest.raises(ValueError, match="positive leading"):
            DSeries((0.0, 1.0)).sqrt()
        with pytest.raises(ValueError, match="positive leading"):
            DSeries((-4.0, 1.0)).sqrt()


def test_curvature_radius_chain_matches_closed_form():
    # the chain used by the geometric modules: rho = 1 / sqrt(w) applied
    # to w(s) = e^{-2s} at s = 0.25 must reproduce rho = e^{s} jets
    s = 0.25
    w = DSeries((math.exp(-2 * s), -2 * math.exp(-2 * s), 4 * math.exp(-2 * s)))
    rho = w.sqrt().reciprocal()
    e = math.exp(s)
    assert rho.vals == pytest.approx((e, e, e), rel=1e-14)


class TestErrorBounds:
    """First-order error bounds carried through the arithmetic."""

    @staticmethod
    def _perturbed(s: DSeries, rng) -> DSeries:
        return DSeries(v + rng.choice((-1.0, 1.0)) * e
                       for v, e in zip(s.vals, s.errs))

    def test_exact_operands_carry_no_bounds(self):
        a = DSeries((1.0, 2.0, 3.0))
        b = DSeries((0.5, -1.0, 4.0))
        for out in (a + b, a - b, -a, 2.0 * a, a * b, a / b, a.sqrt(),
                    a.reciprocal(), a.truncate(2)):
            assert out.errs is None

    def test_bounds_cover_perturbed_inputs(self):
        # perturb every input entry by +-its bound: each result moves by
        # at most its propagated bound (up to second-order terms)
        import random

        rng = random.Random(7)
        a = DSeries((1.3, -0.7, 2.1, 0.4), errs=(2e-9, 1e-9, 3e-9, 5e-9))
        b = DSeries((0.9, 0.6, -1.5, 2.2), errs=(1e-9, 4e-9, 2e-9, 1e-9))
        ops = {
            "add": lambda x, y: x + y,
            "sub": lambda x, y: x - y,
            "scale": lambda x, y: -3.0 * x,
            "mul": lambda x, y: x * y,
            "div": lambda x, y: x / y,
            "sqrt": lambda x, y: x.sqrt(),
            "reciprocal": lambda x, y: y.reciprocal(),
        }
        for name, op in ops.items():
            ref = op(a, b)
            assert ref.errs is not None, name
            for _ in range(50):
                got = op(self._perturbed(a, rng), self._perturbed(b, rng))
                for k, (g, r, e) in enumerate(zip(got.vals, ref.vals,
                                                  ref.errs)):
                    assert abs(g - r) <= 1.001 * e + 1e-15, (name, k)

    def test_mixed_operands_count_the_plain_one_as_exact(self):
        a = DSeries((2.0, 1.0), errs=(1e-6, 2e-6))
        b = DSeries((3.0, -1.0))
        assert (a * b).errs == pytest.approx((3e-6, 7e-6))
        assert (b - a).errs == (1e-6, 2e-6)
        assert a.truncate(1).errs == (1e-6,)


# ---------------------------------------------------------------------------
# reference kernels: the Leibniz formulas with a math.comb per term, as the
# series arithmetic first computed them; the plan-driven kernels must give
# the same bits


def ref_product_bounds(a, ea, b, eb):
    out = []
    for k in range(len(a)):
        acc = 0.0
        for i in range(k + 1):
            acc += math.comb(k, i) * (abs(a[i]) * eb[k - i]
                                      + ea[i] * abs(b[k - i]))
        out.append(acc)
    return out


def ref_recursion_bounds(num, g):
    out = []
    for k in range(len(num)):
        acc = num[k]
        for i in range(k):
            acc += math.comb(k, i) * out[i] * abs(g[k - i])
        out.append(acc / abs(g[0]))
    return out


def ref_mul(a, ea, b, eb):
    out = [math.fsum(math.comb(k, i) * a[i] * b[k - i] for i in range(k + 1))
           for k in range(len(a))]
    if ea is None and eb is None:
        return out, None
    zero = (0.0,) * len(a)
    return out, ref_product_bounds(a, ea or zero, b, eb or zero)


def ref_div(f, ef, g, eg):
    n = len(f)
    out = [f[0] / g[0]]
    for k in range(1, n):
        acc = f[k] - math.fsum(
            math.comb(k, i) * out[i] * g[k - i] for i in range(k))
        out.append(acc / g[0])
    if ef is None and eg is None:
        return out, None
    zero = (0.0,) * n
    num = ref_product_bounds(out, zero, g, eg or zero)
    num = [e + m for e, m in zip(ef or zero, num)]
    return out, ref_recursion_bounds(num, g)


def ref_sqrt(f, ef):
    out = [math.sqrt(f[0])]
    for k in range(1, len(f)):
        acc = f[k] - math.fsum(
            math.comb(k, i) * out[i] * out[k - i] for i in range(1, k))
        out.append(acc / (2.0 * out[0]))
    if ef is None:
        return out, None
    return out, ref_recursion_bounds(ef, [2.0 * r for r in out])


def hexes(vals):
    return None if vals is None else [v.hex() for v in vals]


def outcome(fn):
    """The bits of a (vals, errs) result, or the error it raised (an
    fsum of an overflowed term raises in both kernels alike)."""
    try:
        vals, errs = fn()
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return hexes(vals), hexes(errs)


finite = st.floats(-1e6, 1e6, allow_nan=False)
bound = st.floats(0.0, 1e-3, allow_nan=False)


@st.composite
def series_pairs(draw):
    n = draw(st.integers(1, 8))
    vals = st.lists(finite, min_size=n, max_size=n)
    errs = st.none() | st.lists(bound, min_size=n, max_size=n)
    return draw(vals), draw(errs), draw(vals), draw(errs)


class TestAgainstReferenceKernels:
    @settings(max_examples=300, deadline=None)
    @given(series_pairs())
    def test_same_bits(self, pair):
        a, ea, b, eb = pair
        x, y = DSeries(a, ea), DSeries(b, eb)

        def kernel(op):
            def run():
                got = op()
                return got.vals, got.errs
            return run

        cases = [("mul", lambda: ref_mul(a, ea, b, eb), lambda: x * y)]
        if b[0] != 0.0:
            cases.append(("div", lambda: ref_div(a, ea, b, eb),
                          lambda: x / y))
        if a[0] > 0.0:
            cases.append(("sqrt", lambda: ref_sqrt(a, ea), x.sqrt))
        for name, ref, op in cases:
            assert outcome(kernel(op)) == outcome(ref), name
