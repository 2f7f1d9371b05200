"""Property-based tests of the algebraic core, the series arithmetic and
the similarity invariance of the apparatus."""

from __future__ import annotations

import math
import struct
from unittest import mock

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from pg_curvelab import bertrand
from pg_curvelab.algebra import PGVector, SimilarityMotion, pg_dot
from pg_curvelab.aw import classify
from pg_curvelab.bertrand import (BertrandNature, bertrand_mate,
                                  verify_bertrand_pair)
from pg_curvelab.curves import (CurveJet, JetKind, apply_similarity,
                                make_analytic_curve, make_lattice_curve)
from pg_curvelab.equiform import _frames_at, equiform_data, equiform_grid
from pg_curvelab.errors import (CurveLabError, InadmissibleCurveError,
                                 ParameterConstraintError)
from pg_curvelab.frenet import frenet_data, normal_character
from pg_curvelab.series import DSeries
from pg_curvelab.zoo import get_example, zoo_names

component = st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False)
vectors = st.builds(PGVector, component, component, component)
isotropic = st.builds(PGVector, st.just(0.0), component, component)

small = st.floats(min_value=-3.0, max_value=3.0,
                  allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(small, min_size=1, max_size=4)


def magnitudes(lo: float, hi: float):
    """Floats with lo <= |x| <= hi, of either sign."""
    return st.one_of(st.floats(min_value=lo, max_value=hi),
                     st.floats(min_value=-hi, max_value=-lo))


motions = st.builds(
    SimilarityMotion,
    a=st.floats(min_value=-5.0, max_value=5.0),
    b=magnitudes(0.25, 4.0),
    c=st.floats(min_value=-5.0, max_value=5.0),
    d=st.floats(min_value=-2.0, max_value=2.0),
    e=st.floats(min_value=-5.0, max_value=5.0),
    f=st.floats(min_value=-2.0, max_value=2.0),
    r=magnitudes(0.25, 4.0),
    theta=st.floats(min_value=-2.0, max_value=2.0),
)

# the isometries: b == r == 1
boosts = st.builds(
    SimilarityMotion,
    a=st.floats(min_value=-5.0, max_value=5.0),
    b=st.just(1.0),
    r=st.just(1.0),
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
    def test_dot_is_symmetric(self, u, v):
        assert pg_dot(u, v) == pg_dot(v, u)

    @given(vectors, vectors)
    def test_projective_part_dominates_the_dot(self, u, v):
        if u.x1 != 0.0 or v.x1 != 0.0:
            assert pg_dot(u, v) == u.x1 * v.x1
        else:
            assert pg_dot(u, v) == u.x2 * v.x2 - u.x3 * v.x3

    @given(boosts, vectors, vectors)
    def test_isometries_preserve_the_dot(self, m, u, v):
        mu, mv = apply_similarity(quadratic(u, v), m).jets(m.a, 1, 2)
        tol = 1e-12 * (1.0 + mu.max_abs() * mv.max_abs()
                       + u.max_abs() * v.max_abs())
        assert abs(pg_dot(mu, mv) - pg_dot(u, v)) <= tol

    @given(boosts, isotropic)
    def test_isometries_preserve_causal_class_off_the_cone(self, m, v):
        q = v.x2 * v.x2 - v.x3 * v.x3
        assume(abs(q) > 1e-6 * (v.x2 * v.x2 + v.x3 * v.x3))
        mv = apply_similarity(quadratic(PGVector(1.0, 0.0, 0.0), v),
                              m).jet(m.a, 2)
        assert normal_character(m.a, None, mv) == normal_character(0.0, None,
                                                                   v)

    @given(motions, vectors, vectors)
    def test_point_map_minus_point_map_is_the_linear_map(self, m, p, q):
        linear = SimilarityMotion(b=m.b, d=m.d, f=m.f, r=m.r, theta=m.theta)
        lhs = (apply_similarity(constant(p), m).position(m.a)
               - apply_similarity(constant(q), m).position(m.a))
        rhs = apply_similarity(constant(p - q), linear).position(0.0)
        scale = 1.0 + p.max_abs() + q.max_abs()
        assert (lhs - rhs).max_abs() <= 1e-9 * scale


def quadratic(u: PGVector, v: PGVector) -> CurveJet:
    """The curve s -> s*u + s**2/2*v on [-1, 1]: its order-1 and order-2
    jets at s = 0 are u and v."""
    zero = PGVector(0.0, 0.0, 0.0)

    def jet(s: float, order: int) -> PGVector:
        if order == 0:
            return s * u + (s * s / 2.0) * v
        if order == 1:
            return u + s * v
        return v if order == 2 else zero

    return CurveJet(jet, (-1.0, 1.0), JetKind.ANALYTIC)


def constant(p: PGVector) -> CurveJet:
    """The constant curve at p on [-1, 1]; the motions act on its
    position as on the point p."""
    zero = PGVector(0.0, 0.0, 0.0)
    return CurveJet(lambda s, order: zero if order else p, (-1.0, 1.0),
                    JetKind.ANALYTIC)


def assert_within(got: float, want: float, scale: float) -> None:
    """|got - want| <= 1e-9 * scale: relative to the size of the pair the
    value belongs to, so an invariant that vanishes is held to its
    partner's scale (and to exact zero when both vanish)."""
    assert abs(got - want) <= 1e-9 * scale, (got, want, scale)


class TestSimilarityInvariance:
    """The similarity group x -> a + b*x, (y, z) -> (c, e) + (d, f)*x +
    r*boost_theta(y, z) maps each catalogue curve to a curve with the same
    AW verdicts and normal character, kappa -> |r|*kappa/b^2,
    tau -> tau/b, and both equiform invariants scaled by b/|r|, compared
    at corresponding points t = a + b*s."""

    @given(name=st.sampled_from(zoo_names()), a=magnitudes(0.25, 2.0),
           b=magnitudes(0.25, 2.0),
           moves=st.lists(motions, min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_verdicts_and_invariant_laws(self, name, a, b, moves):
        try:
            entry = get_example(name, a, b)
            lo, hi = entry.domain
            grid = [lo + (hi - lo) * i / 6 for i in range(7)]
            base = classify(entry.curve, grid)
        except (ParameterConstraintError, InadmissibleCurveError):
            reject()
        frames = [frenet_data(entry.curve, s) for s in grid]
        datas = equiform_grid(entry.curve, grid)
        for m in moves:
            image = apply_similarity(entry.curve, m)
            tgrid = [m.a + m.b * s for s in grid]
            assert classify(image, tgrid).holds == base.holds
            lam = m.b / abs(m.r)
            for t, f0, d0, d1 in zip(tgrid, frames, datas,
                                     equiform_grid(image, tgrid)):
                f1 = frenet_data(image, t)
                assert f1.epsilon == d1.epsilon == f0.epsilon
                kappa = abs(m.r) * f0.kappa / (m.b * m.b)
                tau = f0.tau / m.b
                K, T = lam * d0.curvature, lam * d0.torsion
                for got, want, scale in (
                        (f1.kappa, kappa, kappa),
                        (f1.tau, tau, max(kappa, abs(tau))),
                        (d1.curvature, K, max(abs(K), abs(T))),
                        (d1.torsion, T, max(abs(K), abs(T)))):
                    assert_within(got, want, scale)


def assert_same_frames(c: CurveJet, s: float) -> None:
    """The frames a residual neighbour reads at s (jets of orders 1-2)
    are those of ``frenet_data`` and ``equiform_data`` bit for bit, and
    the equiform tangent's first component is their rho."""
    eps, fr, eq = _frames_at(s, c.rows((s,), 1, 2)[0])
    full = frenet_data(c, s), equiform_data(c, s)
    for frame, data in zip((fr, eq), full):
        assert eps == data.epsilon
        assert bits(frame) == bits((*data.tangent.as_tuple(),
                                    *data.normal.as_tuple(),
                                    *data.binormal.as_tuple()))
    assert bits([eq[0]]) == bits([full[1].rho])


class TestNeighbourFrames:
    """A residual neighbour off the grid is read for its frames alone;
    they must not differ in any bit from the full apparatus at s."""

    @given(name=st.sampled_from(zoo_names()), a=magnitudes(0.25, 2.0),
           b=magnitudes(0.25, 2.0), f=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_catalogue_curves(self, name, a, b, f):
        try:
            c = get_example(name, a, b).curve
            lo, hi = c.domain
            assert_same_frames(c, lo + f * (hi - lo))
        except (ParameterConstraintError, InadmissibleCurveError):
            reject()

    @given(name=st.sampled_from(zoo_names()),
           i=st.integers(min_value=8, max_value=248))
    @settings(max_examples=20)
    def test_lattice_curves(self, name, i):
        entry = get_example(name)
        lo, hi = entry.curve.domain
        spacing = (hi - lo) / 256
        c = make_lattice_curve(
            (s, *entry.curve.position(s).as_tuple())
            for s in (lo + k * spacing for k in range(257)))
        try:
            assert_same_frames(c, c.snap(lo + i * spacing))
        except InadmissibleCurveError:
            reject()


def pair_outcome(base: CurveJet, mate: CurveJet, lam: float,
                 grid: list[float]) -> tuple:
    """Every field of ``verify_bertrand_pair`` but the curves (floats as
    bit patterns), or the type and message of the error it raises."""
    try:
        p = verify_bertrand_pair(base, mate, lam, grid)
    except (CurveLabError, ValueError) as exc:
        return type(exc), str(exc)
    return (bits([p.offset, p.normal_parallel_sup, p.tangent_product_spread,
                  p.curvature_flatness_sup, p.offset_spread]),
            p.is_pair, p.nature, p.failures)


def separate_position_reads(c: CurveJet, grid: list[float],
                            first: int) -> tuple:
    """The reference sweep: ``equiform_grid``, then one position read
    per point, in the float form the sweep returns."""
    return ([c.position(s).as_tuple() for s in grid],
            [(d.epsilon, (*d[2:7], d.errors),
              (*d.tangent.as_tuple(), *d.normal.as_tuple(),
               *d.binormal.as_tuple()))
             for d in equiform_grid(c, grid)])


def assert_pair_from_bundles(base: CurveJet, lam: float, f: float) -> None:
    """Position reads and pair verification from the orders 0-4 bundles
    equal the reference bit for bit, at s = lo + f * (hi - lo) of the
    mate's domain and on the grid of s and lo + i * (hi - lo) / 5."""
    mate = bertrand_mate(base, lam)
    lo, hi = mate.domain
    s = mate.snap(lo + f * (hi - lo))
    for c in (base, mate):
        assert bits(c.jets(s, 0, 4)[0].as_tuple()) == \
            bits(c.position(s).as_tuple())
    grid = sorted({s, *(mate.snap(lo + (hi - lo) * i / 5) for i in range(6))})
    got = pair_outcome(base, mate, lam, grid)
    with mock.patch.object(bertrand, "_sweep", separate_position_reads):
        assert got == pair_outcome(base, mate, lam, grid)


class TestVerifyBundles:
    """``verify_bertrand_pair`` takes each curve's positions from the
    jet bundle of orders 0-4 it reads for the equiform data; nothing it
    reports may differ in any bit from separate position reads."""

    @given(name=st.sampled_from(zoo_names()), a=magnitudes(0.25, 2.0),
           b=magnitudes(0.25, 2.0), lam=st.floats(-1.0, 1.0),
           f=st.floats(0.0, 1.0), max_order=st.sampled_from((8, 6)))
    @settings(max_examples=60)
    def test_catalogue_mates(self, name, a, b, lam, f, max_order):
        # a base cut to order 6, the fewest a mate needs, gives order 4
        try:
            c = get_example(name, a, b).curve
            base = CurveJet(c.jet, c.domain, c.kind, max_order=max_order)
            assert_pair_from_bundles(base, lam, f)
        except (CurveLabError, ValueError):
            reject()

    @given(name=st.sampled_from(zoo_names()), lam=st.floats(-1.0, 1.0),
           f=st.floats(0.0, 1.0))
    @settings(max_examples=15)
    def test_lattice_mates(self, name, lam, f):
        entry = get_example(name)
        lo, hi = entry.curve.domain
        spacing = (hi - lo) / 256
        samples = [(s, *entry.curve.position(s).as_tuple())
                   for s in (lo + k * spacing for k in range(257))]
        try:
            assert_pair_from_bundles(make_lattice_curve(samples), lam, f)
        except (CurveLabError, ValueError):
            reject()


def curve_of(yz, timelike: bool) -> CurveJet:
    """The exact curve (s, y, z) on [-1, 1], with jets to order 6 from
    ``yz(s, k)``, the k-th derivatives of y and z; ``timelike`` swaps y
    and z, which flips the character of the normal."""
    def order(k: int):
        def jet(s: float) -> PGVector:
            y, z = yz(s, k)
            return PGVector((s, 1.0)[k] if k < 2 else 0.0,
                            *((z, y) if timelike else (y, z)))
        return jet
    fns = [order(k) for k in range(7)]
    return make_analytic_curve(*fns[:5], domain=(-1.0, 1.0), higher=fns[5:])


def helix(a: float, b: float):
    """(a/b^2)(cosh bs, sinh bs): kappa = |a| and tau = +-b."""
    def yz(s: float, k: int) -> tuple[float, float]:
        ch, sh, c = math.cosh(b * s), math.sinh(b * s), a * b ** (k - 2)
        return (c * ch, c * sh) if k % 2 == 0 else (c * sh, c * ch)
    return yz


def witness(kappa: float):
    """y'' = kappa sqrt(1 + s^2), z'' = kappa s: constant kappa and
    tau = 1/sqrt(1 + s^2)."""
    def yz(s: float, k: int) -> tuple[float, float]:
        q = 1.0 + s * s
        r = math.sqrt(q)
        y = ((r * q / 3 + s * math.asinh(s) - r) / 2,
             (s * r + math.asinh(s)) / 2, r, s / r, 1 / (r * q),
             -3 * s / (r * q * q), -3 * (1 - 4 * s * s) / (r * q ** 3))[k]
        z = (s ** 3 / 6, s * s / 2, s, 1.0, 0.0, 0.0, 0.0)[k]
        return kappa * y, kappa * z
    return yz


def holding(c: CurveJet, grid: list[float]) -> set[str]:
    return {n for n, v in classify(c, grid).verdicts.items() if v.holds}


class TestBertrandTheorem:
    """The paper's Bertrand claims on exact curves of either normal
    character: the mate of a circular helix at offset lam keeps K = 0,
    tau and the AW verdicts, with kappa* = kappa |1 + lam T^2| and
    T* = T / |1 + lam T^2|; a curve of constant kappa whose tau varies
    has no mate at any offset |lam| >= 0.1."""

    GRID = [-0.8 + 0.16 * i for i in range(11)]

    @given(a=magnitudes(0.2, 5.0), b=magnitudes(0.2, 5.0),
           lam=st.floats(-3.0, 3.0), timelike=st.booleans())
    @settings(max_examples=30)
    def test_helix_mates(self, a, b, lam, timelike):
        t2 = (b / a) ** 2                   # T = tau / kappa
        # 1 + lam T^2 = 0 flattens the mate; within round-off of it the
        # mate is numerically an inflection
        assume(abs(1.0 + lam * t2) > 1e-3)
        factor = abs(1.0 + lam * t2)
        base = curve_of(helix(a, b), timelike)
        mate = bertrand_mate(base, lam)
        for s in self.GRID[::5]:
            fb, fm = frenet_data(base, s), frenet_data(mate, s)
            eb, em = equiform_data(base, s), equiform_data(mate, s)
            # round-off grows with the offset's share of the mate's jets
            # and with (y''^2 + z''^2) / kappa^2 = cosh 2bs
            tol = 1e-12 * (1.0 + abs(lam) * t2) / factor * math.cosh(2 * b * s)
            assert max(abs(eb.curvature), abs(em.curvature)) <= \
                tol * max(1.0, abs(em.torsion))
            assert abs(fm.tau - fb.tau) <= tol * abs(fb.tau)
            assert abs(fm.kappa - fb.kappa * factor) <= tol * fm.kappa
            assert abs(em.torsion * factor - eb.torsion) <= \
                tol * abs(eb.torsion)
        assert holding(mate, self.GRID) == holding(base, self.GRID) == \
            {"AW3", "WeakAW3"}

    @given(kappa=magnitudes(0.2, 5.0), lam=magnitudes(0.1, 3.0),
           timelike=st.booleans())
    @settings(max_examples=20)
    def test_no_mate_when_torsion_varies(self, kappa, lam, timelike):
        base = curve_of(witness(kappa), timelike)
        try:
            pair = verify_bertrand_pair(base, bertrand_mate(base, lam), lam,
                                        self.GRID)
        except InadmissibleCurveError:
            return      # an offset that makes the curve inadmissible fails
        assert not pair.is_pair
        assert pair.nature is BertrandNature.NOT_BERTRAND


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
