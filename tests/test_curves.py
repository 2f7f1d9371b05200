"""Curve constructors, finite-difference jets, admissibility, similarity
motions and homothety."""

from __future__ import annotations

import copy
import math
import pickle

import pytest

from pg_curvelab import curves
from pg_curvelab.algebra import PGVector, SimilarityMotion
from pg_curvelab.cli import main
from pg_curvelab.curves import (
    CurveJet,
    FDVector,
    JetKind,
    LATTICE_MIN_ROWS,
    _weights,
    apply_homothety,
    apply_similarity,
    make_analytic_curve,
    make_lattice_curve,
    make_sampled_curve,
)
from pg_curvelab.errors import (
    EmptyDomainError,
    EmptyGridError,
    InadmissibleCurveError,
    JetOrderError,
    NarrowDomainError,
    StepTooSmallError,
)
from pg_curvelab.frenet import check_admissibility
from pg_curvelab.zoo import get_example


def cubic_jets():
    """Jets of (s, s^3/6, s^2/2) as analytic derivative functions."""
    return (
        lambda s: PGVector(s, s ** 3 / 6.0, 0.5 * s * s),
        lambda s: PGVector(1.0, 0.5 * s * s, s),
        lambda s: PGVector(0.0, s, 1.0),
        lambda s: PGVector(0.0, 1.0, 0.0),
        lambda s: PGVector(0.0, 0.0, 0.0),
    )


class TestCurveJet:
    def test_basic_evaluation_and_span(self):
        c = make_analytic_curve(*cubic_jets(), domain=(0.0, 2.0))
        assert c.kind is JetKind.ANALYTIC
        assert c.max_order == 4
        assert c.jet(1.0, 2).as_tuple() == (0.0, 1.0, 1.0)
        assert c.position(0.5).as_tuple() == (0.5, 0.5 ** 3 / 6.0, 0.125)

    def test_order_out_of_range(self):
        c = make_analytic_curve(*cubic_jets(), domain=(0.0, 2.0))
        with pytest.raises(JetOrderError, match="orders 0..4"):
            c.jet(1.0, 5)
        with pytest.raises(JetOrderError):
            c.jet(1.0, -1)

    def test_domain_check_has_small_slack(self):
        c = make_analytic_curve(*cubic_jets(), domain=(0.0, 2.0))
        # 1e-9-scale slack absorbs endpoint rounding from grid arithmetic
        assert c.jet(2.0 + 5e-10, 0).x1 == pytest.approx(2.0)
        with pytest.raises(ValueError, match="outside domain"):
            c.jet(2.0 + 1e-7, 0)
        with pytest.raises(ValueError, match="outside domain"):
            c.jet(-1.0, 0)

    @pytest.mark.parametrize("kind", ["analytic", "sampled", "lattice"])
    def test_nan_parameter_is_outside_every_domain(self, kind):
        # NaN fails both domain comparisons, so it is rejected by the
        # domain check itself, before any jet function runs
        if kind == "analytic":
            c = make_analytic_curve(*cubic_jets(), domain=(0.0, 2.0))
        elif kind == "sampled":
            c = make_sampled_curve(lambda s: PGVector(s, math.cosh(s), 0.0),
                                   (0.0, 2.0))
        else:
            c = lattice_curve(0.0, 2.0 ** -6, 129)
        lo, hi = c.domain
        message = f"parameter nan outside domain \\[{lo}, {hi}\\]"
        with pytest.raises(ValueError, match=message):
            c.jet(math.nan, 0)
        with pytest.raises(ValueError, match=message):
            c.jets(math.nan, 1, 4)

    def test_bundle_calls_the_jet_function_once_per_order(self):
        fns = cubic_jets()
        calls = []

        def jet_fn(s, order):
            calls.append((s, order))
            return fns[order](s)

        c = CurveJet(jet_fn, (0.0, 2.0), JetKind.ANALYTIC, max_order=4,
                     warnings=("note",))
        got = c.jets(1.5, 1, 4)
        assert calls == [(1.5, 1), (1.5, 2), (1.5, 3), (1.5, 4)]
        assert got == tuple(c.jet(1.5, k) for k in range(1, 5))
        assert c.jets(0.5, 0, 0) == (fns[0](0.5),)

    def test_bundle_uses_the_curve_bundle_function(self):
        fns = cubic_jets()

        def rows_fn(points, first, last):
            return [[v for k in range(first, last + 1)
                     for v in (*fns[k](s).as_tuple(), 0.0)] for s in points]

        c = CurveJet(None, (0.0, 2.0), JetKind.ANALYTIC, rows_fn=rows_fn)
        assert c.jets(1.0, 2, 3) == (fns[2](1.0), fns[3](1.0))
        assert c.jet(1.0, 2) == fns[2](1.0)

    @pytest.mark.parametrize("view", ["jet", "jets"])
    def test_the_two_jet_views_agree(self, view):
        # one view given, the other derived: a single order is the
        # one-order bundle and a bundle is the tuple of single orders,
        # bit for bit, FD error bounds included
        sampled = make_sampled_curve(lambda s: PGVector(s, math.cosh(s),
                                                        math.sin(s)),
                                     (0.0, 2.0))
        if view == "jet":
            c = CurveJet(sampled.jet, sampled.domain, sampled.kind)
        else:
            c = CurveJet(None, sampled.domain, sampled.kind,
                         rows_fn=sampled.rows)
        for s in (0.0, 0.7, 2.0):
            for k in range(5):
                assert c.jet(s, k) == c.jets(s, k, k)[0] == sampled.jet(s, k)
            for a in range(5):
                for b in range(a, 5):
                    assert c.jets(s, a, b) == tuple(
                        c.jet(s, k) for k in range(a, b + 1))
        assert isinstance(c.jet(0.7, 3), FDVector) and c.jet(0.7, 3).err > 0

    def test_bundle_checks_orders_and_domain(self):
        c = make_analytic_curve(*cubic_jets(), domain=(0.0, 2.0))
        with pytest.raises(JetOrderError, match="order 5 not available"):
            c.jets(1.0, 1, 5)
        with pytest.raises(JetOrderError, match="order -1 not available"):
            c.jets(1.0, -1, 2)
        with pytest.raises(JetOrderError, match="empty order range"):
            c.jets(1.0, 3, 2)
        with pytest.raises(ValueError, match="outside domain"):
            c.jets(2.0 + 1e-7, 1, 4)

    def test_immutable(self):
        c = make_analytic_curve(*cubic_jets(), domain=(0.0, 2.0))
        with pytest.raises(AttributeError, match="immutable"):
            c.max_order = 7

    def test_empty_domain_rejected(self):
        with pytest.raises(EmptyDomainError):
            CurveJet(lambda s, k: PGVector(s, 0.0, 0.0), (1.0, 1.0),
                     JetKind.ANALYTIC)

    def test_jet_function_errors_name_their_point(self):
        # a closed form that leaves the double range, or its own domain,
        # keeps its error class and names the parameter it was read at
        def jet_fn(s, k):
            if k == 1:
                return PGVector(1.0, math.log(s), 0.0)
            return PGVector(s if k == 0 else 0.0, math.exp(1000.0 * s), 0.0)

        c = CurveJet(jet_fn, (-1.0, 1.0), JetKind.ANALYTIC)
        with pytest.raises(OverflowError) as exc:
            c.jets(0.75, 0, 0)
        assert type(exc.value) is OverflowError
        assert str(exc.value) == "math range error at s=0.75"
        with pytest.raises(ValueError) as exc:
            c.jet(-0.5, 1)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "math domain error at s=-0.5"
        assert c.jet(0.5, 1).x2 == math.log(0.5)
        # a grid call names the point that fails, its second, once
        for call in (c.rows, c.bundles):
            with pytest.raises(OverflowError) as exc:
                call([0.5, 0.75, 1.0], 0, 1)
            assert str(exc.value) == "math range error at s=0.75"

    def test_jet_function_error_bounds_enter_the_row(self):
        # a finite err goes into the row bit for bit; a non-finite one is
        # rejected as a non-finite component is, naming s
        err = float.fromhex("0x1.23456789abcdfp-40")

        def jet_fn(s, k):
            return FDVector(s if k == 0 else float(k == 1), 0.5 * s, -0.0,
                            math.inf if s == 0.2 else err)

        c = CurveJet(jet_fn, (0.0, 1.0), JetKind.FINITE_DIFFERENCE)
        assert c.rows([0.5], 0, 1) == [[0.5, 0.25, -0.0, err,
                                        1.0, 0.25, -0.0, err]]
        assert c.jet(0.5, 1).err.hex() == err.hex()
        for call in (c.jet, lambda s: c.rows([0.5, s], 0, 2)):
            with pytest.raises(ValueError) as exc:
                call(0.2)
            assert str(exc.value) == ("PGVector components must be finite, "
                                      "got inf at s=0.2")


class TestAnalyticConstructor:
    def test_empty_domain_rejected(self):
        with pytest.raises(EmptyDomainError):
            make_analytic_curve(*cubic_jets(), domain=(1.0, 1.0))

    def test_x_offset_is_normalized_away(self):
        fns = list(cubic_jets())
        shifted = lambda s: PGVector(s + 5.0, s ** 3 / 6.0, 0.5 * s * s)
        c = make_analytic_curve(shifted, *fns[1:], domain=(0.0, 2.0))
        assert c.position(0.75).x1 == 0.75
        assert c.warnings == ()

    def test_consistent_jets_produce_no_warnings(self):
        c = make_analytic_curve(*cubic_jets(), domain=(0.0, 2.0))
        assert c.warnings == ()

    def test_non_arclength_position_warns(self):
        fns = list(cubic_jets())
        stretched = lambda s: PGVector(2.0 * s, s ** 3 / 6.0, 0.5 * s * s)
        c = make_analytic_curve(stretched, *fns[1:], domain=(0.0, 2.0))
        assert any("differs from s" in w for w in c.warnings)

    def test_inconsistent_derivative_warns_but_builds(self):
        fns = list(cubic_jets())
        fns[2] = lambda s: PGVector(0.0, -s, 1.0)       # wrong sign
        c = make_analytic_curve(*fns, domain=(0.0, 2.0))
        assert any("order-2" in w for w in c.warnings)
        # warnings are diagnostics, not errors: evaluation still works
        assert c.jet(1.0, 2).x2 == -1.0

    def test_higher_order_jets_extend_max_order(self):
        fns = list(cubic_jets())
        c = make_analytic_curve(*fns, domain=(0.0, 2.0),
                                higher=[lambda s: PGVector(0.0, 0.0, 0.0)])
        assert c.max_order == 5
        assert c.jet(1.0, 5).as_tuple() == (0.0, 0.0, 0.0)


class TestSampledConstructor:
    def test_degree_five_polynomial_jets_are_exact(self):
        # the Richardson-combined stencils annihilate polynomials up to
        # degree 5, so only round-off is left at a dyadic step
        def position(s):
            return PGVector(s, s ** 5 / 40.0 + s ** 3 / 6.0, 0.5 * s * s)

        c = make_sampled_curve(position, (-1.0, 1.0), h=0.25)
        s = 0.25
        expected = [
            (1.0, s ** 4 / 8.0 + 0.5 * s * s, s),
            (0.0, 0.5 * s ** 3 + s, 1.0),
            (0.0, 1.5 * s * s + 1.0, 0.0),
            (0.0, 3.0 * s, 0.0),
        ]
        for order, exp in enumerate(expected, start=1):
            got = c.jet(s, order)
            assert got.as_tuple() == pytest.approx(exp, abs=1e-9)

    def test_default_step_tracks_analytic_invariants(self, general_helix):
        from pg_curvelab.frenet import frenet_data

        samp = make_sampled_curve(lambda s: general_helix.curve.jet(s, 0),
                                  (0.2, 1.8))
        assert samp.kind is JetKind.FINITE_DIFFERENCE
        for i in range(9):
            s = 0.3 + 0.15 * i
            f = frenet_data(samp, s)
            assert f.kappa == pytest.approx(general_helix.oracle.kappa(s),
                                            abs=1e-7)
            assert f.tau == pytest.approx(general_helix.oracle.tau(s),
                                          abs=1e-7)

    def test_probes_only_the_left_endpoint_during_construction(self):
        calls: list[float] = []

        def position(s):
            calls.append(s)
            return PGVector(s + 3.0, 0.5 * s * s, 0.0)

        c = make_sampled_curve(position, (0.0, 1.0), h=0.1)
        assert calls == [0.0]
        assert c.position(0.5).x1 == 0.5      # the x-offset was removed

    def test_roundoff_bound_step_reads_only_the_widened_domain(self):
        # at h = 1e-3 orders 3-4 take steps up to ~50h; near the ends the
        # stencils move off centre so that position is never read beyond
        # the domain widened by 4h
        calls: list[float] = []

        def position(s):
            calls.append(s)
            return PGVector(s, math.cosh(s), math.sinh(s))

        h, lo, hi = 1e-3, -0.5, 0.5
        c = make_sampled_curve(position, (lo, hi), h=h)
        reach = 0.0
        for i in range(21):
            s = lo + i * (hi - lo) / 20
            for order in range(1, 5):
                first = len(calls)
                c.jet(s, order)
                reach = max(reach, *(abs(t - s) for t in calls[first:]))
        assert reach > 20 * h                    # wide steps were taken
        assert min(calls) >= lo - 4 * h - 1e-12
        assert max(calls) <= hi + 4 * h + 1e-12

    def test_lattice_backed_curve_reads_only_lattice_nodes(self):
        # a lattice of spacing delta used the way the command line uses
        # it: h = 2 * delta, domain 8 * delta inside the lattice ends
        delta, n = 2.0 ** -10, 2049
        calls: list[float] = []

        def position(s):
            calls.append(s)
            i = round((s + 1.0) / delta)
            assert 0 <= i < n and abs(s - (-1.0 + i * delta)) < 1e-9 * delta
            return PGVector(s, math.cosh(s), math.sinh(s))

        c = make_sampled_curve(position, (-1.0 + 8 * delta, 1.0 - 8 * delta),
                               h=2 * delta)
        lo, hi = c.domain
        for i in range(0, 2049 - 16, 37):
            s = lo + i * delta
            for order in range(1, 5):
                c.jet(s, order)
        c.jet(hi, 4)
        assert len(calls) > 1000

    def test_roundoff_bound_step_keeps_high_orders_accurate(self, helix_fixture):
        # fixed steps at h = 1e-3 lose the fourth derivative to round-off
        # (error ~1e-1); the chosen steps keep it near 1e-6
        lo, hi = -0.9, 0.9
        c = make_sampled_curve(lambda s: helix_fixture.curve.jet(s, 0),
                               (lo, hi), h=1e-3)
        for i in range(13):
            s = lo + i * (hi - lo) / 12
            for order in (3, 4):
                err = (c.jet(s, order)
                       - helix_fixture.curve.jet(s, order)).max_abs()
                assert err <= 1e-5

    def test_jets_carry_error_bounds_that_hold(self, general_helix):
        c = make_sampled_curve(lambda s: general_helix.curve.jet(s, 0),
                               (0.1, 1.9), h=1e-3)
        for i in range(9):
            s = 0.1 + 0.225 * i
            assert c.jet(s, 0).__class__ is PGVector
            for order in range(1, 5):
                jet = c.jet(s, order)
                assert isinstance(jet, FDVector) and jet.err > 0.0
                err = (jet - general_helix.curve.jet(s, order)).max_abs()
                assert err <= jet.err

    def test_fornberg_weights_are_exact(self):
        # centred node sets give the classical stencils; every node set
        # differentiates monomials of degree < count exactly
        assert _weights(3, -3, 7)[:3] == (
            (-3, -2, -1, 1, 2, 3), (1, -8, 13, -13, 8, -1), 8)
        assert _weights(4, -3, 7)[:3] == (
            (-3, -2, -1, 0, 1, 2, 3), (-1, 12, -39, 56, -39, 12, -1), 6)
        for order, first, count in ((3, 0, 7), (4, -7, 8), (4, -1, 8)):
            offsets, weights, denom, _ = _weights(order, first, count)
            for p in range(count):
                moment = sum(w * x ** p for x, w in zip(offsets, weights))
                assert moment == (math.factorial(order) * denom
                                  if p == order else 0)

    def test_step_below_roundoff_guard(self):
        with pytest.raises(StepTooSmallError):
            make_sampled_curve(lambda s: PGVector(s, 0.0, 0.0), (0.0, 1.0),
                               h=1e-15)

    def test_nan_step_is_below_the_roundoff_guard(self):
        with pytest.raises(StepTooSmallError) as exc:
            make_sampled_curve(lambda s: PGVector(s, 0.0, 0.0), (0.0, 1.0),
                               h=math.nan)
        assert str(exc.value) == "step nan is below the round-off guard"

    def test_domain_too_short_for_stencils(self):
        with pytest.raises(NarrowDomainError):
            make_sampled_curve(lambda s: PGVector(s, 0.0, 0.0), (0.0, 0.1),
                               h=0.05)

    def test_empty_domain_rejected(self):
        with pytest.raises(EmptyDomainError):
            make_sampled_curve(lambda s: PGVector(s, 0.0, 0.0), (1.0, 0.0))

    def test_overflowing_x_shift_raises(self):
        # the x-shift, measured at the left domain end, is 1.5e308; the
        # nodes left of 0 read x = -1.5e308, whose shift overflows
        c = make_sampled_curve(
            lambda t: PGVector(1.5e308 if t >= 0 else -1.5e308, 0.0, t * t),
            (0.0, 1.0))
        with pytest.raises(ValueError) as exc:
            c.jets(0.0, 1, 2)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "PGVector components must be finite, got -inf"

    def test_short_window_shrinks_the_step(self, general_helix):
        # the balanced order-3/4 step is 27h, whose 7-node stencil spans
        # 0.162, wider than the window [0.496, 0.604]: every order-3/4 jet
        # steps down to a stencil that fits, and its error bound holds
        c = make_sampled_curve(general_helix.curve.position, (0.5, 0.6),
                               h=1e-3)
        for s in (0.5, 0.55, 0.6):
            for order in (3, 4):
                jet = c.jet(s, order)
                err = (jet - general_helix.curve.jet(s, order)).max_abs()
                assert err <= jet.err

    def test_exact_stencils_try_the_largest_step(self):
        # every difference of a line at a dyadic step is exactly zero, so
        # the truncation estimate is 0 and the next step tried is the
        # largest allowed; the jets stay exactly zero
        c = make_sampled_curve(lambda s: PGVector(s, 0.0, 0.0), (-1.0, 1.0),
                               h=2.0 ** -10)
        assert [j.as_tuple() for j in c.jets(0.0, 3, 4)] == \
            [(0.0, 0.0, 0.0)] * 2


def lattice_sample(s: float, shift: float = 0.0) -> tuple:
    return s, s + shift, math.cosh(s), math.sinh(s)


def lattice_curve(first: float, spacing: float, n: int, shift: float = 0.0):
    """The lattice curve of (s + shift, cosh s, sinh s) on n nodes."""
    return make_lattice_curve(lattice_sample(first + i * spacing, shift)
                              for i in range(n))


class TestLatticeConstructor:
    @pytest.mark.parametrize("shift", [0.0, 0.25])
    def test_jets_equal_the_sampled_reference(self, shift):
        # the reference: make_sampled_curve reading the same rows through a
        # position function, at the domain and step the lattice rule sets
        first, n = -1.0, 201
        samples = [lattice_sample(first + i * 0.01, shift) for i in range(n)]
        last = samples[-1][0]
        c = make_lattice_curve(samples)
        d = (last - first) / (n - 1)

        def position(t):
            return PGVector(*samples[round((t - first) / d)][1:])

        ref = make_sampled_curve(position, (first + 8 * d, last - 8 * d),
                                 h=2 * d)
        assert c.domain == ref.domain
        lo, hi = c.domain
        # an interior node and both ends, where orders 3-4 go off centre
        for s in (c.snap(0.123), lo, hi):
            assert [bits(v) for v in c.jets(s, 0, 4)] == \
                [bits(v) for v in ref.jets(s, 0, 4)]

    def test_nodes_and_snap_far_from_zero(self):
        first, n = 17412.45260415335, 942
        svals = [first + i * 0.9196491627865294 for i in range(n)]
        c = make_lattice_curve((s, s, (s - first) ** 2 / 2e3, 0.0)
                               for s in svals)
        d = (svals[-1] - first) / (n - 1)
        assert c.nodes == (first, d)
        assert c.snap(first + 100.3 * d) == first + 100 * d
        assert c.snap(first + 99.7 * d) == first + 100 * d
        # the top usable node rounds above the domain end, and is the
        # node the domain end snaps to
        lo, hi = c.domain
        assert (lo, hi) == (first + 8 * d, svals[-1] - 8 * d)
        assert c.snap(hi) == first + (n - 9) * d > hi
        analytic = make_analytic_curve(*cubic_jets(), domain=(0.0, 2.0))
        assert analytic.nodes is None and analytic.snap(0.3) == 0.3

    def test_read_between_nodes_raises(self):
        c = lattice_curve(0.0, 2.0 ** -6, 129)
        s = c.snap(1.0) + 2.0 ** -8
        with pytest.raises(ValueError, match=f"off-lattice evaluation at s={s!r}"):
            c.jet(s, 0)
        with pytest.raises(ValueError, match="off-lattice evaluation at s="):
            c.jets(s, 1, 4)

    def test_nodes_past_the_domain_are_off_lattice(self):
        # at s near 1e6 the domain check's slack, 1e-9 * |s|, reaches one
        # spacing past each end: nodes 7 and n - 8 pass it, but are no
        # domain nodes, so no row of theirs is read
        first, d, n = 1e6 - 0.21, 1e-3, 401
        c = make_lattice_curve((first + i * d, first + i * d,
                                math.cosh(i * d), 0.0) for i in range(n))
        origin, spacing = c.nodes
        for i in (7, n - 8):
            s = origin + i * spacing
            for first_order, last in ((0, 0), (1, 2), (3, 6)):
                with pytest.raises(ValueError) as exc:
                    c.rows([s], first_order, last)
                assert str(exc.value) == f"off-lattice evaluation at s={s!r}"

    @pytest.mark.parametrize("n", [0, 1, 32])
    def test_too_few_rows(self, n):
        samples = [lattice_sample(i / 64) for i in range(n)]
        with pytest.raises(NarrowDomainError) as exc:
            make_lattice_curve(samples)
        assert str(exc.value) == \
            f"need at least 33 samples to rebuild derivatives, got {n}"

    def test_overflowing_shift_is_rejected(self):
        # x = -1e308 at the left domain end and +1e308 elsewhere: the
        # x-shift, about -1e308, overflows every other row; the first of
        # them by s is named, whatever order the samples come in
        first, d, n = 0.0, 2.0 ** -6, 65
        samples = [(first + i * d, -1e308 if i == 8 else 1e308, 0.0, 0.0)
                   for i in range(n)]
        dx = -1e308 - (first + 8 * d)
        for given in (samples, samples[::-1]):
            with pytest.raises(ValueError) as exc:
                make_lattice_curve(given)
            assert type(exc.value) is ValueError
            assert str(exc.value) == (
                "samples must stay finite when x is shifted to x = s by "
                f"dx = {dx!r}, got (0.0, 1e+308, 0.0, 0.0)")

    def test_off_lattice_point_is_named_at_every_order(self):
        # the point asked for is named, before any read, in a one-point
        # call and as the first off-lattice point of a grid call
        c = lattice_curve(0.0, 2.0 ** -6, 129)
        on = c.snap(1.0)
        s = on + 0.3 * 2.0 ** -6
        for first, last in ((0, 0), (1, 2), (3, 4), (5, 6), (1, 6)):
            for points in ([s], [on, s, s + 2.0 ** -6]):
                with pytest.raises(ValueError) as exc:
                    c.rows(points, first, last)
                assert str(exc.value) == f"off-lattice evaluation at s={s!r}"

    def test_sample_order_does_not_matter(self):
        samples = [lattice_sample(-1.0 + i * 0.01, 0.25) for i in range(201)]
        c, r = make_lattice_curve(samples), make_lattice_curve(samples[::-1])
        assert (r.nodes, r.domain) == (c.nodes, c.domain)
        for s in (c.snap(0.123), *c.domain):
            assert [bits(v) for v in r.jets(s, 0, 4)] == \
                [bits(v) for v in c.jets(s, 0, 4)]

    def test_jittered_sample_is_named(self):
        samples = [lattice_sample(0.1 * i) for i in range(40)]
        s = 0.1 * 7 + 1e-4
        samples[7] = lattice_sample(s)
        with pytest.raises(ValueError) as exc:
            make_lattice_curve(samples)
        assert str(exc.value) == ("samples must lie on a uniform lattice "
                                  f"(s={s!r} is off by more than 1e-9)")

    def test_jitter_is_bounded_by_the_spacing(self):
        # at s = 1e6, 1e-9 * |s| is a whole spacing; a sample 0.4 spacings
        # off its node would read y'' = -107 there instead of 1.06
        def sample(s: float) -> tuple:
            u = s - 1e6
            return s, s, u * u / 2 + u ** 3 / 10, 0.0

        samples = [sample(1e6 + i * 1e-3) for i in range(201)]
        node = samples[100][0]
        j2 = make_lattice_curve(samples).jet(node, 2)
        assert abs(j2.x2 - 1.06) <= j2.err
        samples[100] = sample(node + 0.4e-3)
        with pytest.raises(ValueError) as exc:
            make_lattice_curve(samples)
        assert str(exc.value) == (
            "samples must lie on a uniform lattice "
            f"(s={node + 0.4e-3!r} is off by more than 1e-6 spacings)")

    def test_non_finite_sample_is_named(self):
        # every value is checked before the sort, so a nan s is caught as
        # well; the first non-finite sample given is named
        good = [lattice_sample(-1.0 + i / 128) for i in range(257)]
        for column in range(4):
            samples = list(good)
            for i, value in ((200, math.nan), (128, -math.inf)):
                row = list(samples[i])
                row[column] = value
                samples[i] = tuple(row)
            for given, first in ((samples, 128), (samples[::-1], 56)):
                with pytest.raises(ValueError) as exc:
                    make_lattice_curve(iter(given))
                assert str(exc.value) == (f"samples must be finite, got "
                                          f"{given[first]!r} (sample {first})")

    def test_coincident_samples_rejected(self):
        with pytest.raises(ValueError,
                           match="^sample parameters must be distinct$"):
            make_lattice_curve([lattice_sample(0.5)] * 33)

    def test_magnitudes_come_from_the_samples(self):
        # the round-off part of every FD error bound scales with each
        # row's max |component|, which the constructor derives: the
        # parabola lattice's bounds are the position-function reference's,
        # and they keep every point of the classify grid resolution-limited
        from pg_curvelab.aw import classify
        d = 2.0 ** -7
        c = make_lattice_curve((s, s, s * s / 2, 0.0)
                               for s in (-1.0 + i * d for i in range(257)))
        ref = make_sampled_curve(lambda s: PGVector(s, s * s / 2, 0.0),
                                 c.domain, h=2 * d)
        assert bits(c.jet(0.0, 4)) == bits(ref.jet(0.0, 4))
        assert c.jet(0.0, 4).err > 0.0
        grid = c.grid(-0.5, 0.5, 21)
        assert len(classify(c, grid).resolution_limited_points) == 21


def far_samples(offset: float) -> list[tuple]:
    """201 samples (s, s, cosh u, sinh u), u = i * 1e-3, s = offset + u:
    far from s = 0 the balanced multiple of h = 2e-3 that orders 3-4
    start from, top = floor(eps^0.1 * offset / h), overshoots the
    lattice by far."""
    return [(offset + i * 1e-3, offset + i * 1e-3, math.cosh(i * 1e-3),
             math.sinh(i * 1e-3)) for i in range(201)]


def walk(order, s, m, h, window):
    """The reference step search: the multiple m of h, stepped down by
    one until its stencil fits the window."""
    nodes = curves._node_range(order, s, m * h, window)
    while m > 1 and nodes is None:
        m -= 1
        nodes = curves._node_range(order, s, m * h, window)
    return m, nodes or curves._CENTRED[order]


class TestOrdersFiveSix:
    """FD orders 5-6: centred 9-node stencils, off centre near the
    window ends, at steps searched from the order-6 balance."""

    @pytest.mark.parametrize("spacing, n", [(2.0 ** -7, 257), (1e-3, 2001)])
    def test_jets_lie_within_their_bounds(self, helix_fixture, spacing, n):
        # every node of the domain, ends included, on a dyadic and a
        # non-dyadic lattice; the worst deviation is 0.16 of the bound
        exact = helix_fixture.curve
        c = make_lattice_curve((s, *exact.position(s).as_tuple()) for s in
                               (-1.0 + i * spacing for i in range(n)))
        assert c.max_order == 6
        grid = c.grid(*c.domain, n - 16)
        assert len(grid) == n - 16
        for s in grid:
            for k, got in enumerate(c.jets(s, 5, 6), 5):
                want = exact.jet(s, k)
                assert max(abs(got.x2 - want.x2),
                           abs(got.x3 - want.x3)) <= got.err, (s, k)

    def test_shortest_lattice_serves_order_six_at_its_ends(self):
        # 33 rows: the domain is 8h wide, and an off-centre 10-node
        # stencil of step h fits the lattice at either end
        c = lattice_curve(0.0, 2.0 ** -6, LATTICE_MIN_ROWS)
        for s in c.domain:
            jets = c.jets(s, 0, 6)
            # (cosh s, sinh s) has the odd derivative (sinh s, cosh s)
            for got, want in ((jets[5], (math.sinh(s), math.cosh(s))),
                              (jets[6], (math.cosh(s), math.sinh(s)))):
                assert max(abs(got.x2 - want[0]),
                           abs(got.x3 - want[1])) <= got.err


class TestStepSearch:
    """Orders 3-4 step down from the balanced multiple to the largest
    multiple whose stencil fits, by bisection."""

    def test_bisection_equals_the_walk(self, monkeypatch):
        # at s ~ 1e3 top is 13600 and the walk still affordable
        c = make_lattice_curve(far_samples(1e3))
        points = (c.snap(1e3 + 0.1), *c.domain)
        got = [[bits(v) for v in c.jets(s, 3, 4)] for s in points]
        monkeypatch.setattr(curves, "_fit", walk)
        assert got == [[bits(v) for v in c.jets(s, 3, 4)] for s in points]

    def test_far_lattice_search_is_bounded(self, monkeypatch, tmp_path,
                                           capsys):
        # at s ~ 1e6 top is 1.4e7: the walk made 13.6 M _node_range calls
        # (about 6 s) for this jet, and gave these bits
        calls = []
        node_range = curves._node_range
        monkeypatch.setattr(curves, "_node_range",
                            lambda *a: calls.append(a) or node_range(*a))
        samples = far_samples(1e6)
        c = make_lattice_curve(samples)
        assert bits(c.jet(c.snap(1e6 + 0.1), 3)) == bits(FDVector(
            -3.4046839445619575e-05, 0.10016675003893961, 1.0050041687575786,
            0.0012841416763969766))
        assert 0 < len(calls) <= 40
        path = tmp_path / "far.csv"
        path.write_text("s,x,y,z\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in samples))
        assert main(["eval", "--input", str(path), "--grid",
                     "1000000.01:1000000.19:21"]) == 0
        capsys.readouterr()


# (start, stop, count) that break a grid-shape rule, with the message
SHAPE_ERRORS = [
    ((2.0, 0.0, 101), "grid start must be below stop"),
    ((0.0, 1.0, 0), "grid count must be at least 1"),
    ((0.0, 2.0, 1), "a single-point grid needs start == stop"),
    ((math.nan, 1.0, 5), "grid start and stop must be finite, got nan:1.0"),
    ((-1e308, 1e308, 5), "grid span -1e+308:1e+308 overflows a double"),
]


class TestRequestGrid:
    """``CurveJet.grid``: the points a request reads."""

    @pytest.mark.parametrize("source", ["analytic", "lattice"])
    @pytest.mark.parametrize("shape, message", SHAPE_ERRORS)
    def test_shape_rules(self, source, shape, message):
        c = (make_analytic_curve(*cubic_jets(), domain=(0.0, 2.0))
             if source == "analytic" else lattice_curve(0.0, 2.0 ** -6, 129))
        with pytest.raises(ValueError) as exc:
            c.grid(*shape)
        assert str(exc.value) == message

    def test_shape_is_checked_before_any_point(self, monkeypatch):
        snapped = []

        def snap(self, t):
            snapped.append(t)
            return t

        monkeypatch.setattr(CurveJet, "snap", snap)
        c = make_analytic_curve(*cubic_jets(), domain=(0.0, 2.0))
        for shape, _ in SHAPE_ERRORS:
            with pytest.raises(ValueError):
                c.grid(*shape)
        assert snapped == []
        assert c.grid(0.0, 2.0, 3) == snapped == [0.0, 1.0, 2.0]

    def test_analytic_grid_is_the_uniform_grid(self):
        c = make_analytic_curve(*cubic_jets(), domain=(0.0, 2.0))
        step = (1.9 - 0.1) / 6
        assert c.grid(0.1, 1.9, 7) == [0.1 + i * step for i in range(7)]
        assert c.grid(0.0, 2.0, 5) == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_last_point_is_stop(self):
        # start + (count - 1) * step rounds past stop here, out of the
        # domain, and below it on -0.9:0.9:21
        curve = get_example("timelike_circular_helix",
                            863065193.4369956).curve
        lo, hi = curve.domain
        assert lo + 9 * ((hi - lo) / 9) > hi
        grid = curve.grid(lo, hi, 10)
        assert len(grid) == 10 and grid[-1] == hi
        c = make_analytic_curve(*cubic_jets(), domain=(-1.0, 1.0))
        assert -0.9 + 20 * (1.8 / 20) < 0.9
        assert c.grid(-0.9, 0.9, 21)[-1] == 0.9

    def test_one_point_grid(self):
        c = make_analytic_curve(*cubic_jets(), domain=(-1.0, 1.0))
        assert c.grid(0.25, 0.25, 1) == [0.25]
        (s,) = c.grid(-0.0, -0.0, 1)
        assert s == 0.0 and math.copysign(1.0, s) == -1.0

    def test_analytic_grid_outside_the_domain_names_its_first_point(self):
        c = make_analytic_curve(*cubic_jets(), domain=(0.0, 2.0))
        with pytest.raises(ValueError) as exc:
            c.grid(1.0, 3.0, 5)
        assert str(exc.value) == \
            "grid point 2.5 is outside the curve domain [0, 2]"
        with pytest.raises(ValueError, match="grid point -1 is outside"):
            c.grid(-1.0, 3.0, 5)

    def test_lattice_grid_snaps_onto_nodes(self):
        c = lattice_curve(0.0, 2.0 ** -6, 129)
        assert c.grid(0.2, 1.0, 5) == [k / 64 for k in (13, 26, 38, 51, 64)]

    def test_lattice_ends_take_points_within_half_a_spacing(self):
        # domain [8/64, 120/64]: a point less than half a spacing outside
        # snaps onto the end node, one more than half a spacing does not
        c = lattice_curve(0.0, 2.0 ** -6, 129)
        d = 2.0 ** -6
        assert c.domain == (8 * d, 120 * d)
        assert c.grid(8 * d - 0.4 * d, 120 * d + 0.4 * d, 2) == \
            [8 * d, 120 * d]
        below = 8 * d - 0.6 * d
        with pytest.raises(ValueError) as exc:
            c.grid(below, 1.0, 3)
        assert str(exc.value) == (f"grid point {below:g} is outside the "
                                  "curve domain [0.125, 1.875]")
        with pytest.raises(ValueError,
                           match=r"grid point 1\.8843\d is outside"):
            c.grid(1.0, 120 * d + 0.6 * d, 3)

    def test_lattice_grid_drops_repeated_nodes(self):
        # 21 points 0.005 apart on nodes 1/64 apart: each node between
        # snap(0.5) and snap(0.6) once, ascending
        c = lattice_curve(0.0, 2.0 ** -6, 129)
        assert c.grid(0.5, 0.6, 21) == [k / 64 for k in range(32, 39)]


class TestFDVectorValueType:
    """An ``FDVector`` is a ``PGVector`` value whose error bound takes part
    in equality, hash, repr, copy and pickle."""

    def test_equality_is_by_class_and_error_bound(self):
        v = FDVector(1.0, 2.0, 3.0, 0.0)
        assert v == FDVector(1.0, 2.0, 3.0)
        assert v != PGVector(1.0, 2.0, 3.0)
        assert PGVector(1.0, 2.0, 3.0) != v
        assert FDVector(1.0, 2.0, 3.0, err=0.1) != FDVector(1.0, 2.0, 3.0,
                                                            err=0.2)
        assert hash(FDVector(1.0, 2.0, 3.0, err=0.1)) == hash(
            FDVector(1, 2, 3, err=0.1))
        assert isinstance(v, PGVector) and v.err == 0.0

    def test_repr(self):
        assert repr(FDVector(1.0, -0.0, 3.0, err=1e-9)) == (
            "FDVector(x1=1.0, x2=-0.0, x3=3.0, err=1e-09)")

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        lambda v: pickle.loads(pickle.dumps(v)),
    ])
    def test_copy_and_pickle_round_trip(self, clone):
        v = FDVector(1.0, 2.0, -0.0, err=0.25)
        w = clone(v)
        assert type(w) is FDVector and w == v and w.err == 0.25
        assert math.copysign(1.0, w.x3) == -1.0

    @pytest.mark.parametrize("name", ["x1", "x2", "x3", "err"])
    def test_assignment_raises_attribute_error(self, name):
        v = FDVector(1.0, 2.0, 3.0, err=0.5)
        with pytest.raises(AttributeError):
            setattr(v, name, 5.0)
        assert (*v.as_tuple(), v.err) == (1.0, 2.0, 3.0, 0.5)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_finiteness_message(self, position):
        comps = [1.0, 2.0, 3.0]
        comps[position] = math.inf
        with pytest.raises(ValueError) as info:
            FDVector(*comps, err=0.5)
        assert str(info.value) == "PGVector components must be finite, got inf"


def bits(v: PGVector) -> tuple:
    """A jet's type, components and error bound, with the sign of zero."""
    return (type(v), *(c.hex() for c in v.as_tuple()),
            getattr(v, "err", 0.0).hex())


class TestSampledBundle:
    """``jets(s, first, last)`` of a sampled curve equals ``jet(s, k)``
    bit for bit, error bound included, for every order range."""

    @staticmethod
    def assert_bundles_match(c: CurveJet, points) -> None:
        orders = c.max_order + 1
        for s in points:
            single = [bits(c.jet(s, k)) for k in range(orders)]
            for first in range(orders):
                for last in range(first, orders):
                    got = [bits(v) for v in c.jets(s, first, last)]
                    assert got == single[first:last + 1], (s, first, last)

    def test_adaptive_steps_on_a_callable(self):
        # h = 1e-3 is round-off-bound: orders 3-4 pick steps up to 54h,
        # and the stencils move off centre within ~160h of either end
        h, lo, hi = 1e-3, -0.5, 0.5
        c = make_sampled_curve(
            lambda s: PGVector(s, math.cosh(s), math.sinh(s)), (lo, hi), h=h)
        self.assert_bundles_match(
            c, [lo, lo + h, lo + 37 * h, -0.123, 0.0, 0.3, hi - 5 * h, hi])

    def test_single_step_on_a_callable(self):
        # at the default step top == 1: every order is centred at h
        c = make_sampled_curve(
            lambda s: PGVector(s, math.exp(0.5 * s), s ** 3 / 6.0), (-1.0, 1.0))
        lo, hi = c.domain
        self.assert_bundles_match(c, [lo, -0.31, 0.0, 0.7, hi])

    def test_lattice_backed_curve(self):
        delta, n = 2.0 ** -10, 2049
        points = [PGVector(-1.0 + i * delta, math.cosh(-1.0 + i * delta),
                           math.sinh(-1.0 + i * delta)) for i in range(n)]

        def position(s):
            return points[round((s + 1.0) / delta)]

        c = make_sampled_curve(position, (-1.0 + 8 * delta, 1.0 - 8 * delta),
                               h=2 * delta)
        lo, hi = c.domain
        self.assert_bundles_match(
            c, [lo, lo + delta, lo + 40 * delta, -0.25, 0.0, 0.5,
                hi - 3 * delta, hi])

    def test_bundle_reads_each_node_once(self):
        calls: list[float] = []

        def position(s):
            calls.append(s)
            return PGVector(s, math.cosh(s), math.sinh(s))

        c = make_sampled_curve(position, (-0.5, 0.5), h=1e-3)
        for s in (-0.5, 0.0, 0.4):
            calls.clear()
            c.jets(s, 1, 4)
            first = list(calls)
            assert len(first) == len(set(first))
            # nothing is kept between calls: the same bundle reads again
            calls.clear()
            c.jets(s, 1, 4)
            assert calls == first

    def test_overflowing_step_trial_raises(self):
        # at s = -0.45 an order-4 step trial overflows: it raises like a
        # non-finite jet, although only the kept trial becomes an FDVector
        c = make_sampled_curve(
            lambda s: PGVector(s, 1e305 * math.cosh(3 * s),
                               1e305 * math.sinh(s)), (-0.5, 0.5), h=1e-3)
        with pytest.raises(ValueError, match="must be finite"):
            c.jet(-0.45, 4)


class TestAdmissibility:
    def test_catalogue_curve_is_admissible(self, general_helix, uniform):
        lo, hi = general_helix.domain
        report = check_admissibility(general_helix.curve, uniform(lo, hi, 50))
        assert report.admissible
        assert report.failing_params == ()
        assert report.worst_inflection_margin > 1e-3
        assert report.worst_lightlike_margin > 1e-5

    def test_lightlike_acceleration_fails(self):
        # y'' = z'' everywhere puts the normal direction on the light cone
        c = make_analytic_curve(
            lambda s: PGVector(s, math.exp(s), math.exp(s)),
            lambda s: PGVector(1.0, math.exp(s), math.exp(s)),
            lambda s: PGVector(0.0, math.exp(s), math.exp(s)),
            lambda s: PGVector(0.0, math.exp(s), math.exp(s)),
            lambda s: PGVector(0.0, math.exp(s), math.exp(s)),
            domain=(0.0, 1.0))
        report = check_admissibility(c, [0.25, 0.5, 0.75])
        assert not report.admissible
        assert report.worst_lightlike_margin == 0.0
        assert report.failing_params == (0.25, 0.5, 0.75)

    def test_straight_line_fails_inflection(self):
        c = CurveJet(
            lambda s, k: PGVector(s, 0.0, 0.0) if k == 0 else
            PGVector(1.0 if k == 1 else 0.0, 0.0, 0.0),
            (0.0, 1.0), JetKind.ANALYTIC)
        report = check_admissibility(c, [0.5])
        assert not report.admissible
        assert report.worst_inflection_margin == 0.0

    def test_empty_grid_rejected(self, general_helix):
        with pytest.raises(EmptyGridError):
            check_admissibility(general_helix.curve, [])

    def test_fails_exactly_where_the_apparatus_raises(self):
        # y'' = z'' * (1 + 1e-11) on (0.5, 0.8] lies inside the lightlike
        # band; x = 2s beyond 0.8 is not in arc-length form
        def jet(s, k):
            e = math.exp(s)
            y = e * (1.0 + 1e-11) if 0.5 < s <= 0.8 else 2.0 * e
            xp = 2.0 if s > 0.8 else 1.0
            if k == 0:
                return PGVector(xp * s, y, e)
            return PGVector(xp if k == 1 else 0.0, y, e)

        from pg_curvelab.frenet import frenet_data

        c = CurveJet(jet, (0.0, 1.0), JetKind.ANALYTIC)
        grid = [0.25, 0.6, 0.9]
        report = check_admissibility(c, grid)
        raising = []
        for s in grid:
            try:
                frenet_data(c, s)
            except InadmissibleCurveError:
                raising.append(s)
        assert report.failing_params == tuple(raising) == (0.6, 0.9)
        assert not report.admissible


class TestHomothety:
    def test_factor_must_be_positive(self, parabola):
        for mu in (0.0, -2.0):
            with pytest.raises(ValueError, match="positive"):
                apply_homothety(parabola.curve, mu)

    def test_domain_and_metadata_scale(self, parabola):
        big = apply_homothety(parabola.curve, 2.0)
        lo, hi = parabola.curve.domain
        assert big.domain == (2.0 * lo, 2.0 * hi)
        assert big.kind is parabola.curve.kind
        assert big.max_order == parabola.curve.max_order

    def test_curvature_scales_inversely(self, parabola):
        from pg_curvelab.frenet import frenet_data

        # with mu = 2 every float in the jet rescaling is a power of two,
        # so the scaled curvature is exact
        big = apply_homothety(parabola.curve, 2.0)
        assert frenet_data(big, 1.0).kappa == 0.5

    def test_position_scales(self, helix_fixture):
        big = apply_homothety(helix_fixture.curve, 2.0)
        p = helix_fixture.curve.position(0.5)
        q = big.position(1.0)
        assert q.as_tuple() == (2.0 * p.x1, 2.0 * p.x2, 2.0 * p.x3)


class TestSimilarity:
    def test_zero_b_rejected(self, parabola):
        with pytest.raises(ValueError, match="b = 0"):
            apply_similarity(parabola.curve, SimilarityMotion(b=0.0))

    def test_negative_b_sorts_the_domain(self, parabola):
        lo, hi = parabola.curve.domain
        flipped = apply_similarity(parabola.curve,
                                   SimilarityMotion(a=1.0, b=-2.0))
        assert flipped.domain == (1.0 - 2.0 * hi, 1.0 - 2.0 * lo)
        # x = 1 - 2s stays the arc length: x' = 1, and y'' = y''(s) / 4
        q0, q1, q2 = flipped.jets(0.0, 0, 2)
        assert q0.as_tuple() == (0.0, 0.125, 0.0)
        assert q1.as_tuple() == (1.0, -0.25, 0.0)
        assert q2.as_tuple() == (0.0, 0.25, 0.0)

    def test_translation_moves_only_the_position(self, helix_fixture):
        moved = apply_similarity(helix_fixture.curve,
                                 SimilarityMotion(a=1.0, c=2.0, e=3.0))
        for s in (-0.5, 0.25):
            p, *jets = helix_fixture.curve.jets(s, 0, 4)
            q, *moved_jets = moved.jets(1.0 + s, 0, 4)
            assert q.as_tuple() == (p.x1 + 1.0, p.x2 + 2.0, p.x3 + 3.0)
            assert moved_jets == jets

    def test_image_errors_name_their_point(self):
        # the image's own arithmetic names t: b^2 = 1e400 overflows, and
        # r * y'' = 1.7e308 * cosh(s) leaves the double range at a grid
        # call's second point; an error of the curve it maps names that
        # curve's s, once
        helix = get_example("bertrand_helix").curve
        with pytest.raises(OverflowError) as exc:
            apply_similarity(helix, SimilarityMotion(b=1e200)).jet(0.0, 2)
        assert str(exc.value) == ("(34, 'Numerical result out of range') "
                                  "at t=0")
        wide = apply_similarity(helix, SimilarityMotion(r=1.7e308))
        with pytest.raises(ValueError) as exc:
            wide.rows([0.0, 0.5, 0.75], 2, 2)
        assert str(exc.value) == ("PGVector components must be finite, got "
                                  "inf at t=0.5")
        steep = get_example("bertrand_helix", 0.01, 1000.0).curve
        moved = apply_similarity(steep, SimilarityMotion(a=1.0, b=2.0))
        with pytest.raises(OverflowError) as exc:
            moved.jet(-0.6, 0)
        assert str(exc.value) == "math range error at s=-0.8"

    def test_fd_error_bounds_stay_honest(self, zoo_entries):
        # the image of a sampled curve against the image of its analytic
        # twin: every order-1..4 jet within its own error bound
        motions = (
            SimilarityMotion(a=0.5, b=2.0, c=1.0, d=0.3, e=-1.0, f=-0.7,
                             r=1.5, theta=0.8),
            SimilarityMotion(a=-1.0, b=-0.5, c=0.2, d=-1.1, e=0.4, f=0.9,
                             r=-3.0, theta=-1.2),
            SimilarityMotion(b=0.25, r=4.0, theta=2.0),
        )
        for entry in zoo_entries:
            lo, hi = entry.domain
            sampled = make_sampled_curve(entry.curve.position, (lo, hi),
                                         h=1e-3)
            for m in motions:
                fd = apply_similarity(sampled, m)
                exact = apply_similarity(entry.curve, m)
                for i in range(5):
                    t = m.a + m.b * (lo + 0.25 * i * (hi - lo))
                    for got, want in zip(fd.jets(t, 1, 4),
                                         exact.jets(t, 1, 4)):
                        assert (got - want).max_abs() <= got.err
