"""The finite-difference tier's grid call (``CurveJet.bundles``) against
the frozen per-point form it replaced.

``ref_fd_jets`` is the FD tier as it evaluated one point at a time: a
per-bundle row source keyed by abscissa, and per-point Richardson
extrapolation and step search.  The weights (``curves._weights``) and
the fitting of a stencil to the window (``curves._fit``) are shared; all
else is a copy kept here unchanged.  The fuzz compares x, y, z and
``err`` of every order 0-6, bit for bit, on dyadic, non-dyadic,
translated, far (s near 1e6) and x-shifted lattices, rows near 1e308 and
position-function curves, on grids of 1 to 1001 points that include the
domain ends.  A point where the reference raises must raise the same
error through ``jets``, and make the grid call that holds it raise;
where the reference's step search rounds an infinite ratio (rows near
1e302), the longest step's bundle is expected instead
(``total_step_ref``).
"""

from __future__ import annotations

import math
import random
from operator import itemgetter, mul

import pytest

from pg_curvelab import curves
from pg_curvelab.algebra import PGVector
from pg_curvelab.curves import (FDVector, _fit, _weights, bundle_reader,
                                make_lattice_curve, make_sampled_curve)
from pg_curvelab.errors import CurveLabError

_EPS = curves._EPS
_CENTRED = curves._CENTRED


def ref_row_source(row_at):
    """``rows(s, step, offsets)``: the row at each s + j * step, each
    abscissa read once while the source (one jet bundle) lives."""
    seen = {}
    get = seen.get

    def rows(s, step, offsets):
        out = []
        for j in offsets:
            t = s + j * step
            row = get(t)
            if row is None:
                row = seen[t] = row_at(t)
            out.append(row)
        return out

    return rows


def ref_extrapolate(rows, s, order, h, first, count):
    """One Richardson level over steps h and h/2 on the node range
    (first, count): components, truncation estimate, round-off bound."""
    offsets, weights, denom, wsum = _weights(order, first, count)
    fsum = math.fsum
    sums = []
    for step in (h, 0.5 * h):
        xs, ys, zs, mags = zip(*rows(s, step, offsets))
        scale = denom * step ** order
        sums.append((fsum(map(mul, weights, xs)) / scale,
                     fsum(map(mul, weights, ys)) / scale,
                     fsum(map(mul, weights, zs)) / scale, max(mags)))
    (cx, cy, cz, cmag), (fx, fy, fz, fmag) = sums
    half = 0.5 * h
    trunc = max(abs(fx - cx), abs(fy - cy), abs(fz - cz)) / 15.0
    roundoff = (curves._ROUNDOFF_ULPS * _EPS * wsum / denom
                * (16.0 * fmag / half ** order + cmag / h ** order) / 15.0)
    x = (16.0 * fx - cx) / 15.0
    y = (16.0 * fy - cy) / 15.0
    z = (16.0 * fz - cz) / 15.0
    if not math.isfinite(x + y + z):
        FDVector(x, y, z)
    return x, y, z, trunc, roundoff


def ref_adaptive(rows, s, order, h, top, window):
    """Order-3 to 6 jet at the best of at most three tried steps m*h."""
    m, nodes = _fit(order, s, top, h, window)
    best = ref_extrapolate(rows, s, order, m * h, *nodes)
    trunc, roundoff = best[3:]
    for _ in range(2):
        if trunc > 0.0:
            ratio = order * roundoff / (4.0 * trunc)
            nxt = round(m * ratio ** (1.0 / (order + 4)))
        else:
            nxt = 2 * top
        nxt, nodes = _fit(order, s, min(max(nxt, 1), 2 * top), h, window)
        if abs(nxt - m) <= 0.2 * m:
            break
        m = nxt
        jet = ref_extrapolate(rows, s, order, m * h, *nodes)
        trunc, roundoff = jet[3:]
        if trunc + roundoff < best[3] + best[4]:
            best = jet
    return best


def ref_fd_jets(row_at, domain, h=None, nodes=None):
    """The per-point ``jets(s, first, last)`` of the FD tier over the
    rows ``row_at(t)``, with the step, shift and window rules of
    ``curves._fd_curve``."""
    lo, hi = domain
    scale = max(1.0, abs(lo), abs(hi))
    h = float(curves._BALANCED * scale if h is None else h)
    dx = row_at(lo)[0] - lo
    if dx != 0.0:
        unshifted = row_at

        def row_at(t):
            x, y, z, _ = unshifted(t)
            if not math.isfinite(x - dx):
                PGVector(x - dx, y, z)
            return x - dx, y, z, max(abs(x - dx), abs(y), abs(z))

    top4 = max(1, math.floor(curves._BALANCED * scale / h))
    top6 = max(1, math.floor(curves._BALANCED_6 * (1.0 if nodes else scale)
                             / h))
    tops = (1, 1, 1, top4, top4, top6, top6)
    window = (lo - 4.0 * h, hi + 4.0 * h)

    def fd_jet(rows, s, order):
        if tops[order] == 1:
            x, y, z, trunc, roundoff = ref_extrapolate(rows, s, order, h,
                                                       *_CENTRED[order])
        else:
            x, y, z, trunc, roundoff = ref_adaptive(rows, s, order, h,
                                                    tops[order], window)
        return FDVector(x, y, z, trunc + roundoff)

    def jets(s, first, last):
        rows = ref_row_source(row_at)
        return tuple(PGVector(*row_at(s)[:3]) if k == 0
                     else fd_jet(rows, s, k) for k in range(first, last + 1))

    return jets


def ref_lattice_jets(samples):
    """``ref_fd_jets`` of (s, x, y, z) lattice samples, read as
    ``make_lattice_curve`` reads them."""
    samples = sorted(samples, key=itemgetter(0))
    n = len(samples)
    first, last = samples[0][0], samples[-1][0]
    spacing = (last - first) / (n - 1)
    rows = [(x, y, z, max(abs(x), abs(y), abs(z))) for _, x, y, z in samples]

    def row_at(t):
        i = round((t - first) / spacing)
        if i < 0 or i >= n or abs(t - (first + i * spacing)) > 1e-6 * spacing:
            raise ValueError(f"off-lattice evaluation at s={t!r}")
        return rows[i]

    return ref_fd_jets(row_at, (first + 8 * spacing, last - 8 * spacing),
                       2 * spacing, (first, spacing))


def ref_sampled_jets(position, domain, h=None):
    """``ref_fd_jets`` of a position function."""
    def row_at(t):
        p = position(t)
        return p.x1, p.x2, p.x3, p.max_abs()
    return ref_fd_jets(row_at, domain, h)


def jet_bits(v):
    """A jet's type, components and error bound, signed zeros kept."""
    return (type(v), *(c.hex() for c in v.as_tuple()),
            getattr(v, "err", 0.0).hex())


def outcome(fn):
    """The bundles ``fn()`` returns as bits, or the class and message of
    what it raised."""
    try:
        return [[jet_bits(v) for v in bundle] for bundle in fn()]
    except (CurveLabError, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def family(rng, amp=1.0, shift=0.0, centre=0.0):
    """A random smooth curve (s + shift, y(s - centre), z(s - centre))
    of the fuzz, y and z of size ``amp``."""
    a, b, c, d = (rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5),
                  rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))

    def position(s):
        u = s - centre
        return PGVector(s + shift,
                        amp * (a * math.cosh(b * u) + c * u * u),
                        amp * (a * math.sinh(b * u) + d * math.sin(u)))
    return position


def lattice(position, origin, spacing, n):
    return [(s, *position(s).as_tuple())
            for s in (origin + i * spacing for i in range(n))]


def assert_batch(curve, ref, points, first=0, last=6, one_point=True):
    """``curve.bundles(points)`` equals ``ref`` at every point, bit for
    bit; each point alone through ``jets`` gives the reference's bits
    or error; a grid call with a failing point raises."""
    want = [outcome(lambda: [ref(s, first, last)]) for s in points]
    if one_point:
        assert [outcome(lambda: [curve.jets(s, first, last)])
                for s in points] == want
    got = outcome(lambda: curve.bundles(points, first, last))
    if all(isinstance(w, list) for w in want):
        assert got == [w[0] for w in want]
    else:
        assert isinstance(got, tuple), "a failing point must fail the call"


def grids(curve, counts):
    """Snapped grids over the whole domain, ends included, and single
    points at both ends and inside."""
    lo, hi = curve.domain
    out = [curve.grid(lo, hi, n) for n in counts if n > 1]
    if 1 in counts:
        out += [[lo], [hi], [curve.snap(lo + 0.37 * (hi - lo))]]
    return out


# what ``ref_adaptive`` raises where it rounds an infinite ratio r/t
BARE_RATIO = "cannot convert float infinity to integer"


def total_step_ref(curve, ref, met):
    """``ref``, except where it raises ``BARE_RATIO``: the step rule now
    takes 2*top*h there, and the curve's bundle is expected, with its
    orders below 3 as ``ref`` gives them and orders 3 to 6 carrying an
    infinite error bound on finite components.  ``met`` counts them."""
    def jets(s, first, last):
        try:
            return ref(s, first, last)
        except OverflowError as exc:
            if str(exc) != BARE_RATIO:
                raise
        met.append(s)
        try:
            got = curve.jets(s, first, last)
        except (ValueError, ArithmeticError) as exc:
            raise AssertionError(f"{exc!r} at s={s!r}") from exc
        low = ref(s, first, 2) if first <= 2 else ()
        assert list(map(jet_bits, got[:len(low)])) == list(map(jet_bits, low))
        for v in got[len(low):]:
            assert type(v) is FDVector and v.err == math.inf
            assert all(map(math.isfinite, v.as_tuple()))
        return got
    return jets


LATTICES = {
    # name: (amplitude, x shift, centre, first row, spacing, rows)
    "dyadic": (1.0, 0.0, 0.0, -1.0, 2.0 ** -7, 257),
    "non-dyadic": (1.0, 0.0, 0.0, -0.73, 0.0013, 301),
    "translated": (1.0, 0.0, 1000.0, 1000.0 - 0.21, 1e-3, 401),
    "x-shifted": (1.0, 0.3125, 0.0, -0.5, 2.0 ** -8, 257),
    "near-max": (2e307, 0.0, 0.0, -0.4, 2.0 ** -8, 257),
    "large": (1e302, 0.0, 0.0, -0.4, 2.0 ** -8, 257),
    "far": (1.0, 0.0, 1e6, 1e6 - 0.21, 1e-3, 401),
}


class TestLatticeBatch:
    @pytest.mark.parametrize("name", sorted(LATTICES))
    def test_grids_equal_the_reference(self, name):
        amp, shift, centre, origin, spacing, n = LATTICES[name]
        rng = random.Random(f"lattice {name}")
        samples = lattice(family(rng, amp, shift, centre), origin, spacing,
                          n)
        curve, ref = make_lattice_curve(samples), ref_lattice_jets(samples)
        met = []
        if name == "large":     # round-off bounds overflow near 1e302
            ref = total_step_ref(curve, ref, met)
        for points in grids(curve, (1, 2, 21, 101)):
            assert_batch(curve, ref, points)
        for first, last in ((1, 2), (3, 4), (2, 5)):
            assert_batch(curve, ref, curve.grid(*curve.domain, 21), first,
                         last)
        assert bool(met) == (name == "large")

    @pytest.mark.parametrize("name", ["non-dyadic", "translated"])
    def test_dense_grid_equals_the_reference(self, name):
        # 1001 points on a lattice of 2017 rows, as the benchmark reads
        # them: every other row, off-centre stencils at both ends
        amp, shift, centre, origin, spacing, _ = LATTICES[name]
        rng = random.Random(f"dense {name}")
        samples = lattice(family(rng, amp, shift, centre), origin, spacing,
                          2017)
        curve, ref = make_lattice_curve(samples), ref_lattice_jets(samples)
        points = curve.grid(*curve.domain, 1001)
        assert len(points) == 1001
        assert_batch(curve, ref, points, one_point=False)
        assert_batch(curve, ref, points[:3] + points[500:502] + points[-3:])

    def test_points_between_nodes(self):
        # within the read tolerance of a node, a point reads its rows
        # through the lattice's read check, as a point beyond it fails
        samples = lattice(family(random.Random(7)), -0.73, 0.0013, 301)
        curve, ref = make_lattice_curve(samples), ref_lattice_jets(samples)
        lo, hi = curve.domain
        s = curve.snap(0.5 * (lo + hi))
        for points in ([s + 1e-9 * 0.0013], [s + 0.3 * 0.0013],
                       [s, s + 1e-9 * 0.0013, s + 0.0026]):
            assert_batch(curve, ref, points)

    def test_overflowing_rows_fail_the_whole_call(self):
        # one row near 1e308 mid-lattice: the points whose stencils meet
        # it raise, alone and in any grid that holds them
        samples = lattice(family(random.Random(3)), -1.0, 2.0 ** -7, 257)
        samples[128] = (samples[128][0], samples[128][1], 1.7e308, 0.0)
        curve, ref = make_lattice_curve(samples), ref_lattice_jets(samples)
        for points in grids(curve, (1, 2, 21, 101)):
            assert_batch(curve, ref, points)


class TestSampledBatch:
    @pytest.mark.parametrize("h", [None, 1e-3, 2e-4])
    def test_grids_equal_the_reference(self, h):
        position = family(random.Random(f"sampled {h}"))
        domain = (-0.8, 0.9)
        curve = make_sampled_curve(position, domain, h)
        ref = ref_sampled_jets(position, domain, h)
        lo, hi = domain
        for n in (1, 2, 21, 101):
            points = ([lo + 0.41 * (hi - lo)] if n == 1 else
                      [lo + i * (hi - lo) / (n - 1) for i in range(n)])
            assert_batch(curve, ref, points)

    def test_reads_each_abscissa_once_per_point(self):
        # a grid call reads what the points read one at a time
        position = family(random.Random(11))
        reads = []

        def counted(t):
            reads.append(t)
            return position(t)

        curve = make_sampled_curve(counted, (-0.8, 0.9), 1e-3)
        points = [-0.8 + i * 0.017 for i in range(101)]
        reads.clear()
        for s in points:
            curve.jets(s, 0, 6)
        one_by_one = sorted(reads)
        reads.clear()
        curve.bundles(points, 0, 6)
        assert sorted(reads) == one_by_one


class TestGridCalls:
    """The grid call of every curve, and how sweeps read it."""

    def test_closed_forms_loop_over_jets(self, helix_fixture):
        curve = helix_fixture.curve
        points = curve.grid(-0.9, 0.9, 21)
        assert outcome(lambda: curve.bundles(points, 0, 6)) == \
            [[jet_bits(v) for v in curve.jets(s, 0, 6)] for s in points]
        assert curve.bundles([], 0, 9) == []

    def test_reader_falls_back_point_by_point(self, counting):
        # the grid call raises for the points near the bad row; the
        # reader then reads each point when first asked for, so the
        # points before them still read, and a failing point raises its
        # own error
        samples = lattice(family(random.Random(5)), -1.0, 2.0 ** -7, 257)
        samples[128] = (samples[128][0], samples[128][1], 1.7e308, 0.0)
        curve, calls = counting(make_lattice_curve(samples))
        points = curve.grid(-0.9, 0.9, 19)
        read = bundle_reader(curve, points, 1, 2)
        assert calls.bundles == [(s, 1, 2) for s in points]  # the grid call
        calls.clear()
        assert list(map(float.hex, read(3))) == \
            list(map(float.hex, curve.rows([points[3]], 1, 2)[0]))
        assert calls.bundles == [(points[3], 1, 2)] * 2
        bad = next(i for i, s in enumerate(points) if s > -0.05)
        with pytest.raises(ValueError, match="must be finite"):
            read(bad)
