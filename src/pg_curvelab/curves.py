"""Curve representation: jets of admissible curves in arc-length form.

A :class:`CurveJet` evaluates position and s-derivatives of a curve whose
canonical parameter is the pseudo-Galilean arc length, i.e. x(s) = s.  Three
constructors are provided: one wrapping user-supplied analytic derivative
functions, two that rebuild all derivatives with central finite differences
from a position function or from positions on a uniform lattice.

The finite-difference scheme uses the 5-point stencils for orders 1-2,
the 7-point stencils for orders 3-4 and the 9-point stencils for orders
5-6 (all fourth-order accurate), followed by one Richardson extrapolation
level combining steps H and H/2.  The combined rules annihilate
polynomials up to degree 5 at every order, so polynomial test curves come
back exact up to round-off.  Each jet carries an error bound, and orders
3-6 pick their own step by it when the given step is round-off-bound (see
:func:`make_sampled_curve`).
"""

from __future__ import annotations

import math
import random
from enum import Enum
from functools import lru_cache
from operator import itemgetter, mul
from typing import Callable, Iterable, Sequence

from .algebra import PGVector, SimilarityMotion
from .errors import (
    EmptyDomainError,
    JetOrderError,
    NarrowDomainError,
    StepTooSmallError,
)

_EPS = 2.220446049250313e-16

PositionFn = Callable[[float], PGVector]
JetsFn = Callable[[float, int, int], tuple[PGVector, ...]]


class JetKind(Enum):
    ANALYTIC = "analytic"
    FINITE_DIFFERENCE = "finite-difference"

    @property
    def tolerance(self) -> float:
        """Default verdict tolerance: 1e-8, or 1e-5 for FD jets, whose
        fourth derivatives carry more round-off."""
        return 1e-8 if self is JetKind.ANALYTIC else 1e-5


def _naming_s(jets_fn: JetsFn) -> JetsFn:
    """``jets_fn`` with an ``ArithmeticError`` or ``ValueError`` it raises
    leaving with " at s=..." appended to its message: the view of closed
    forms, whose errors do not name their point."""
    def jets(s: float, first: int, last: int) -> tuple[PGVector, ...]:
        try:
            return jets_fn(s, first, last)
        except (ArithmeticError, ValueError) as exc:
            raise type(exc)(f"{exc} at s={s:.6g}") from exc
    return jets


class CurveJet:
    """Evaluator of a curve's position and derivatives up to ``max_order``.

    Instances are immutable; evaluation is pure.  ``warnings`` collects
    non-fatal construction diagnostics (e.g. inconsistent supplied
    derivatives), never errors.

    ``jets_fn(s, first, last)`` returns the derivative vectors of orders
    first..last at once; it is the one view the curve stores, so every
    read, ``jet(s, k)`` included, is one checked bundle.  A curve whose
    orders share no work may pass ``jet_fn(s, order)`` instead, read
    once per order of a bundle; an ``ArithmeticError`` or ``ValueError``
    it raises leaves with " at s=..." appended to its message.
    """

    __slots__ = ("domain", "kind", "max_order", "warnings", "nodes",
                 "_jets_fn")

    def __init__(self, jet_fn: Callable[[float, int], PGVector] | None,
                 domain: tuple[float, float], kind: JetKind,
                 max_order: int = 4, warnings: tuple[str, ...] = (),
                 jets_fn: JetsFn | None = None,
                 nodes: tuple[float, float] | None = None):
        lo, hi = float(domain[0]), float(domain[1])
        if not (lo < hi):
            raise EmptyDomainError(f"empty domain [{lo}, {hi}]")
        if jets_fn is None:
            def orders(s: float, first: int, last: int) -> tuple[PGVector, ...]:
                return tuple(jet_fn(s, k) for k in range(first, last + 1))
            jets_fn = _naming_s(orders)
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "max_order", int(max_order))
        object.__setattr__(self, "warnings", tuple(warnings))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_jets_fn", jets_fn)

    def __setattr__(self, *_):
        raise AttributeError("CurveJet is immutable")

    def _check(self, s: float, first: int, last: int) -> None:
        if first < 0 or last > self.max_order:
            order = first if first < 0 else last
            raise JetOrderError(
                f"order {order} not available (curve carries orders 0..{self.max_order})")
        lo, hi = self.domain
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if not lo - slack <= s <= hi + slack:
            raise ValueError(f"parameter {s} outside domain [{lo}, {hi}]")

    def jet(self, s: float, order: int = 0) -> PGVector:
        return self.jets(s, order, order)[0]

    def jets(self, s: float, first: int, last: int) -> tuple[PGVector, ...]:
        """The derivative vectors of orders first..last at s, checked
        once."""
        if first > last:
            raise JetOrderError(f"empty order range {first}..{last}")
        self._check(s, first, last)
        return self._jets_fn(s, first, last)

    def position(self, s: float) -> PGVector:
        return self.jet(s, 0)

    @property
    def residual_step(self) -> float:
        """Default step h of the frame-equation residuals: on a curve with
        ``nodes`` 2 * spacing, the lattice's own FD step, else 1e-4."""
        return 2 * self.nodes[1] if self.nodes else 1e-4

    def snap(self, t: float) -> float:
        """The nearest node to t if ``nodes`` is (first, spacing), else t."""
        if self.nodes is None:
            return t
        first, spacing = self.nodes
        return first + round((t - first) / spacing) * spacing

    def grid(self, start: float, stop: float, count: int) -> list[float]:
        """The request grid: ``count`` uniform points from start to stop
        (start alone when count is 1), each replaced by its ``snap``,
        ascending with repeats dropped.  Before any point is built,
        ``ValueError`` unless count >= 1, start, stop and stop - start are
        finite, and start == stop for one point, start < stop otherwise.
        A snapped point must lie in ``domain`` or be the node a domain end
        snaps to, so a lattice's end nodes take points up to half a
        spacing beyond them; the first point that does neither raises
        ``ValueError`` naming it."""
        if count < 1:
            raise ValueError("grid count must be at least 1")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"grid start and stop must be finite, got "
                             f"{start}:{stop}")
        if not math.isfinite(stop - start):
            raise ValueError(f"grid span {start}:{stop} overflows a double")
        if count == 1:
            if start != stop:
                raise ValueError("a single-point grid needs start == stop")
            points: Iterable[float] = (start,)
        else:
            if not start < stop:
                raise ValueError("grid start must be below stop")
            step = (stop - start) / (count - 1)
            points = (start + i * step for i in range(count))
        snap, (lo, hi) = self.snap, self.domain
        out: list[float] = []
        for p in points:
            s = snap(p)
            if not lo <= s <= hi and snap(min(max(s, lo), hi)) != s:
                raise ValueError(f"grid point {p:g} is outside the curve "
                                 f"domain [{lo:g}, {hi:g}]")
            if not out or s > out[-1]:
                out.append(s)
        return out


# ---------------------------------------------------------------------------
# analytic constructor


def _shifted(position: PositionFn, dx: float) -> PositionFn:
    def shifted(s: float) -> PGVector:
        p = position(s)
        return PGVector(p.x1 - dx, p.x2, p.x3)
    return shifted


def make_analytic_curve(position: PositionFn,
                        d1: PositionFn, d2: PositionFn,
                        d3: PositionFn, d4: PositionFn,
                        domain: tuple[float, float],
                        higher: Sequence[PositionFn] = ()) -> CurveJet:
    """Wrap closed-form jets into a curve.

    The x-component is normalized so that x(s) = s: a constant offset
    measured at the domain midpoint is subtracted.  At five reproducibly
    chosen interior points every supplied derivative is compared against a
    central difference of the one below it (relative tolerance 1e-4);
    mismatches are recorded as warnings, not errors.  ``higher`` may supply
    derivative functions beyond order 4 (used e.g. by fixtures that want
    exact Bertrand mates).
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not (lo < hi):
        raise EmptyDomainError(f"empty domain [{lo}, {hi}]")

    mid = 0.5 * (lo + hi)
    dx = position(mid).x1 - mid
    if dx != 0.0:
        position = _shifted(position, dx)

    fns: list[PositionFn] = [position, d1, d2, d3, d4, *higher]
    warnings: list[str] = []

    span = hi - lo
    rng = random.Random(0x5EED)
    probes = [lo + (0.1 + 0.8 * rng.random()) * span for _ in range(5)]
    hp = (_EPS ** (1 / 3)) * max(1.0, abs(lo), abs(hi))
    hp = min(hp, 0.05 * span)
    for s in probes:
        p = position(s)
        if abs(p.x1 - s) > 1e-9 * max(1.0, abs(s)):
            warnings.append(f"position x-component differs from s at s={s:.6g}")
            break
    for k in range(1, len(fns)):
        bad = 0
        for s in probes:
            fd = (fns[k - 1](s + hp) - fns[k - 1](s - hp)) / (2.0 * hp)
            got = fns[k](s)
            scale = max(1.0, got.max_abs(), fd.max_abs())
            if (fd - got).max_abs() > 1e-4 * scale:
                bad += 1
        if bad:
            warnings.append(
                f"supplied order-{k} derivative disagrees with a central "
                f"difference of order {k - 1} at {bad}/5 probe points")

    def jet_fn(s: float, order: int) -> PGVector:
        return fns[order](s)

    return CurveJet(jet_fn, (lo, hi), JetKind.ANALYTIC,
                    max_order=len(fns) - 1, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# finite-difference constructor

_ROUNDOFF_ULPS = 4.0        # ulps of error trusted in each position sample
_BALANCED = _EPS ** 0.1     # balances truncation and round-off at order 4
_BALANCED_6 = _EPS ** (1 / 12)      # and at order 6

# node ranges (first offset, count), in units of the step, of the centred
# base stencils: 5 points for orders 1-2, 7 for orders 3-4, 9 for 5-6
_CENTRED = {1: (-2, 5), 2: (-2, 5), 3: (-3, 7), 4: (-3, 7), 5: (-4, 9),
            6: (-4, 9)}


class FDVector(PGVector):
    """A finite-difference derivative vector with an absolute error bound.

    ``err`` bounds the error of every component: the Richardson
    difference |fine - coarse| / 15 plus a round-off bound on the
    stencil sums.  It takes part in equality, hash and repr.
    """

    __slots__ = ("err",)

    def __init__(self, x1: float, x2: float, x3: float, err: float = 0.0):
        PGVector.__init__(self, x1, x2, x3)
        _set_err(self, err)

    def _values(self) -> tuple:
        return (self.x1, self.x2, self.x3, self.err)

    def __repr__(self):
        return (f"FDVector(x1={self.x1!r}, x2={self.x2!r}, x3={self.x3!r}, "
                f"err={self.err!r})")


_set_err = FDVector.err.__set__


def jet_errors(*jets: PGVector) -> tuple[float, ...] | None:
    """Error bounds of the given jets; None when every jet is exact."""
    errs = tuple(getattr(j, "err", 0.0) for j in jets)
    return errs if any(errs) else None


@lru_cache(maxsize=None)
def _weights(order: int, first: int, count: int
             ) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """Stencil for the order-th derivative at 0 on the integer nodes
    first, ..., first + count - 1.

    The weight of node x_j is order! times the t^order coefficient of
    the Lagrange basis polynomial prod_{i != j} (t - x_i) / (x_j - x_i),
    which is what Fornberg's recursion (Math. Comp. 51 (1988) 699-706)
    computes; here it is done in exact integer arithmetic.  Returned as
    (offsets, integer weights, common denominator, sum of |weights|),
    nodes of zero weight dropped.  On the centred node sets these are
    the classical 5-, 7- and 9-point stencils.
    """
    nodes = range(first, first + count)
    fracs: list[tuple[int, int]] = []
    for xj in nodes:
        poly, den = [1], 1          # prod (t - x_i), lowest power first
        for xi in nodes:
            if xi != xj:
                poly = [(poly[k - 1] if k else 0)
                        - xi * (poly[k] if k < len(poly) else 0)
                        for k in range(len(poly) + 1)]
                den *= xj - xi
        fracs.append((math.factorial(order) * poly[order], den))
    denom = math.lcm(*(abs(d) // math.gcd(n, d) for n, d in fracs))
    pairs = [(x, n * denom // d) for x, (n, d) in zip(nodes, fracs) if n]
    offsets = tuple(x for x, _ in pairs)
    weights = tuple(w for _, w in pairs)
    return offsets, weights, denom, sum(abs(w) for w in weights)


_Row = tuple[float, float, float, float]      # x, y, z, max |component|
RowFn = Callable[[float], _Row]
Rows = Callable[[float, float, tuple[int, ...]], list[_Row]]


def _row_fn(position: PositionFn) -> RowFn:
    """The row (x, y, z, max |component|) of the position at t."""
    def row_at(t: float) -> _Row:
        p = position(t)
        return p.x1, p.x2, p.x3, p.max_abs()
    return row_at


def _row_source(row_at: RowFn) -> Rows:
    """``rows(s, step, offsets)``: the row at each s + j * step, each
    abscissa read once while the source (one jet bundle) lives: the
    coarse nodes j*H equal the fine nodes 2j*(H/2) bit for bit, and
    nodes that several orders or step trials share come from one read."""
    seen: dict[float, _Row] = {}
    get = seen.get

    def rows(s: float, step: float, offsets: tuple[int, ...]) -> list[_Row]:
        out = []
        for j in offsets:
            t = s + j * step
            row = get(t)
            if row is None:
                row = seen[t] = row_at(t)
            out.append(row)
        return out

    return rows


def _extrapolate(rows: Rows, s: float, order: int, h: float, first: int,
                 count: int) -> tuple[float, float, float, float, float]:
    """One Richardson level over steps h and h/2 on the node range
    (first, count): the jet's components, its truncation estimate and
    its round-off bound.  The jet's error bound is their sum."""
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
    roundoff = (_ROUNDOFF_ULPS * _EPS * wsum / denom
                * (16.0 * fmag / half ** order + cmag / h ** order) / 15.0)
    x = (16.0 * fx - cx) / 15.0
    y = (16.0 * fy - cy) / 15.0
    z = (16.0 * fz - cz) / 15.0
    if not math.isfinite(x + y + z):
        FDVector(x, y, z)       # a non-finite component raises here
    return x, y, z, trunc, roundoff


def _fd_jet(rows: Rows, s: float, order: int, h: float, top: int,
            window: tuple[float, float]) -> FDVector:
    """Order-``order`` (>= 1) jet at s with its error bound: centred at
    steps h and h/2 when ``top`` is 1, otherwise at the step
    :func:`_adaptive` picks."""
    if top == 1:
        x, y, z, trunc, roundoff = _extrapolate(rows, s, order, h,
                                                *_CENTRED[order])
    else:
        x, y, z, trunc, roundoff = _adaptive(rows, s, order, h, top, window)
    return FDVector(x, y, z, trunc + roundoff)


def _node_range(order: int, s: float, step: float,
                window: tuple[float, float]) -> tuple[int, int] | None:
    """Node range (first, count), in units of ``step``, of an order-3 to
    6 stencil at s whose nodes all lie in ``window``.

    The centred stencil (``_CENTRED``, reaching ``half`` steps) when it
    fits; otherwise order + 4 consecutive points (fourth-order accurate
    off centre) pushed away from the nearer window end; None when the
    window is too short for the step.
    """
    half = -_CENTRED[order][0]
    left = math.floor((s - window[0]) / step + 1e-9)
    right = math.floor((window[1] - s) / step + 1e-9)
    if left >= half and right >= half:
        return _CENTRED[order]
    count = order + 4
    if left + right + 1 < count:
        return None
    return (-left, count) if left < half else (right - count + 1, count)


def _fit(order: int, s: float, m: int, h: float,
         window: tuple[float, float]) -> tuple[int, tuple[int, int]]:
    """The largest multiple m' <= m of h whose order-3 to 6 stencil at s
    fits the window, with its node range; m' = 1 and the centred
    stencil, which reaches 3h (4h at orders 5-6), inside the 4h margin,
    when none fits.  A stencil that fits at a step fits at every shorter
    one, so the multiples below a first misfit are bisected."""
    nodes = _node_range(order, s, m * h, window)
    if nodes is not None:
        return m, nodes
    good, bad = 0, m
    while bad - good > 1:
        mid = (good + bad) // 2
        trial = _node_range(order, s, mid * h, window)
        if trial is None:
            bad = mid
        else:
            good, nodes = mid, trial
    return max(good, 1), nodes or _CENTRED[order]


def _adaptive(rows: Rows, s: float, order: int, h: float, top: int,
              window: tuple[float, float]
              ) -> tuple[float, float, float, float, float]:
    """Order-3 to 6 jet at the step m*h, 1 <= m <= 2*top, whose error
    estimate is smallest among the steps tried, as :func:`_extrapolate`
    returns it.

    The first try is the balanced step top*h, or the largest step below
    it whose stencil fits the window.  The estimate t + r (truncation
    estimate plus round-off bound) is modelled at other steps H as
    t*(H/H0)^4 + r*(H0/H)^order; its minimum, moved to the nearest
    multiple of h that fits the window, is tried next.  At most three
    steps are tried, and a prediction within 20% of the current step
    ends the search.  Multiples of h keep every node on s + (h/2) * Z.
    """
    m, nodes = _fit(order, s, top, h, window)
    best = _extrapolate(rows, s, order, m * h, *nodes)
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
        jet = _extrapolate(rows, s, order, m * h, *nodes)
        trunc, roundoff = jet[3:]
        if trunc + roundoff < best[3] + best[4]:
            best = jet
    return best


def make_sampled_curve(position: PositionFn, domain: tuple[float, float],
                       h: float | None = None) -> CurveJet:
    """Build a curve whose derivatives, up to order 6, come from finite
    differences.

    Every jet is one Richardson level over the steps H and H/2 of a
    fourth-order stencil, (16 * fine - coarse) / 15, and is returned as
    an :class:`FDVector` whose ``err`` bounds its error: the Richardson
    difference |fine - coarse| / 15 plus a round-off bound of
    4 ulps * sum|w| * max|position| / (denominator * H^order) per stencil.

    Steps.  The default h is the balanced step eps^0.1 * max(1, |lo|,
    |hi|), which balances truncation and round-off for the order-4 jets.
    Orders 1 and 2 use h as given, on centred 5-point stencils.  Orders
    3 and 4 use h as well unless h is at most half the balanced step; h
    is then round-off-bound, and each order-3/4 jet picks its own step
    H = m*h with 1 <= m <= 2 * floor(balanced / h), the one with the
    smallest error estimate among at most three tried steps (see
    ``_adaptive``).  The estimate depends on the curve and on s, so the
    step does too.  Orders 5 and 6 do the same from the order-6 balance
    eps^(1/12) * max(1, |lo|, |hi|), or eps^(1/12) on a lattice, whose
    nodes are read by index wherever it lies along s.

    Window.  ``position`` is only read on the domain widened by 4h on
    each side.  Centred stencils reach 2h (orders 1-2), 3H (orders 3-4)
    and 4H (orders 5-6); where a centred order-3 to 6 stencil would leave
    the window, an off-centre stencil of order + 4 consecutive nodes (see
    ``_weights``) is used instead.  Every node is s + j * h/2 for an
    integer j.

    Bundles.  ``jets(s, first, last)`` reads each node once for all its
    orders and step trials (see ``_row_source``); ``jet(s, k)`` is the
    bundle of order k alone, so both give the same bits.  Nothing is
    kept between calls: evaluation is pure.
    """
    return _fd_curve(_row_fn(position), domain, h)


# the fewest lattice rows that build: the domain of 8h = 16 spacings plus
# 8 spacings of stencil reach at each end, plus one
LATTICE_MIN_ROWS = 8 + 16 + 8 + 1


def make_lattice_curve(samples: Iterable[Sequence[float]]) -> CurveJet:
    """:func:`make_sampled_curve` of the (s, x, y, z) ``samples``, in any
    order, of positions on a uniform lattice first, ..., last, at
    h = 2 * spacing on the lattice less 8 spacings at each end: stencils
    stay on the ``nodes`` (first, spacing); a read between them raises.
    It needs ``LATTICE_MIN_ROWS`` samples (else ``NarrowDomainError``) of
    distinct s, each within 1e-9 * max(1, |s|) of its node and within
    1e-6 * spacing, the tolerance of a read (else ``ValueError``)."""
    samples = sorted(samples, key=itemgetter(0))
    n = len(samples)
    if n < LATTICE_MIN_ROWS:
        raise NarrowDomainError(f"need at least {LATTICE_MIN_ROWS} samples "
                                f"to rebuild derivatives, got {n}")
    first, last = samples[0][0], samples[-1][0]
    spacing = (last - first) / (n - 1)
    if not spacing > 0.0:
        raise ValueError("sample parameters must be distinct")
    rows = []
    for i, (s, x, y, z) in enumerate(samples):
        off = abs(s - (first + i * spacing))
        if off > 1e-9 * max(1.0, abs(s)):
            raise ValueError(f"samples must lie on a uniform lattice "
                             f"(s={s!r} is off by more than 1e-9)")
        if off > 1e-6 * spacing:
            raise ValueError(f"samples must lie on a uniform lattice "
                             f"(s={s!r} is off by more than 1e-6 spacings)")
        rows.append((x, y, z, max(abs(x), abs(y), abs(z))))

    def row_at(t: float) -> _Row:
        i = round((t - first) / spacing)
        if i < 0 or i >= n or abs(t - (first + i * spacing)) > 1e-6 * spacing:
            raise ValueError(f"off-lattice evaluation at s={t!r}")
        return rows[i]

    return _fd_curve(row_at, (first + 8 * spacing, last - 8 * spacing),
                     2 * spacing, (first, spacing))


def _fd_curve(row_at: RowFn, domain: tuple[float, float], h: float | None,
              nodes: tuple[float, float] | None = None) -> CurveJet:
    """:func:`make_sampled_curve` of the rows ``row_at(t)``."""
    lo, hi = float(domain[0]), float(domain[1])
    if not (lo < hi):
        raise EmptyDomainError(f"empty domain [{lo}, {hi}]")

    scale = max(1.0, abs(lo), abs(hi))
    if h is None:
        h = _BALANCED * scale
    h = float(h)
    if not h >= 64.0 * _EPS * scale:
        raise StepTooSmallError(f"step {h} is below the round-off guard")
    # the slack forgives the rounding of a lattice's ends (8h is exact)
    if hi - lo < 8.0 * h - 8.0 * _EPS * scale:
        raise NarrowDomainError(f"domain [{lo}, {hi}] is shorter than 8h = {8 * h}")

    # probe the left endpoint, which on a lattice is a node
    dx = row_at(lo)[0] - lo
    if dx != 0.0:
        unshifted = row_at

        def row_at(t: float) -> _Row:
            x, y, z, _ = unshifted(t)
            if not math.isfinite(x - dx):
                PGVector(x - dx, y, z)      # an overflowing shift raises
            return x - dx, y, z, max(abs(x - dx), abs(y), abs(z))

    # the balanced multiple of h that each order's step search starts from
    top4 = max(1, math.floor(_BALANCED * scale / h))
    top6 = max(1, math.floor(_BALANCED_6 * (1.0 if nodes else scale) / h))
    tops = (1, 1, 1, top4, top4, top6, top6)
    window = (lo - 4.0 * h, hi + 4.0 * h)

    def jets_fn(s: float, first: int, last: int) -> tuple[PGVector, ...]:
        rows = _row_source(row_at)
        return tuple(PGVector(*row_at(s)[:3]) if k == 0
                     else _fd_jet(rows, s, k, h, tops[k], window)
                     for k in range(first, last + 1))

    return CurveJet(None, (lo, hi), JetKind.FINITE_DIFFERENCE, max_order=6,
                    jets_fn=jets_fn, nodes=nodes)


# ---------------------------------------------------------------------------
# similarity motions


def apply_similarity(c: CurveJet, m: SimilarityMotion) -> CurveJet:
    """Map the curve by the motion m and re-express the image in its own
    arc length.

    The image's x-coordinate is t = a + b*s, so its arc-length parameter
    is t and its order-k jet at t is m's linear part applied to c's
    order-k jet at s = (t - a)/b, divided by b**k; the translations move
    the position (order 0) alone.  The domain is the image of c's, sorted
    (b < 0 reverses it).  A finite-difference jet's error bound is
    multiplied by max(|b|, max(|d|, |f|) + |r|*e^|theta|) / |b|**k, which
    bounds the linear part's row sums over |b|**k.  The curve keeps its
    kind, jet orders and warnings.  Raises ValueError when b == 0, which
    maps the curve into the plane x = a, or when r == 0.
    """
    a, b = m.a, m.b
    if b == 0.0:
        raise ValueError("similarity motion with b = 0 maps the curve "
                         "into the plane x = a")
    if m.r == 0.0:
        raise ValueError("similarity scale r must be nonzero")
    rch = m.r * math.cosh(m.theta)
    rsh = m.r * math.sinh(m.theta)
    row_sum = max(abs(b), max(abs(m.d), abs(m.f))
                  + abs(m.r) * math.exp(abs(m.theta)))

    def image(k: int, j: PGVector) -> PGVector:
        q = b ** k
        x = b * j.x1 / q
        y = (m.d * j.x1 + rch * j.x2 + rsh * j.x3) / q
        z = (m.f * j.x1 + rsh * j.x2 + rch * j.x3) / q
        if k == 0:
            return PGVector(a + x, m.c + y, m.e + z)
        if isinstance(j, FDVector):
            return FDVector(x, y, z, j.err * row_sum / abs(q))
        return PGVector(x, y, z)

    def jets_fn(t: float, first: int, last: int) -> tuple[PGVector, ...]:
        return tuple(image(k, j) for k, j in
                     enumerate(c.jets((t - a) / b, first, last), first))

    lo, hi = sorted((a + b * c.domain[0], a + b * c.domain[1]))
    return CurveJet(None, (lo, hi), c.kind, max_order=c.max_order,
                    warnings=c.warnings, jets_fn=jets_fn)


def apply_homothety(c: CurveJet, mu: float) -> CurveJet:
    """Rescale the curve by mu > 0 and re-express it in its own arc length:
    the similarity motion with b = r = mu (see :func:`apply_similarity`).
    Order-k jets scale by mu**(1-k), and so do the error bounds of
    finite-difference jets.
    """
    if not (mu > 0.0):
        raise ValueError(f"homothety factor must be positive, got {mu}")
    return apply_similarity(c, SimilarityMotion(b=mu, r=mu))
