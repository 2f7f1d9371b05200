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

Every tier serves one read protocol, :meth:`CurveJet.rows`: for each of
a list of points, one flat float row holding (x, y, z, err) for each
order, err = 0.0 where the jet is exact.  Closed forms loop over the
points; the finite-difference tier runs the call order by order for all
the points at once: the points that share a stencil (step and node
range) form one group, whose stencil sums are C-level ``fsum`` passes
over the group's nodes, read point by point.  The kernels read rows;
vectors appear only at the public boundary (``jet``, ``jets``,
``bundles``), which wraps each order of a row into a :class:`PGVector`,
or an :class:`FDVector` where its err is nonzero.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from functools import lru_cache, partial
from itertools import chain
from math import fsum, inf, isfinite
from operator import itemgetter, mul
from typing import Callable, Iterable, Sequence

from .algebra import PGVector, SimilarityMotion, _finite
from .errors import (
    CurveLabError,
    EmptyDomainError,
    JetOrderError,
    NarrowDomainError,
    StepTooSmallError,
)

_EPS = 2.220446049250313e-16

PositionFn = Callable[[float], PGVector]
# a row: (x, y, z, err) of each order first..last at one point, flat
Row = Sequence[float]
RowsFn = Callable[[Sequence[float], int, int], list[Row]]
# fill(row, s, first, last): a closed form appending its row at s to ``row``
Fill = Callable[[list, float, int, int], None]


class JetKind(Enum):
    ANALYTIC = "analytic"
    FINITE_DIFFERENCE = "finite-difference"

    @property
    def tolerance(self) -> float:
        """Default verdict tolerance: 1e-8, or 1e-5 for FD jets, whose
        fourth derivatives carry more round-off."""
        return 1e-8 if self is JetKind.ANALYTIC else 1e-5


def _naming_s(fill: Fill) -> RowsFn:
    """The rows of a closed form, the one loop over points for the
    catalogue's fills and a user's ``jet_fn``: ``fill(row, s, first,
    last)`` appends (x, y, z, err) for each order first..last at s to
    ``row``, which is checked by ``algebra._finite``, err included, in
    that order (the orders filled before an error first), as their
    vectors were built.  An ``ArithmeticError`` or ``ValueError`` leaves
    naming s."""
    def rows(points: Sequence[float], first: int, last: int) -> list[Row]:
        out = []
        for s in points:
            row: list[float] = []
            try:
                try:
                    fill(row, s, first, last)
                finally:
                    _finite(*row)
            except (ArithmeticError, ValueError) as exc:
                raise type(exc)(f"{exc} at s={s:.6g}") from exc
            out.append(row)
        return out
    return rows


def _jet_fill(jet_fn: Callable[[float, int], PGVector], row: list, s: float,
              first: int, last: int) -> None:
    """The fill of ``jet_fn(s, order)``: (x, y, z, err) of each order's
    vector, err 0.0 on a PGVector, appended once all orders are built."""
    for j in [jet_fn(s, k) for k in range(first, last + 1)]:
        row += j.x1, j.x2, j.x3, getattr(j, "err", 0.0)


def _vectors(row: Row) -> tuple[PGVector, ...]:
    """A row as vectors: an :class:`FDVector` where an order's err is
    nonzero, else a :class:`PGVector` (its components are checked)."""
    return tuple(FDVector(x, y, z, e) if e else PGVector(x, y, z)
                 for x, y, z, e in zip(*[iter(row)] * 4))


class CurveJet:
    """Evaluator of a curve's position and derivatives up to ``max_order``.

    Instances are immutable; evaluation is pure.  ``warnings`` collects
    non-fatal construction diagnostics (e.g. inconsistent supplied
    derivatives), never errors.

    The curve stores one callable, ``rows_fn(points, first, last)``, the
    rows of orders first..last at every point (see :meth:`rows`); the
    library's tiers pass it.  A curve may instead pass ``jet_fn(s,
    order)``, the vector of one order at s, whose rows ``_naming_s``
    reads as it reads a catalogue fill: an :class:`FDVector`'s ``err``
    goes into the row and must be finite, and errors name s.
    """

    __slots__ = ("domain", "kind", "max_order", "warnings", "nodes",
                 "_rows_fn")

    def __init__(self, jet_fn: Callable[[float, int], PGVector] | None,
                 domain: tuple[float, float], kind: JetKind,
                 max_order: int = 4, warnings: tuple[str, ...] = (),
                 nodes: tuple[float, float] | None = None,
                 rows_fn: RowsFn | None = None):
        lo, hi = float(domain[0]), float(domain[1])
        if not (lo < hi):
            raise EmptyDomainError(f"empty domain [{lo}, {hi}]")
        if rows_fn is None:
            rows_fn = _naming_s(partial(_jet_fill, jet_fn))
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "max_order", int(max_order))
        object.__setattr__(self, "warnings", tuple(warnings))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_rows_fn", rows_fn)

    def __setattr__(self, *_):
        raise AttributeError("CurveJet is immutable")

    def _check(self, points: Iterable[float], first: int, last: int) -> None:
        if first > last:
            raise JetOrderError(f"empty order range {first}..{last}")
        if first < 0 or last > self.max_order:
            order = first if first < 0 else last
            raise JetOrderError(
                f"order {order} not available (curve carries orders 0..{self.max_order})")
        lo, hi = self.domain
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        for s in points:
            if not lo - slack <= s <= hi + slack:
                raise ValueError(f"parameter {s} outside domain [{lo}, {hi}]")

    def rows(self, points: Sequence[float], first: int, last: int
             ) -> list[Row]:
        """For each point, one flat float row of (x, y, z, err) for each
        order first..last, err 0.0 where exact; orders and points checked
        first.  Where reading the points one at a time raises, so does
        the call, not always with that error (see :func:`bundle_reader`)."""
        if not points:
            return []
        self._check(points, first, last)
        return self._rows_fn(points, first, last)

    def jet(self, s: float, order: int = 0) -> PGVector:
        return self.jets(s, order, order)[0]

    def jets(self, s: float, first: int, last: int) -> tuple[PGVector, ...]:
        """The derivative vectors of orders first..last at s: the
        one-point row, wrapped."""
        return _vectors(self.rows((s,), first, last)[0])

    def bundles(self, points: Sequence[float], first: int, last: int
                ) -> list[tuple[PGVector, ...]]:
        """``[self.jets(s, first, last) for s in points]``, bit for bit,
        from one :meth:`rows` call."""
        return [_vectors(row) for row in self.rows(points, first, last)]

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
        (start alone when count is 1; the last point is stop itself, not
        start + (count - 1) * step), each replaced by its ``snap``,
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
            points = chain((start + i * step for i in range(count - 1)),
                           (stop,))
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


def bundle_reader(c: CurveJet, points: Sequence[float], first: int,
                  last: int) -> Callable[[int], Row]:
    """``read(i)``, the row of orders first..last at ``points[i]``, for a
    consumer that tests each point before it reads the next: from one
    :meth:`CurveJet.rows` call where it returns; otherwise from the
    one-point call at each point as the consumer first reads it, so the
    first failure the consumer meets is the one a point-by-point sweep
    meets.  That holds for an ``ArithmeticError``, ``ValueError`` or
    :class:`~.errors.CurveLabError`; anything else a jet raises leaves
    the call as it is."""
    try:
        return c.rows(points, first, last).__getitem__
    except (ArithmeticError, ValueError, CurveLabError):
        return lambda i: c.rows((points[i],), first, last)[0]


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
# nodes(offsets, step, k): the nodes s + j * step, j of ``offsets``, at
# each of a group's points s, d = j * k half-steps (h/2) from s, point by
# point: (every x, then every y, then every z, in one sequence; every
# max |component|)
Nodes = Callable[[Sequence[int], float, int],
                 tuple[Sequence[float], Sequence[float]]]


class _RowReads:
    """The nodes of a batch's points read through ``row_at``, each
    abscissa once per point while the batch lives: the coarse nodes j*H
    equal the fine nodes 2j*(H/2) bit for bit, and nodes that several
    orders or step trials share come from one read."""

    __slots__ = ("row_at", "points", "seen")

    def __init__(self, row_at: Callable[[float], _Row],
                 points: Sequence[float]):
        self.row_at, self.points = row_at, points
        self.seen: list[dict[float, _Row]] = [{} for _ in points]

    def positions(self) -> list[Row]:
        return [_finite(*self.row_at(s)[:3]) + (0.0,) for s in self.points]

    def nodes(self, sel: Sequence[int]) -> Nodes:
        """The nodes of the points numbered ``sel``."""
        row_at = self.row_at
        pts = [(self.points[p], self.seen[p]) for p in sel]

        def nodes(offsets: Sequence[int], step: float, k: int) -> tuple:
            rows = []
            for s, seen in pts:
                for j in offsets:
                    t = s + j * step
                    row = seen.get(t)
                    if row is None:
                        row = seen[t] = row_at(t)
                    rows.append(row)
            x, y, z, mag = zip(*rows)
            return x + y + z, mag

        return nodes


class _LatticeReads:
    """The nodes of a batch's points on the lattice ``nodes`` (first,
    spacing), spacing h/2, read by index from its finite ``columns`` (x,
    y, z, max |component|): node s + j*step of the point on row i is row
    i + j*k.  Before any read, every point must lie within 1e-6 spacings
    of a domain node, rows 8 to n - 9, else ``ValueError`` naming it."""

    __slots__ = ("columns", "index")

    def __init__(self, columns: tuple[Sequence[float], ...],
                 nodes: tuple[float, float], points: Sequence[float]):
        first, spacing = nodes
        top = len(columns[0]) - 9
        self.columns, self.index = columns, []
        for s in points:
            i = round((s - first) / spacing)
            off = abs(s - (first + i * spacing))
            if not (8 <= i <= top and off <= 1e-6 * spacing):
                raise ValueError(f"off-lattice evaluation at s={s!r}")
            self.index.append(i)

    def positions(self) -> list[Row]:
        x, y, z, _ = self.columns
        return [(x[i], y[i], z[i], 0.0) for i in self.index]

    def nodes(self, sel: Sequence[int]) -> Nodes:
        """The nodes of the points numbered ``sel``."""
        x, y, z, mag = self.columns
        rows = [self.index[p] for p in sel]

        def nodes(offsets: Sequence[int], step: float, k: int) -> tuple:
            get = itemgetter(*[i + j * k for i in rows for j in offsets])
            return get(x) + get(y) + get(z), get(mag)

        return nodes


_Reads = _RowReads | _LatticeReads
_Jet = tuple[float, float, float, float, float]


@lru_cache(maxsize=None)
def _stencil(order: int, first: int, count: int
             ) -> tuple[tuple[int, ...], tuple[float, ...], int, float]:
    """``_weights`` as a sum reads it: offsets, the integer weights as
    floats (exact: w * x is the product int * float gives), the common
    denominator and the round-off factor 4 ulps * sum|w| / denominator."""
    offsets, weights, denom, wsum = _weights(order, first, count)
    return (offsets, tuple(map(float, weights)), denom,
            _ROUNDOFF_ULPS * _EPS * wsum / denom)


def _extrapolate(nodes: Nodes, order: int, m: int, h: float, first: int,
                 count: int) -> list[_Jet]:
    """One Richardson level over the steps H = m*h and H/2 on the node
    range (first, count), for every point of ``nodes``: its jet's
    components, truncation estimate and round-off bound, whose sum is
    the jet's error bound.  Each stencil sum is one ``fsum`` per point
    over the terms w_j * node_j in node order, taken for all the points
    at once: coarse x, y, z, then fine x, y, z, then each point's
    finiteness check, the order a point alone meets them in."""
    offsets, weights, denom, bound = _stencil(order, first, count)
    width = len(offsets)
    big = m * h
    sums: list[Sequence[float]] = []
    for step, k in ((big, 2 * m), (0.5 * big, m)):
        xyz, mag = nodes(offsets, step, k)
        n = len(mag) // width
        xyz = list(map(fsum, zip(*[map(mul, weights * (3 * n), xyz)]
                                 * width)))
        sums += (xyz[:n], xyz[n:2 * n], xyz[2 * n:],
                 list(map(max, zip(*[iter(mag)] * width))))
    coarse_pow, fine_pow = big ** order, (0.5 * big) ** order
    coarse, fine = denom * coarse_pow, denom * fine_pow

    def combine(cx: float, cy: float, cz: float, cmag: float, fx: float,
                fy: float, fz: float, fmag: float) -> _Jet:
        cx, cy, cz = cx / coarse, cy / coarse, cz / coarse
        fx, fy, fz = fx / fine, fy / fine, fz / fine
        trunc = max(abs(fx - cx), abs(fy - cy), abs(fz - cz)) / 15.0
        roundoff = bound * (16.0 * fmag / fine_pow + cmag / coarse_pow) / 15.0
        x = (16.0 * fx - cx) / 15.0
        y = (16.0 * fy - cy) / 15.0
        z = (16.0 * fz - cz) / 15.0
        if not isfinite(x + y + z):
            _finite(x, y, z)        # a non-finite component raises here
        return x, y, z, trunc, roundoff

    return list(map(combine, *sums))


def _tries(reads: _Reads, order: int, h: float, sel: Sequence[int],
           fits: Sequence[tuple[int, tuple[int, int]]]) -> list[_Jet]:
    """:func:`_extrapolate` of each point sel[i] at its step multiple and
    node range fits[i], the points that share both in one group."""
    if fits.count(fits[0]) == len(fits):
        m, nodes = fits[0]
        return _extrapolate(reads.nodes(sel), order, m, h, *nodes)
    groups: dict[tuple[int, tuple[int, int]], list[int]] = {}
    for i, key in enumerate(fits):
        groups.setdefault(key, []).append(i)
    out: dict[int, _Jet] = {}
    for (m, nodes), group in groups.items():
        nodes_of = reads.nodes([sel[i] for i in group])
        out.update(zip(group, _extrapolate(nodes_of, order, m, h, *nodes)))
    return [out[i] for i in range(len(sel))]


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


def _adaptive(reads: _Reads, points: Sequence[float], order: int, h: float,
              top: int, window: tuple[float, float]) -> list[_Jet]:
    """Order-3 to 6 jet at each point, at the step m*h, 1 <= m <= 2*top,
    whose error estimate is smallest among the steps tried there, as
    :func:`_extrapolate` returns it.

    The first try is the balanced step top*h, or the largest step below
    it whose stencil fits the window.  The estimate t + r (truncation
    estimate plus round-off bound) is modelled at other steps H as
    t*(H/H0)^4 + r*(H0/H)^order; its minimum, moved to the nearest
    multiple of h that fits the window, is tried next (2*top*h where
    t = 0 or r/t is not finite).  At most three steps are tried, and a
    prediction within 20% of the current step ends the search.
    Multiples of h keep every node on s + (h/2) * Z.
    Each try runs for all the points still searching at once.
    """
    fits = [_fit(order, s, top, h, window) for s in points]
    steps = [m for m, _ in fits]
    sel: Sequence[int] = range(len(points))
    latest = _tries(reads, order, h, sel, fits)
    best = list(latest)
    for _ in range(2):
        searching, fits = [], []
        for p, (_, _, _, trunc, roundoff) in zip(sel, latest):
            m = steps[p]
            ratio = order * roundoff / (4.0 * trunc) if trunc > 0.0 else inf
            if isfinite(ratio):
                nxt = round(m * ratio ** (1.0 / (order + 4)))
            else:
                nxt = 2 * top
            nxt, nodes = _fit(order, points[p], min(max(nxt, 1), 2 * top), h,
                              window)
            if abs(nxt - m) > 0.2 * m:
                steps[p] = nxt
                searching.append(p)
                fits.append((nxt, nodes))
        if not searching:
            break
        sel = searching
        latest = _tries(reads, order, h, sel, fits)
        for p, jet in zip(sel, latest):
            if jet[3] + jet[4] < best[p][3] + best[p][4]:
                best[p] = jet
    return best


def _fd_rows(reads: _Reads, points: Sequence[float], first: int, last: int,
             h: float, tops: tuple[int, ...], window: tuple[float, float]
             ) -> list[Row]:
    """The rows of orders first..last at every point, order by order for
    all the points at once: the positions (err 0.0), then each order's
    jets (x, y, z, trunc + roundoff), centred at steps h and h/2 when its
    ``tops`` entry is 1 (one group of all the points), otherwise at the
    step :func:`_adaptive` picks."""
    orders = []
    every = reads.nodes(range(len(points)))
    for k in range(first, last + 1):
        if k == 0:
            orders.append(reads.positions())
            continue
        if tops[k] == 1:
            jets = _extrapolate(every, k, 1, h, *_CENTRED[k])
        else:
            jets = _adaptive(reads, points, k, h, tops[k], window)
        orders.append([(x, y, z, trunc + roundoff)
                       for x, y, z, trunc, roundoff in jets])
    return [sum(parts, ()) for parts in zip(*orders)]


def make_sampled_curve(position: PositionFn, domain: tuple[float, float],
                       h: float | None = None) -> CurveJet:
    """Build a curve whose derivatives, up to order 6, come from finite
    differences.

    Every jet is one Richardson level over the steps H and H/2 of a
    fourth-order stencil, (16 * fine - coarse) / 15, and carries an
    ``err`` (in its row, and on the :class:`FDVector` the public calls
    return) that bounds its error: the Richardson
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

    Rows.  ``rows(points, first, last)`` evaluates every point in one
    pass, order by order: orders 1-2 as one group of all the points, and
    each step trial of orders 3-6 with the points grouped by step and
    node range (``_adaptive``).  Every point reads ``position`` once per
    node for all its orders and step trials (``_RowReads``, x shifted
    by its value at the left domain end), and its rows are those it
    gets alone, ``jets(s, first, last)`` being the one-point call;
    ``jet(s, k)`` is the row of order k alone, so all give the same
    bits.  Nothing is kept between calls: evaluation is pure.
    """
    return _fd_curve(domain, h, position)


# the fewest lattice rows that build: the domain of 8h = 16 spacings plus
# 8 spacings of stencil reach at each end, plus one
LATTICE_MIN_ROWS = 8 + 16 + 8 + 1


def make_lattice_curve(samples: Iterable[Sequence[float]]) -> CurveJet:
    """:func:`make_sampled_curve` of the (s, x, y, z) ``samples``, in any
    order, of positions on a uniform lattice first, ..., last, at
    h = 2 * spacing on the lattice less 8 spacings at each end: stencils
    stay on the ``nodes`` (first, spacing).  It needs ``LATTICE_MIN_ROWS``
    samples (else ``NarrowDomainError``) of finite values and distinct s,
    each within 1e-9 * max(1, |s|) of its node and within 1e-6 * spacing,
    whose x, shifted once to x = s at the first domain node, stays finite
    (else ``ValueError``, naming the first non-finite sample given, or
    the first by s whose shifted x is not).  Every call reads the x, y, z
    and max |component| columns by index (``_LatticeReads``): a point off
    the domain nodes raises "off-lattice evaluation at s=..." naming it."""
    samples = list(samples)
    if not all(isfinite(sum(col)) for col in zip(*samples)):
        for i, sample in enumerate(samples):
            if not all(map(isfinite, sample)):
                raise ValueError(f"samples must be finite, got "
                                 f"{tuple(sample)!r} (sample {i})")
    samples.sort(key=itemgetter(0))
    n = len(samples)
    if n < LATTICE_MIN_ROWS:
        raise NarrowDomainError(f"need at least {LATTICE_MIN_ROWS} samples "
                                f"to rebuild derivatives, got {n}")
    first, last = samples[0][0], samples[-1][0]
    spacing = (last - first) / (n - 1)
    if not spacing > 0.0:
        raise ValueError("sample parameters must be distinct")
    for i, (s, _, _, _) in enumerate(samples):
        off = abs(s - (first + i * spacing))
        if off > 1e-9 * max(1.0, abs(s)):
            raise ValueError(f"samples must lie on a uniform lattice "
                             f"(s={s!r} is off by more than 1e-9)")
        if off > 1e-6 * spacing:
            raise ValueError(f"samples must lie on a uniform lattice "
                             f"(s={s!r} is off by more than 1e-6 spacings)")
    _, x, y, z = zip(*samples)
    lo = first + 8 * spacing
    dx = x[8] - lo
    x = [v - dx for v in x]
    if not all(map(isfinite, x)):
        i = list(map(isfinite, x)).index(False)
        raise ValueError(f"samples must stay finite when x is shifted to "
                         f"x = s by dx = {dx!r}, got {tuple(samples[i])!r}")
    mag = list(map(max, map(abs, x), map(abs, y), map(abs, z)))
    return _fd_curve((lo, last - 8 * spacing), 2 * spacing,
                     columns=(x, y, z, mag), nodes=(first, spacing))


def _fd_curve(domain: tuple[float, float], h: float | None,
              position: PositionFn | None = None,
              columns: tuple[Sequence[float], ...] = (),
              nodes: tuple[float, float] | None = None) -> CurveJet:
    """:func:`make_sampled_curve` of ``position``, read through one row
    closure that shifts x by its value at the left domain end
    (``_RowReads``); or, on a lattice ``nodes`` (first, spacing), of its
    ``columns`` (x, y, z, max |component|), shifted to x = s and read
    by index (``_LatticeReads``)."""
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

    if nodes:
        reads_of = partial(_LatticeReads, columns, nodes)
    else:
        dx = position(lo).x1 - lo

        def row_at(t: float) -> _Row:
            p = position(t)
            x, y, z = p.x1 - dx, p.x2, p.x3
            if not isfinite(x):
                _finite(x, y, z)            # an overflowing shift raises
            return x, y, z, max(abs(x), abs(y), abs(z))

        reads_of = partial(_RowReads, row_at)

    # the balanced multiple of h that each order's step search starts from
    top4 = max(1, math.floor(_BALANCED * scale / h))
    top6 = max(1, math.floor(_BALANCED_6 * (1.0 if nodes else scale) / h))
    tops = (1, 1, 1, top4, top4, top6, top6)
    window = (lo - 4.0 * h, hi + 4.0 * h)

    def rows_fn(points: Sequence[float], first: int, last: int
                ) -> list[Row]:
        return _fd_rows(reads_of(points), points, first, last, h, tops,
                        window)

    return CurveJet(None, (lo, hi), JetKind.FINITE_DIFFERENCE, max_order=6,
                    nodes=nodes, rows_fn=rows_fn)


# ---------------------------------------------------------------------------
# similarity motions


def apply_similarity(c: CurveJet, m: SimilarityMotion) -> CurveJet:
    """Map the curve by the motion m and re-express the image in its own
    arc length.

    The image's x-coordinate is t = a + b*s, so its arc-length parameter
    is t and its order-k jet at t is m's linear part applied to c's
    order-k jet at s = (t - a)/b, divided by b**k; the translations move
    the position (order 0) alone; the image maps c's rows.  The domain is
    the image of c's, sorted (b < 0 reverses it).  A nonzero error bound
    (a finite-difference jet's) is multiplied by max(|b|, max(|d|, |f|)
    + |r|*e^|theta|) / |b|**k, which bounds the linear part's row sums
    over |b|**k.  The curve keeps its
    kind, jet orders and warnings.  Raises ValueError when b == 0, which
    maps the curve into the plane x = a, or when r == 0.  An error of
    the image's own arithmetic names t; c's errors name c's s.
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

    def rows_fn(points: Sequence[float], first: int, last: int
                ) -> list[Row]:
        out = []
        rows = c.rows([(t - a) / b for t in points], first, last)
        for t, row in zip(points, rows):
            image: list[float] = []
            try:
                for k, i in enumerate(range(0, len(row), 4), first):
                    x1, x2, x3, err = row[i:i + 4]
                    q = b ** k
                    x = b * x1 / q
                    y = (m.d * x1 + rch * x2 + rsh * x3) / q
                    z = (m.f * x1 + rsh * x2 + rch * x3) / q
                    if k == 0:
                        image += _finite(a + x, m.c + y, m.e + z) + (0.0,)
                    else:
                        err = err and err * row_sum / abs(q)
                        image += _finite(x, y, z) + (err,)
            except (ArithmeticError, ValueError) as exc:
                raise type(exc)(f"{exc} at t={t:.6g}") from exc
            out.append(image)
        return out

    lo, hi = sorted((a + b * c.domain[0], a + b * c.domain[1]))
    return CurveJet(None, (lo, hi), c.kind, max_order=c.max_order,
                    warnings=c.warnings, rows_fn=rows_fn)


def apply_homothety(c: CurveJet, mu: float) -> CurveJet:
    """Rescale the curve by mu > 0 and re-express it in its own arc length:
    the similarity motion with b = r = mu (see :func:`apply_similarity`).
    Order-k jets scale by mu**(1-k), and so do the error bounds of
    finite-difference jets.
    """
    if not (mu > 0.0):
        raise ValueError(f"homothety factor must be positive, got {mu}")
    return apply_similarity(c, SimilarityMotion(b=mu, r=mu))
