"""Offset mates along the scale-invariant normal, and their verification.

The mate of a curve gamma at constant offset lam is gamma + lam * N with
N the scale-invariant normal (N = rho^2 * gamma'' in components, so the
x-component is untouched and the mate stays in arc-length form).  A pair
of curves is accepted as a mate pair when, over a verification grid,

  * both have vanishing equiform curvature (the offset family exists
    only over curves of constant classical curvature),
  * their scale-invariant normals are parallel at matching parameters,
  * the offset recovered from the geometry is constant and matches the
    claimed offset function (which must itself be constant), and
  * the scalar product of the two scale-invariant tangents is constant.

Mate jets are computed through derivative-series arithmetic from the
base jets up to order 6, exact or finite-difference alike (the FD tier
serves orders 5-6 too), so every mate has one construction.  Mate order
k needs the normal series to order k only, that is base orders 2..k+2 in
series of length k+1; entry k of a series product, quotient or square
root depends on entries <= k alone, so this gives the bits a longer
series would.  Mate jets are served in bundles (:meth:`CurveJet.jets`,
which is how the Frenet and equiform kernels read a point): orders
first..last take one fetch of the base orders min(first, 2)..last+2 and
one series of length last+1, e.g. 6 base jets for the orders 1-4 of
:func:`equiform_data`, and base orders 0-6 once for a point of
:func:`verify_bertrand_pair`.  The mate keeps the base's domain, kind,
warnings and ``nodes``, and reads the base at its own parameters only.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .algebra import PGVector, pg_dot
from .curves import CurveJet
from .equiform import (
    MIN_GRID_POINTS,
    NaturalClassTag,
    _is_const,
    _mean,
    _natural_class_of,
    _spread,
    _sweep,
    natural_class,
)
from .errors import (
    InadmissibleCurveError,
    JetOrderError,
    MateInadmissibleError,
    NumericalInflectionError,
)
from .frenet import _overflow, frenet_data, normal_character
from .series import DSeries

OffsetFn = Callable[[float], float]


def _normal_series(jets: Sequence[PGVector], s: float
                   ) -> tuple[DSeries, DSeries]:
    """Derivative series of the two isotropic components of the
    scale-invariant normal rho^2 * gamma'' from the base jets of orders
    2, 3, ...: n jets give series of length n.  Raises where
    :func:`normal_character` rejects the base's acceleration."""
    eps = normal_character(s, None, jets[0])
    y2 = DSeries(j.x2 for j in jets)
    z2 = DSeries(j.x3 for j in jets)
    rho2 = (eps * (y2 * y2 - z2 * z2)).reciprocal()
    return rho2 * y2, rho2 * z2


def _offset_jets(base: CurveJet, lam: float, s: float, first: int,
                 last: int) -> tuple[PGVector, ...]:
    """Exact mate jets of orders first..last: one fetch of the base
    orders min(first, 2)..last+2 and one normal series of length last+1."""
    low = min(first, 2)
    jets = base.jets(s, low, last + 2)
    try:
        ny, nz = _normal_series(jets[2 - low:], s)
        out = tuple(PGVector(j.x1, j.x2 + lam * ny[k], j.x3 + lam * nz[k])
                    for k, j in enumerate(jets[first - low:last - low + 1],
                                          first))
    except (ValueError, ArithmeticError) as exc:
        raise _overflow(s, jets[2 - low], exc)
    if first <= 2 <= last:      # gamma'' + lam * N'' cancels to round-off
        j, m = jets[2 - low], out[2 - first]
        if (abs(m.x2) <= 8 * math.ulp(abs(j.x2) + abs(lam * ny[2]))
                and abs(m.x3) <= 8 * math.ulp(abs(j.x3) + abs(lam * nz[2]))):
            normal_character(s, None, m)    # an exact zero or lightlike
            raise NumericalInflectionError(
                f"numerically an inflection: the acceleration cancels to "
                f"round-off at s={s:.6g}", param=s)
    return out


def _probe_mate(mate: CurveJet, offset: float) -> None:
    lo, hi = mate.domain
    for f in (0.1, 0.3, 0.5, 0.7, 0.9):
        s = mate.snap(lo + f * (hi - lo))
        try:
            frenet_data(mate, s)
        except InadmissibleCurveError as exc:
            raise MateInadmissibleError(
                f"offset {offset:g} produces an inadmissible mate: {exc}",
                param=getattr(exc, "param", None)) from exc


def bertrand_mate(base: CurveJet, offset: float) -> CurveJet:
    """Construct the normal-offset mate of ``base`` at constant ``offset``.

    The returned curve carries order base.max_order - 2 jets, each from
    one fetch of the base's jets (:func:`_offset_jets`), and keeps the
    base's domain, kind, warnings and ``nodes``.  A non-finite offset
    raises ``ValueError`` and a base below order 6 :class:`JetOrderError`,
    both before any jet is read.  The mate is probed at five interior
    points and :class:`MateInadmissibleError` is raised if the offset
    flattens or degenerates it.
    """
    lam = float(offset)
    if not math.isfinite(lam):
        raise ValueError(f"offset must be finite, got {lam}")
    if base.max_order < 6:
        raise JetOrderError(f"a mate needs base jets of order 6, the base "
                            f"carries {base.max_order}")

    def jets_fn(s: float, first: int, last: int) -> tuple[PGVector, ...]:
        return _offset_jets(base, lam, s, first, last)

    mate = CurveJet(None, base.domain, base.kind,
                    max_order=base.max_order - 2, warnings=base.warnings,
                    jets_fn=jets_fn, nodes=base.nodes)
    _probe_mate(mate, lam)
    return mate


class BertrandNature(Enum):
    CIRCULAR_HELIX = "circular-helix"
    ISOTROPIC_CIRCLE = "isotropic-circle"
    NOT_BERTRAND = "not-bertrand"


def bertrand_nature(c: CurveJet, grid: Sequence[float]) -> BertrandNature:
    """Which offset-mate family the curve belongs to, if any.

    Curves of constant classical curvature admit offset mates: with
    nonzero torsion they are circular helices, with zero torsion
    isotropic circles.  Everything else admits none.
    """
    return _nature_of(natural_class(c, grid).tag)


def _nature_of(tag: NaturalClassTag) -> BertrandNature:
    if tag is NaturalClassTag.CIRCULAR_HELIX:
        return BertrandNature.CIRCULAR_HELIX
    if tag is NaturalClassTag.ISOTROPIC_CIRCLE:
        return BertrandNature.ISOTROPIC_CIRCLE
    return BertrandNature.NOT_BERTRAND


class BertrandPair(NamedTuple):
    """Verification outcome for a claimed mate pair.

    ``offset`` is the geometrically recovered offset (mean over the
    grid); ``failures`` lists the checks that failed, empty when
    ``is_pair``.  ``tangent_product_spread`` is the raw max - min of the
    scalar product of the scale-invariant tangents.
    """

    base: CurveJet
    mate: CurveJet
    offset: float
    is_pair: bool
    nature: BertrandNature
    normal_parallel_sup: float
    tangent_product_spread: float
    curvature_flatness_sup: float
    offset_spread: float
    failures: tuple[str, ...]


def verify_bertrand_pair(base: CurveJet, mate: CurveJet,
                         offset_fn: OffsetFn | float,
                         grid: Sequence[float],
                         tol: float | None = None) -> BertrandPair:
    """Check the mate-pair conditions over a grid at tolerance ``tol``,
    by default the looser ``kind.tolerance`` of the two curves.

    ``offset_fn`` is the claimed offset, a constant or a function of the
    parameter; a non-constant claim fails verification even if the two
    curves are geometrically a pair at some constant offset.  Each curve
    is swept once, the base first, by the equiform sweep of
    :func:`equiform_grid` with one bundle of the jets of orders 0-4 per
    grid point: the position and the equiform data; ``nature`` is
    :func:`bertrand_nature` of the base, read from the same sweep.
    """
    if len(grid) < MIN_GRID_POINTS:
        raise ValueError("verification needs a grid of at least "
                         f"{MIN_GRID_POINTS} points")
    if tol is None:
        tol = max(base.kind.tolerance, mate.kind.tolerance)
    if callable(offset_fn):
        claimed = [float(offset_fn(s)) for s in grid]
    else:
        claimed = [float(offset_fn)] * len(grid)

    xb, db = _sweep(base, grid, 0)
    xm, dm = _sweep(mate, grid, 0)

    flat_sup = max(max(abs(d.curvature) for d in db),
                   max(abs(d.curvature) for d in dm))

    par_sup = 0.0
    recovered: list[float] = []
    products: list[float] = []
    for b, m, pb, pm in zip(db, dm, xb, xm):
        nb, nm = b.normal, m.normal
        det2 = nb.x2 * nm.x3 - nb.x3 * nm.x2
        norms = math.hypot(nb.x2, nb.x3) * math.hypot(nm.x2, nm.x3)
        par_sup = max(par_sup, abs(det2) / norms if norms else math.inf)

        o = pm - pb
        nn = nb.x2 * nb.x2 + nb.x3 * nb.x3
        recovered.append((o.x2 * nb.x2 + o.x3 * nb.x3) / nn)

        products.append(pg_dot(m.tangent, b.tangent))

    lam_mean = _mean(recovered)
    lam_scale = max(1.0, abs(lam_mean))
    prod_spread = _spread(products)

    failures: list[str] = []
    if flat_sup > tol:
        failures.append(
            f"equiform curvature reaches {flat_sup:.3e}; offset mates "
            "exist only over curves of constant classical curvature")
    if par_sup > tol:
        failures.append(
            f"scale-invariant normals deviate from parallel by {par_sup:.3e}")
    if not _is_const(recovered, tol):
        failures.append(
            f"recovered offset varies by {_spread(recovered):.3e} over the grid")
    if not _is_const(claimed, tol):
        failures.append("claimed offset is not constant over the grid")
    if max(abs(r - c) for r, c in zip(recovered, claimed)) > tol * lam_scale:
        failures.append(
            f"claimed offset differs from the recovered {lam_mean:.6g}")
    if not _is_const(products, tol):
        failures.append(
            f"tangent scalar product varies by {prod_spread:.3e} over the grid")

    return BertrandPair(
        base=base, mate=mate, offset=lam_mean,
        is_pair=not failures,
        nature=_nature_of(_natural_class_of(db).tag),
        normal_parallel_sup=par_sup,
        tangent_product_spread=prod_spread,
        curvature_flatness_sup=flat_sup,
        offset_spread=_spread(recovered),
        failures=tuple(failures))
