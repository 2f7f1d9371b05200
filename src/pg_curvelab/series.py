"""Truncated derivative-series arithmetic: the reference form.

A :class:`DSeries` holds the values (f, f', f'', ..., f^(n-1)) of a smooth
scalar function at one point and propagates them through arithmetic with
the Leibniz/chain rules (Griewank & Walther, *Evaluating Derivatives*,
ch. 13), e.g. the derivatives of the mate's scale-invariant normal
rho^2 * gamma'' as the reciprocal of the series of w = eps (y''^2 -
z''^2) times the series of y'' and z''.

No per-point kernel of the package builds a ``DSeries``: the equiform
pass (``equiform._equiform_of``) and the mate's normal series
(``bertrand._normal_series``) write this arithmetic out as float code
for the lengths they need, with the same ``fsum`` terms, stages and
bound order.  This module is the reference they are checked against bit
for bit in the tests, and the arithmetic the benchmark's series
microbenchmarks time.

Only +, -, *, /, sqrt, scalar ops and truncation are implemented.
Entries are plain floats; series in an expression must have equal
length.  A series may carry absolute error bounds of its entries, which
the operations propagate to first order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence


@lru_cache(maxsize=None)
def _pascal(n: int, first: int = 0, drop: int = 0
            ) -> tuple[tuple[tuple[float, int, int], ...], ...]:
    """Leibniz terms of the orders k < n: row k lists (C(k, i), i, k - i)
    for first <= i <= k - drop, so a kernel reads its binomials instead
    of computing them per term."""
    return tuple(tuple((float(math.comb(k, i)), i, k - i)
                       for i in range(first, k + 1 - drop))
                 for k in range(n))


class DSeries:
    """Derivative values (f, f', ..., f^(n-1)) of a function at a point.

    ``errs``, when given, holds absolute error bounds of the values; they
    are propagated to first order through every operation (a series
    without bounds counts as exact), so a result's ``errs`` bounds the
    effect of its inputs' errors.  Without bounds on any operand the
    arithmetic is exactly the plain one.
    """

    __slots__ = ("vals", "errs")

    def __init__(self, vals: Iterable[float],
                 errs: Iterable[float] | None = None):
        self.vals = tuple(map(float, vals))
        if not self.vals:
            raise ValueError("DSeries needs at least one entry")
        self.errs = None if errs is None else tuple(map(float, errs))
        if self.errs is not None and len(self.errs) != len(self.vals):
            raise ValueError("DSeries errs and vals lengths differ")

    @classmethod
    def _of(cls, vals: Sequence[float],
            errs: Sequence[float] | None = None) -> "DSeries":
        """Unchecked constructor for results of the kernels below."""
        new = cls.__new__(cls)
        new.vals = tuple(vals)
        new.errs = None if errs is None else tuple(errs)
        return new

    def __len__(self) -> int:
        return len(self.vals)

    def __getitem__(self, k: int) -> float:
        return self.vals[k]

    def __repr__(self) -> str:
        if self.errs is None:
            return f"DSeries{self.vals!r}"
        return f"DSeries({self.vals!r}, errs={self.errs!r})"

    def truncate(self, n: int) -> "DSeries":
        return DSeries(self.vals[:n],
                       None if self.errs is None else self.errs[:n])

    @staticmethod
    def constant(c: float, n: int) -> "DSeries":
        return DSeries((float(c),) + (0.0,) * (n - 1))

    def _check(self, other: "DSeries") -> None:
        if len(self.vals) != len(other.vals):
            raise ValueError("DSeries lengths differ")

    def _bounds(self) -> tuple[float, ...]:
        return self.errs if self.errs is not None else (0.0,) * len(self)

    def _summed_errs(self, other: "DSeries") -> list[float] | None:
        if self.errs is None and other.errs is None:
            return None
        return [a + b for a, b in zip(self._bounds(), other._bounds())]

    def __add__(self, other: "DSeries") -> "DSeries":
        self._check(other)
        return DSeries._of([a + b for a, b in zip(self.vals, other.vals)],
                           self._summed_errs(other))

    def __sub__(self, other: "DSeries") -> "DSeries":
        self._check(other)
        return DSeries._of([a - b for a, b in zip(self.vals, other.vals)],
                           self._summed_errs(other))

    def __neg__(self) -> "DSeries":
        return DSeries._of([-a for a in self.vals], self.errs)

    def __mul__(self, other):
        if not isinstance(other, DSeries):
            errs = None if self.errs is None else [abs(other) * e
                                                   for e in self.errs]
            return DSeries([other * a for a in self.vals], errs)
        self._check(other)
        a, b = self.vals, other.vals
        out = [math.fsum([c * a[i] * b[j] for c, i, j in row])
               for row in _pascal(len(a))]
        if self.errs is None and other.errs is None:
            return DSeries._of(out)
        return DSeries._of(out, _product_bounds(a, self._bounds(), b,
                                                other._bounds()))

    __rmul__ = __mul__

    def __truediv__(self, other: "DSeries") -> "DSeries":
        """Series of f/g, solving the Leibniz identity order by order."""
        self._check(other)
        if other.vals[0] == 0.0:
            raise ZeroDivisionError("division by a series with zero leading value")
        f, g = self.vals, other.vals
        out = [f[0] / g[0]]
        for k, row in enumerate(_pascal(len(f), 0, 1)[1:], 1):
            acc = f[k] - math.fsum([c * out[i] * g[j] for c, i, j in row])
            out.append(acc / g[0])
        if self.errs is None and other.errs is None:
            return DSeries._of(out)
        # first order: g0 dq_k = df_k - sum_{i<=k} C(k,i) q_i dg_{k-i}
        #                       - sum_{i<k} C(k,i) dq_i g_{k-i}
        num = _product_bounds(out, (0.0,) * len(f), g, other._bounds())
        num = [e + m for e, m in zip(self._bounds(), num)]
        return DSeries._of(out, _recursion_bounds(num, g))

    def reciprocal(self) -> "DSeries":
        return DSeries.constant(1.0, len(self)) / self

    def sqrt(self) -> "DSeries":
        """Series of sqrt(f); requires a positive leading value."""
        f = self.vals
        if f[0] <= 0.0:
            raise ValueError("sqrt needs a positive leading value")
        out = [math.sqrt(f[0])]
        for k, row in enumerate(_pascal(len(f), 1, 1)[1:], 1):
            acc = f[k] - math.fsum([c * out[i] * out[j] for c, i, j in row])
            out.append(acc / (2.0 * out[0]))
        if self.errs is None:
            return DSeries._of(out)
        # first order: 2 r0 dr_k = df_k - sum_{i<k} C(k,i) dr_i 2 r_{k-i}
        return DSeries._of(out, _recursion_bounds(self.errs,
                                                  [2.0 * r for r in out]))


def _product_bounds(a: Sequence[float], ea: Sequence[float],
                    b: Sequence[float], eb: Sequence[float]) -> list[float]:
    """First-order error bounds of the Leibniz product of a and b, whose
    entries carry the error bounds ea and eb."""
    out = []
    for row in _pascal(len(a)):
        acc = 0.0
        for c, i, j in row:
            acc += c * (abs(a[i]) * eb[j] + ea[i] * abs(b[j]))
        out.append(acc)
    return out


def _recursion_bounds(num: Sequence[float],
                      g: Sequence[float]) -> list[float]:
    """Bounds t of the unknowns of g0 t_k = num_k - sum_{i<k} C(k,i) t_i
    g_{k-i}, every term taken by its modulus: the error recursions of
    division and square root."""
    g0 = abs(g[0])
    out: list[float] = []
    for k, row in enumerate(_pascal(len(num), 0, 1)):
        acc = num[k]
        for c, i, j in row:
            acc += c * out[i] * abs(g[j])
        out.append(acc / g0)
    return out
