"""Vector algebra of the pseudo-Galilean 3-space.

The ambient space carries a degenerate metric: the x-axis is the
non-isotropic direction, and the (y, z)-plane is a Minkowski plane.  The
scalar product is therefore defined by cases:

    dot(u, v) = u.x1 * v.x1              if u.x1 != 0 or v.x1 != 0
    dot(u, v) = u.x2 * v.x2 - u.x3 * v.x3   otherwise

The case split is an *exact* comparison on the stored component values; no
tolerance is involved.  A fuzzy split would make the product discontinuous
in a data-dependent way, while the exact split keeps it reproducible.

All functions here are pure and all types immutable.
"""

from __future__ import annotations

from math import isfinite
from typing import NamedTuple


class PGVector:
    """A vector (or point) with components along x, y, z.

    Components must be finite; arithmetic is componentwise.  A value
    type: immutable, equal to a vector of the same class with equal
    fields, hashable, and copied or pickled through its constructor.
    """

    __slots__ = ("x1", "x2", "x3")

    def __init__(self, x1: float, x2: float, x3: float):
        if not (isfinite(x1) and isfinite(x2) and isfinite(x3)):
            _finite(x1, x2, x3)
        _set_x1(self, x1)
        _set_x2(self, x2)
        _set_x3(self, x3)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        return (f"{type(self).__qualname__}(x1={self.x1!r}, x2={self.x2!r}, "
                f"x3={self.x3!r})")

    def __add__(self, other: "PGVector") -> "PGVector":
        return PGVector(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "PGVector") -> "PGVector":
        return PGVector(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __mul__(self, c: float) -> "PGVector":
        return PGVector(c * self.x1, c * self.x2, c * self.x3)

    __rmul__ = __mul__

    def __truediv__(self, c: float) -> "PGVector":
        return PGVector(self.x1 / c, self.x2 / c, self.x3 / c)

    def __neg__(self) -> "PGVector":
        return PGVector(-self.x1, -self.x2, -self.x3)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)

    # the fields that equality, hash and pickling see; FDVector adds err
    _values = as_tuple

    def max_abs(self) -> float:
        """Sup-norm of the component triple (a scale, not a metric norm)."""
        return max(abs(self.x1), abs(self.x2), abs(self.x3))


# the slot setters, which the immutable class's own __setattr__ refuses
_set_x1, _set_x2, _set_x3 = (PGVector.x1.__set__, PGVector.x2.__set__,
                             PGVector.x3.__set__)


def _finite(*xs: float) -> tuple[float, ...]:
    """``xs``, the components of vectors in the order they are built, once
    all are finite; else :class:`PGVector`'s error at the first that is not."""
    if not isfinite(sum(xs)):
        for x in xs:
            if not isfinite(x):
                raise ValueError(f"PGVector components must be finite, got {x!r}")
    return xs


def pg_dot(u: PGVector, v: PGVector) -> float:
    """Signed scalar product of the degenerate metric (see module docstring)."""
    if u.x1 != 0.0 or v.x1 != 0.0:
        return u.x1 * v.x1
    return u.x2 * v.x2 - u.x3 * v.x3


def det3(u: PGVector, v: PGVector, w: PGVector) -> float:
    """Determinant of the 3x3 matrix with rows u, v, w."""
    return (u.x1 * (v.x2 * w.x3 - v.x3 * w.x2)
            - u.x2 * (v.x1 * w.x3 - v.x3 * w.x1)
            + u.x3 * (v.x1 * w.x2 - v.x2 * w.x1))


class SimilarityMotion(NamedTuple):
    """An element of the 8-parameter similarity group of the space.

    Points transform as

        x ->  a + b*x
        y ->  c + d*x + r*cosh(theta)*y + r*sinh(theta)*z
        z ->  e + f*x + r*sinh(theta)*y + r*cosh(theta)*z

    The isometry subgroup is b == r == 1.  The motion is invertible when
    b and r are nonzero; :func:`pg_curvelab.curves.apply_similarity`,
    which maps curves by the motion, checks both.
    """

    a: float = 0.0
    b: float = 1.0
    c: float = 0.0
    d: float = 0.0
    e: float = 0.0
    f: float = 0.0
    r: float = 1.0
    theta: float = 0.0
