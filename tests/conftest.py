"""Shared fixtures: catalogue curves at their reference parameters.

Entries are session-scoped; the curves are immutable, so sharing is
safe.  One hypothesis profile serves every property test: no deadline,
derandomized (every run draws the same examples, so a frozen reference
that lags a rule change fails at once), and a failing example prints
its ``@reproduce_failure`` blob.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from pg_curvelab.algebra import PGVector
from pg_curvelab.curves import CurveJet, make_analytic_curve
from pg_curvelab.zoo import (
    ZooEntry,
    all_entries,
    get_example,
)

settings.register_profile("no_deadline", deadline=None, derandomize=True,
                          print_blob=True)
settings.load_profile("no_deadline")


class JetLog:
    """The reads of a curve wrapped by the ``counting`` fixture: each
    point of a row call (``rows``; a ``jets`` call is the row call of
    one point) as (s, first, last) in ``bundles``, each order it served
    as (s, k) in ``orders``."""

    def __init__(self):
        self.bundles: list[tuple[float, int, int]] = []
        self.orders: list[tuple[float, int]] = []

    def clear(self) -> None:
        self.bundles.clear()
        self.orders.clear()


@pytest.fixture(scope="session")
def counting():
    """Wrapper ``counting(curve, max_order=None) -> (curve, log)``: the
    same curve through the public constructor, optionally cut to
    ``max_order``, logging its reads in a :class:`JetLog`.  Its row
    calls stay whole, so a counted FD curve still batches."""

    def _counting(curve: CurveJet, max_order: int | None = None):
        log = JetLog()

        def rows_fn(points, first: int, last: int):
            for s in points:
                log.bundles.append((s, first, last))
                log.orders.extend((s, k) for k in range(first, last + 1))
            return curve.rows(points, first, last)

        return CurveJet(None, curve.domain, curve.kind,
                        max_order=curve.max_order if max_order is None
                        else max_order, warnings=curve.warnings,
                        nodes=curve.nodes, rows_fn=rows_fn), log

    return _counting


@pytest.fixture(scope="session")
def uniform():
    """Grid builder: n equally spaced points covering [lo, hi]."""

    def _uniform(lo: float, hi: float, n: int) -> list[float]:
        step = (hi - lo) / (n - 1)
        return [lo + i * step for i in range(n)]

    return _uniform


@pytest.fixture(scope="session")
def general_helix() -> ZooEntry:
    """Exponential-curvature helix with spacelike normal (a=1, b=2)."""
    return get_example("timelike_general_helix", 1.0, 2.0)


@pytest.fixture(scope="session")
def mirrored_helix() -> ZooEntry:
    """Component swap of the general helix; timelike normal (a=1, b=2)."""
    return get_example("spacelike_general_helix", 1.0, 2.0)


@pytest.fixture(scope="session")
def circular_helix() -> ZooEntry:
    """Power-law-curvature helix, kappa = a/s (a=1, b=2, s in [0.6, 3])."""
    return get_example("timelike_circular_helix", 1.0, 2.0, (0.6, 3.0))


@pytest.fixture(scope="session")
def mirrored_circular_helix() -> ZooEntry:
    return get_example("spacelike_circular_helix", 1.0, 2.0, (0.6, 3.0))


@pytest.fixture(scope="session")
def log_spiral() -> ZooEntry:
    """Planar curve with kappa = 1/(s+1) and zero torsion (a=1, b=1)."""
    return get_example("timelike_log_spiral", 1.0, 1.0)


@pytest.fixture(scope="session")
def helix_fixture() -> ZooEntry:
    """Constant-invariant helix kappa = tau = 1: admits normal-offset mates."""
    return get_example("bertrand_helix", 1.0, 1.0)


@pytest.fixture(scope="session")
def parabola() -> ZooEntry:
    """Isotropic circle (s, s^2/2, 0): kappa = 1, tau = 0."""
    return get_example("isotropic_circle", 1.0)


@pytest.fixture(scope="session")
def light_cone_crossing_curve() -> CurveJet:
    """(s, s^3/6, s^2/2): y'' = s, z'' = 1, so eps flips at s = 1.  Its
    exact zero orders 4-6 give it mates."""
    def zero(s: float) -> PGVector:
        return PGVector(0.0, 0.0, 0.0)

    return make_analytic_curve(
        lambda s: PGVector(s, s ** 3 / 6.0, 0.5 * s * s),
        lambda s: PGVector(1.0, 0.5 * s * s, s),
        lambda s: PGVector(0.0, s, 1.0),
        lambda s: PGVector(0.0, 1.0, 0.0),
        zero, domain=(0.25, 2.0), higher=(zero, zero))


@pytest.fixture(scope="session")
def zoo_entries() -> list[ZooEntry]:
    """All seven catalogue entries at the standard parameters."""
    return all_entries()
