"""Shared fixtures: catalogue curves at their reference parameters.

Entries are session-scoped because building one runs the constructor's
derivative cross-checks; the curves themselves are immutable, so sharing
is safe.
"""

from __future__ import annotations

import pytest

from pg_curvelab.zoo import (
    ZooEntry,
    all_entries,
    get_example,
)


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
def zoo_entries() -> list[ZooEntry]:
    """All seven catalogue entries at the standard parameters."""
    return all_entries()
