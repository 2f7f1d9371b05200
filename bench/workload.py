"""Seeded workloads: curve parameters, sample lattices and request lists.

A workload is one repeating *cycle* of CLI requests.  For every family
and command the cycle holds one request on a 1001-point grid and five on
a 101-point grid, with csv and json output alternating.  On a 101-point
grid the stencils of neighbouring points do not overlap; on a 1001-point
grid they do.  The cycle is shuffled once per seed and repeated
unchanged, so every run of a seed sends the same mix.

The dense grids dominate the time and the sparse ones the count: with a
dense share of 1/6 the median latency falls among the 101-point requests
and the 90th percentile among the 1001-point ones, inside the copies of a
single request (the 6th fastest dense request of ``zoo_analytic`` and
``lattice_fd``, the 3rd of ``mate_pairs``) whenever the run has two or
more cycles, as every run of at least 100 requests has.  It then never
interpolates between two different requests, which would make it jump
between runs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from pg_curvelab.zoo import ZooEntry, get_example, zoo_names

WORKLOADS = ("zoo_analytic", "lattice_fd", "mate_pairs")

DENSE, SPARSE = 1001, 101
SPARSE_PER_DENSE = 5

# Reference (a, b) of each family; the seed draws each parameter from a
# +-10% box around it.  The boxes lie inside the admissible region that
# `zoo-list` prints, keep a and b of the helices well apart (the closed
# forms divide by a^2 - b^2) and keep per-request work comparable across
# seeds.
REFERENCE = {
    "timelike_general_helix": (1.0, 2.0),
    "spacelike_general_helix": (1.0, 2.0),
    "timelike_circular_helix": (1.0, 2.0),
    "spacelike_circular_helix": (1.0, 2.0),
    "timelike_log_spiral": (1.0, 1.0),
    "bertrand_helix": (1.0, 1.0),
    "isotropic_circle": (1.0, None),    # b unused
}
PARAM_BOX = (0.9, 1.1)
LAMBDA_BOX = (0.1, 0.4)     # mate offsets for which every mate is admissible

# Analytic-tier verdicts of the seed code, identical over the parameter
# boxes and both grid sizes: (AW conditions that hold, natural-class tag).
REFERENCE_VERDICTS = {
    "timelike_general_helix": (frozenset(), "other"),
    "spacelike_general_helix": (frozenset(), "other"),
    "timelike_circular_helix": (frozenset(), "other"),
    "spacelike_circular_helix": (frozenset(), "other"),
    "timelike_log_spiral": (frozenset({"AW2", "AW3", "WeakAW3"}),
                            "isotropic-logarithmic-spiral"),
    "bertrand_helix": (frozenset({"AW3", "WeakAW3"}), "circular-helix"),
    "isotropic_circle": (frozenset({"AW1", "AW2", "AW3", "WeakAW2",
                                    "WeakAW3"}), "isotropic-circle"),
}

# (is_pair, nature) of `bertrand --curve`.  The log spiral is left out: it
# is one more non-pair and reaches no code the four helices do not.
MATE_EXPECTED = {
    "bertrand_helix": (True, "circular-helix"),
    "isotropic_circle": (True, "isotropic-circle"),
    "timelike_general_helix": (False, "not-bertrand"),
    "spacelike_general_helix": (False, "not-bertrand"),
    "timelike_circular_helix": (False, "not-bertrand"),
    "spacelike_circular_helix": (False, "not-bertrand"),
}

LATTICE_PAD = 8     # rows beyond each domain end; the CLI trims 8 spacings


@dataclass(frozen=True)
class Family:
    """One curve family at the seed's parameters."""

    name: str
    a: float
    b: float | None
    lam: float
    entry: ZooEntry
    lattice: str            # path of the s,x,y,z CSV
    lattice_s: tuple[float, ...]

    @property
    def domain(self) -> tuple[float, float]:
        return self.entry.domain

    def curve_args(self) -> list[str]:
        args = ["--curve", self.name, "--a", repr(self.a)]
        return args if self.b is None else args + ["--b", repr(self.b)]

    def grid_arg(self, points: int) -> str:
        lo, hi = self.domain
        return f"{lo!r}:{hi!r}:{points}"

    def lattice_geometry(self) -> tuple[float, tuple[float, float]]:
        """(spacing, usable domain) of the lattice, computed as the CLI
        computes them from the parsed file."""
        s0, s_end = self.lattice_s[0], self.lattice_s[-1]
        delta = (s_end - s0) / (len(self.lattice_s) - 1)
        return delta, (s0 + LATTICE_PAD * delta, s_end - LATTICE_PAD * delta)

    def stencil(self, source: str) -> tuple[tuple[float, float], float]:
        """(curve domain, residual step h) of the curve the CLI builds."""
        if source == "curve":
            return self.entry.curve.domain, 1e-4
        delta, domain = self.lattice_geometry()
        return domain, 2 * delta

    def grid(self, source: str, points: int) -> list[float]:
        """The grid the CLI evaluates for ``grid_arg(points)``: the
        requested points, snapped onto the lattice for ``--input``."""
        lo, hi = self.domain
        step = (hi - lo) / (points - 1)
        pts = [lo + i * step for i in range(points)]
        if source == "curve":
            return pts
        s0 = self.lattice_s[0]
        delta, (dlo, dhi) = self.lattice_geometry()
        out: list[float] = []
        for p in pts:
            snapped = s0 + round((p - s0) / delta) * delta
            snapped = min(max(snapped, dlo), dhi)
            snapped = s0 + round((snapped - s0) / delta) * delta
            if dlo - 1e-12 <= snapped <= dhi + 1e-12 and (
                    not out or snapped > out[-1]):
                out.append(snapped)
        return out


@dataclass(frozen=True)
class Request:
    family: Family
    command: str            # eval | classify | bertrand
    source: str             # curve | input
    points: int             # requested grid points
    fmt: str                # csv | json

    def argv(self) -> list[str]:
        fam = self.family
        src = (fam.curve_args() if self.source == "curve"
               else ["--input", fam.lattice])
        out = [self.command, *src, "--grid", fam.grid_arg(self.points),
               "--format", self.fmt]
        if self.command == "bertrand":
            out += ["--lambda", repr(fam.lam)]
        return out

    def label(self) -> str:
        return (f"{self.command} --{self.source} {self.family.name} "
                f"{self.points} {self.fmt}")


def _draw(rng: random.Random, ref: float) -> float:
    return round(ref * rng.uniform(*PARAM_BOX), 4)


def _write_lattice(path: str, entry: ZooEntry) -> tuple[float, ...]:
    """Sample the zoo position on a lattice whose spacing is half the
    dense-grid spacing, so every dense grid point is a lattice row and
    the CLI's FD step 2*spacing equals the dense-grid spacing."""
    lo, hi = entry.domain
    delta = (hi - lo) / (2 * (DENSE - 1))
    svals, lines = [], ["s,x,y,z"]
    for i in range(-LATTICE_PAD, 2 * (DENSE - 1) + LATTICE_PAD + 1):
        s = lo + i * delta
        p = entry.curve.jet(s, 0)
        svals.append(s)
        # %.17g round-trips, so the CLI parses exactly these doubles
        lines.append(",".join(f"{v:.17g}" for v in (s, p.x1, p.x2, p.x3)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return tuple(svals)


def make_families(seed: int, workdir: str) -> dict[str, Family]:
    """Draw every family's parameters and offset from the seed and write
    its lattice into ``workdir``."""
    rng = random.Random(seed)
    out = {}
    for name in zoo_names():
        ra, rb = REFERENCE[name]
        a = _draw(rng, ra)
        b = None if rb is None else _draw(rng, rb)
        lam = round(rng.uniform(*LAMBDA_BOX), 4)
        entry = get_example(name, a, 1.0 if b is None else b)
        path = os.path.join(workdir, f"{name}.csv")
        out[name] = Family(name, a, b, lam, entry, path,
                           _write_lattice(path, entry))
    return out


def make_cycle(workload: str, families: dict[str, Family],
               seed: int) -> list[Request]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "mate_pairs":
        names, commands = list(MATE_EXPECTED), ("bertrand",)
    else:
        names, commands = list(families), ("eval", "classify")
    source = "input" if workload == "lattice_fd" else "curve"
    sizes = [DENSE] + [SPARSE] * SPARSE_PER_DENSE
    cycle = [Request(families[name], cmd, source, n,
                     ("csv", "json")[(i + j) % 2])
             for i, name in enumerate(names) for cmd in commands
             for j, n in enumerate(sizes)]
    random.Random(seed).shuffle(cycle)
    return cycle
