"""Traced replay of benchmark requests, layer by layer.

Each request is replayed through the public calls the CLI makes, in the
CLI's order, with a span around each call.  Nothing inside the package is
patched: jets are counted and timed by wrapping each curve in a
:class:`CurveJet` built through its public constructor, and lattice
position samples by a counting position callable.  The replayed values
are compared bit for bit with the CLI's output, so the per-layer numbers
describe the same computation as the end-to-end run.
"""

from __future__ import annotations

import csv
import math
import statistics
import timeit
from dataclasses import dataclass
from time import perf_counter

from pg_curvelab import aw
from pg_curvelab.algebra import PGVector, pg_dot
from pg_curvelab.bertrand import (bertrand_mate, bertrand_nature,
                                  verify_bertrand_pair)
from pg_curvelab.curves import CurveJet, make_sampled_curve
from pg_curvelab.equiform import (equiform_data, equiform_residual,
                                  natural_class)
from pg_curvelab.frenet import frenet_data, frenet_residual
from pg_curvelab.series import DSeries
from pg_curvelab.zoo import get_example

from checks import CONDITIONS, PAIR_TOL
from speedprobe import measure
from workload import Family, Request

ORDERS = 5          # per-order counts are reported for orders 0..4
TIERS = ("analytic", "fd", "mate")


class Tracer:
    """Spans, jet counters and position-sample counters of one run.

    A span is (request id, name, start, end, seconds inside jets,
    base-curve jet calls, position samples); the request's own span is
    named ``request``.  Spans stay in memory and are summarised when the
    run ends.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, float, int, int]] = []
        self.request_id = 0
        self.jet_calls = {t: [0] * 16 for t in TIERS}
        self.jet_seconds = dict.fromkeys(TIERS, 0.0)
        self.outer_jet_seconds = 0.0    # time in jets not nested in jets
        self.base_jets = 0              # calls on analytic and FD curves
        self.samples = 0
        self._depth = 0

    def wrap(self, curve: CurveJet, tier: str) -> CurveJet:
        """The same curve, with every jet call counted and timed."""
        inner, counts, base = curve.jet, self.jet_calls[tier], tier != "mate"

        def jet_fn(s: float, order: int) -> PGVector:
            counts[order] += 1
            self.base_jets += base
            self._depth += 1
            t0 = perf_counter()
            out = inner(s, order)
            dt = perf_counter() - t0
            self._depth -= 1
            self.jet_seconds[tier] += dt
            if not self._depth:
                self.outer_jet_seconds += dt
            return out

        return CurveJet(jet_fn, curve.domain, curve.kind,
                        max_order=curve.max_order, warnings=curve.warnings)

    def call(self, name: str, fn, *args, **kwargs):
        j0, n0, s0 = self.outer_jet_seconds, self.base_jets, self.samples
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((self.request_id, name, t0, perf_counter(),
                           self.outer_jet_seconds - j0, self.base_jets - n0,
                           self.samples - s0))
        return out

    def base_calls(self) -> list[int]:
        a, f = self.jet_calls["analytic"], self.jet_calls["fd"]
        return [x + y for x, y in zip(a, f)]


# ---------------------------------------------------------------------------
# replay


def _read_lattice(path: str) -> list[PGVector]:
    """Parse a lattice file the way the CLI does: rows sorted by s."""
    with open(path, newline="") as fh:
        rows = [(float(r["s"]), float(r["x"]), float(r["y"]), float(r["z"]))
                for r in csv.DictReader(fh)]
    rows.sort(key=lambda r: r[0])
    return [PGVector(*r[1:]) for r in rows]


def _lattice_curve(tr: Tracer, fam: Family) -> tuple[CurveJet, float]:
    points = tr.call("cli.read_lattice", _read_lattice, fam.lattice)
    s0, n = fam.lattice_s[0], len(points)
    delta, domain = fam.lattice_geometry()

    def position(s: float) -> PGVector:
        tr.samples += 1
        i = round((s - s0) / delta)
        if i < 0 or i >= n or abs(s - (s0 + i * delta)) > 1e-6 * delta:
            raise ValueError(f"off-lattice evaluation at s={s!r}")
        return points[i]

    curve = tr.call("curves.make_sampled_curve", make_sampled_curve,
                    position, domain, h=2 * delta)
    return tr.wrap(curve, "fd"), 2 * delta


def replay(tr: Tracer, req: Request) -> list:
    """Replay one request; returns the values its output check parsed."""
    fam = req.family
    grid = fam.grid(req.source, req.points)
    notes: tuple[str, ...] = ()
    if req.source == "curve":
        entry = tr.call("zoo.get_example", get_example, fam.name, fam.a,
                        1.0 if fam.b is None else fam.b)
        curve, h, notes = tr.wrap(entry.curve, "analytic"), 1e-4, entry.notes
    else:
        curve, h = _lattice_curve(tr, fam)

    if req.command == "eval":
        lo, hi = curve.domain
        out = []
        for s in grid:
            curve.jet(s, 0)
            fr = tr.call("frenet.frenet_data", frenet_data, curve, s)
            eq = tr.call("equiform.equiform_data", equiform_data, curve, s)
            if lo <= s - h and s + h <= hi:
                r1 = tr.call("frenet.frenet_residual", frenet_residual,
                             curve, s, h=h)
                r2 = tr.call("equiform.equiform_residual", equiform_residual,
                             curve, s, h=h)
            else:
                r1 = r2 = math.nan
            out.append((s, fr.kappa, fr.tau, eq.curvature, eq.torsion, r1, r2))
        return out

    if req.command == "classify":
        report = tr.call("aw.classify", aw.classify, curve, grid, tol=None,
                         notes=notes)
        nat = tr.call("equiform.natural_class", natural_class, curve, grid,
                      tol_const=1e-6, tol_zero=1e-9)
        return ([report.verdicts[k].sup_residual for k in CONDITIONS]
                + [nat.tag.value])

    mate = tr.call("bertrand.bertrand_mate", bertrand_mate, curve, fam.lam)
    mate = tr.wrap(mate, "mate")
    grid = [s for s in grid if mate.domain[0] <= s <= mate.domain[1]]
    pair = tr.call("bertrand.verify_bertrand_pair", verify_bertrand_pair,
                   curve, mate, fam.lam, grid, tol=PAIR_TOL)
    nature = tr.call("bertrand.bertrand_nature", bertrand_nature, curve, grid)
    return [pair.is_pair, nature.value, pair.curvature_flatness_sup,
            pair.normal_parallel_sup, pair.tangent_product_spread,
            pair.offset_spread]


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def same_values(replayed: list, cli: list) -> bool:
    """Bit-for-bit equality of replayed and CLI values (NaN equals NaN)."""
    flat_r = [v for item in replayed
              for v in (item if isinstance(item, tuple) else (item,))]
    flat_c = [v for item in cli
              for v in (item if isinstance(item, tuple) else (item,))]
    return len(flat_r) == len(flat_c) and all(
        _same(a, b) for a, b in zip(flat_r, flat_c))


# ---------------------------------------------------------------------------
# per-layer summary


class Summary:
    """Per-command work counters accumulated over the replayed requests."""

    def __init__(self) -> None:
        self.points = dict.fromkeys(("eval", "classify", "bertrand"), 0)
        self.base = {c: [0] * 16 for c in self.points}
        self.mate = {c: [0] * 16 for c in self.points}
        self.samples = dict.fromkeys(self.points, 0)
        self.cli_seconds = 0.0      # untraced CLI time of the same requests

    def add(self, tr: Tracer, command: str, points: int,
            before: tuple[list[int], list[int], int]) -> None:
        base0, mate0, samples0 = before
        self.points[command] += points
        for k, (x, x0) in enumerate(zip(tr.base_calls(), base0)):
            self.base[command][k] += x - x0
        for k, (x, x0) in enumerate(zip(tr.jet_calls["mate"], mate0)):
            self.mate[command][k] += x - x0
        self.samples[command] += tr.samples - samples0


def snapshot(tr: Tracer) -> tuple[list[int], list[int], int]:
    return tr.base_calls(), list(tr.jet_calls["mate"]), tr.samples


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class SpanRow:
    calls: int = 0
    total: float = 0.0      # seconds
    own: float = 0.0        # self seconds
    base_jets: int = 0
    samples: int = 0


def span_table(tr: Tracer) -> dict[str, SpanRow]:
    """Spans summed by name.

    Self time is the span's duration minus the time covered by its
    children: jet calls for the library spans, and the library spans
    plus jet calls made outside them for the request span.
    """
    covered: dict[int, list[float]] = {}
    for rid, name, t0, t1, jets, _, _ in tr.spans:
        if name != "request":
            c = covered.setdefault(rid, [0.0, 0.0])
            c[0] += t1 - t0
            c[1] += jets
    out: dict[str, SpanRow] = {}
    for rid, name, t0, t1, jets, base_jets, samples in tr.spans:
        total = t1 - t0
        if name == "request":
            spans_s, spans_jets = covered.get(rid, (0.0, 0.0))
            own = total - spans_s - (jets - spans_jets)
        else:
            own = total - jets
        row = out.setdefault(name, SpanRow())
        row.calls += 1
        row.total += total
        row.own += own
        row.base_jets += base_jets
        row.samples += samples
    return out


def roadmap_check(tr: Tracer, summary: Summary) -> list[str]:
    """The traced counters beside the ROADMAP baseline figures."""
    spans, pts = span_table(tr), summary.points
    out = []
    for cmd, ref in (("eval", 29), ("classify", 12)):
        if pts[cmd]:
            out.append(f"CLI {cmd}: {sum(summary.base[cmd]) / pts[cmd]:.6g} "
                       f"jet calls/point (ROADMAP {ref})")
    if "aw.classify" in spans:
        row = spans["aw.classify"]
        if row.samples:
            out.append(f"aw.classify: {row.samples / pts['classify']:.6g} "
                       "position samples/point (ROADMAP FD classify 88)")
        else:
            out.append(f"aw.classify: {row.base_jets / pts['classify']:.6g} "
                       "jet calls/point (ROADMAP analytic classify 8)")
    if pts["bertrand"]:
        jets = sum(spans[n].base_jets for n in (
            "bertrand.bertrand_mate", "bertrand.verify_bertrand_pair"))
        out.append(f"bertrand_mate + verify_bertrand_pair: "
                   f"{jets / pts['bertrand']:.6g} base jet calls/point "
                   "(ROADMAP mate + verify about 55)")
    return out


def layer_metrics(tr: Tracer, summary: Summary) -> dict[str, tuple[float, str]]:
    spans = span_table(tr)

    def per_call(name: str, scale: float) -> float:
        row = spans.get(name, SpanRow())
        return _per(row.total, row.calls) * scale

    def per_point(name: str, command: str, scale: float) -> float:
        return _per(spans.get(name, SpanRow()).total,
                    summary.points[command]) * scale

    m: dict[str, tuple[float, str]] = {}
    for cmd in ("eval", "classify", "bertrand"):
        counts = summary.mate[cmd] if cmd == "bertrand" else summary.base[cmd]
        pts = summary.points[cmd]
        key = f"curves.jet_calls_per_point.{cmd}"
        m[key] = (_per(sum(counts), pts), "count")
        for k in range(ORDERS):
            m[f"{key}.o{k}"] = (_per(counts[k], pts), "count")
    for cmd in ("eval", "classify"):
        m[f"curves.position_samples_per_point.{cmd}"] = (
            _per(summary.samples[cmd], summary.points[cmd]), "count")
    for tier in TIERS:
        m[f"curves.jet_us.{tier}"] = (
            _per(tr.jet_seconds[tier], sum(tr.jet_calls[tier])) * 1e6, "us")
    m["curves.jet_share"] = (_per(tr.outer_jet_seconds,
                                  spans["request"].total), "ratio")
    m["frenet.frenet_data_us"] = (per_call("frenet.frenet_data", 1e6), "us")
    m["frenet.frenet_residual_us"] = (
        per_call("frenet.frenet_residual", 1e6), "us")
    m["equiform.equiform_data_us"] = (
        per_call("equiform.equiform_data", 1e6), "us")
    m["equiform.equiform_residual_us"] = (
        per_call("equiform.equiform_residual", 1e6), "us")
    m["equiform.natural_class_s"] = (per_call("equiform.natural_class", 1), "s")
    m["aw.classify_us_per_point"] = (
        per_point("aw.classify", "classify", 1e6), "us")
    m["bertrand.bertrand_mate_s"] = (per_call("bertrand.bertrand_mate", 1), "s")
    m["bertrand.verify_us_per_point"] = (
        per_point("bertrand.verify_bertrand_pair", "bertrand", 1e6), "us")
    m["bertrand.nature_s"] = (per_call("bertrand.bertrand_nature", 1), "s")
    m["bertrand.base_jet_calls_per_point"] = (
        _per(sum(summary.base["bertrand"]), summary.points["bertrand"]),
        "count")
    m["zoo.get_example_s"] = (per_call("zoo.get_example", 1), "s")
    m["cli.read_lattice_s"] = (per_call("cli.read_lattice", 1), "s")
    m["trace.overhead_ratio"] = (
        _per(spans["request"].total, summary.cli_seconds), "ratio")
    return m


# ---------------------------------------------------------------------------
# microbenchmarks of the arithmetic layers


def _ns_per_call(stmt: str, env: dict) -> float:
    """Reference-speed nanoseconds per execution of ``stmt``."""
    timer = timeit.Timer(stmt, globals=env)
    per = timer.timeit(200) / 200
    number = max(200, int(0.02 / per))
    ns, wall, ref, _ = measure(lambda: statistics.median(
        timer.repeat(repeat=7, number=number)) / number * 1e9)
    return ns * ref / wall


def microbenchmarks() -> dict[str, tuple[float, str]]:
    """DSeries and PGVector operations on fixed inputs taken from
    timelike_general_helix (a, b) = (1, 2) at s = 0.5."""
    curve = get_example("timelike_general_helix", 1.0, 2.0).curve
    s = 0.5
    jets = [curve.jet(s, k) for k in range(2, 9)]
    y3, z3 = DSeries(j.x2 for j in jets[:3]), DSeries(j.x3 for j in jets[:3])
    y7, z7 = DSeries(j.x2 for j in jets), DSeries(j.x3 for j in jets)
    fr = frenet_data(curve, s)
    env = {
        "y3": y3, "z3": z3, "y7": y7, "z7": z7, "w3": y3 * y3 - z3 * z3,
        "PGVector": PGVector, "pg_dot": pg_dot, "c": fr.kappa,
        "x": jets[0].x1, "y": jets[0].x2, "z": jets[0].x3,
        "u": fr.normal, "v": fr.binormal,
    }
    stmts = {
        "series.mul_ns.n3": "y3 * z3",
        "series.mul_ns.n7": "y7 * z7",
        "series.div_ns.n3": "y3 / w3",
        "series.sqrt_ns.n3": "w3.sqrt()",
        "algebra.pgvector_new_ns": "PGVector(x, y, z)",
        "algebra.pgvector_axpy_ns": "c * u + v",
        "algebra.pg_dot_ns": "pg_dot(u, v)",
    }
    return {k: (_ns_per_call(st, env), "ns") for k, st in stmts.items()}
