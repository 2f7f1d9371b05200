"""Output checks for every benchmark request.

Each check parses the CLI output and returns an :class:`Outcome`: whether
the request passed, how many grid points it completed, whether its
verdicts agree with the analytic-tier reference, its worst error against
the zoo oracle, and the parsed values the traced replay compares against.

A request fails on a nonzero exit status, on malformed output, or on
output that breaks a hard gate: analytic eval rows within 1e-8 (relative)
of the oracle, analytic classify verdicts equal to the reference, the
expected mate verdicts.  Finite-difference rows only need the right shape
and finite values, and an FD verdict that differs from the analytic one
is a known accuracy defect: it is counted in the verdict-mismatch share,
not as a failed request.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from workload import MATE_EXPECTED, REFERENCE_VERDICTS, Request

EVAL_COLUMNS = (
    "s", "x", "y", "z", "kappa", "tau", "epsilon",
    "eq_curvature", "eq_torsion",
    "e1_x", "e1_y", "e1_z", "e2_x", "e2_y", "e2_z", "e3_x", "e3_y", "e3_z",
    "frenet_residual", "equiform_residual",
)
CONDITIONS = ("AW1", "AW2", "AW3", "WeakAW2", "WeakAW3")
TAGS = ("isotropic-logarithmic-spiral", "circular-helix", "isotropic-circle",
        "other")
ORACLE_GATE = 1e-8
PAIR_TOL = 1e-8     # the CLI's default pair-verification tolerance


@dataclass
class Outcome:
    ok: bool
    points: int = 0
    problem: str = ""
    verdict_match: bool | None = None   # classify and bertrand only
    oracle_err: float | None = None     # eval rows and expected pairs
    values: list = field(default_factory=list)   # compared by the replay


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rel(got: float, want: float) -> float:
    """Relative error; absolute where the oracle value is exactly zero."""
    return abs(got - want) / abs(want) if want else abs(got)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check(req: Request, status: int, text: str) -> Outcome:
    try:
        _require(status == 0, f"exit status {status}")
        if req.command == "eval":
            return _check_eval(req, text)
        if req.command == "classify":
            return _check_classify(req, text)
        return _check_bertrand(req, text)
    except (CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome(ok=False, problem=f"{req.label()}: {exc}")


def _check_eval(req: Request, text: str) -> Outcome:
    if req.fmt == "json":
        doc = json.loads(text)
        header, rows = tuple(doc["columns"]), doc["rows"]
    else:
        head, *body = _csv_rows(text)
        header, rows = tuple(head), [[float(v) for v in r] for r in body]
    _require(header == EVAL_COLUMNS, f"columns {header}")
    grid = req.family.grid(req.source, req.points)
    _require(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} points")
    oracle = req.family.entry.oracle
    (lo, hi), h = req.family.stencil(req.source)
    worst = 0.0
    values = []
    for i, (row, s) in enumerate(zip(rows, grid)):
        _require(len(row) == len(EVAL_COLUMNS), f"row {i} has {len(row)} cells")
        _require(row[0] == s, f"row {i}: s={row[0]!r}, grid has {s!r}")
        _require(all(math.isfinite(v) for v in row[:18]),
                 f"row {i}: non-finite value")
        # residuals are NaN exactly where their stencil leaves the domain
        inside = lo <= s - h and s + h <= hi
        _require(all(math.isfinite(v) == inside for v in row[18:]),
                 f"row {i}: residuals {row[18:]} (stencil inside: {inside})")
        _require(row[6] == oracle.epsilon, f"row {i}: epsilon {row[6]}")
        kappa, tau, K, T = row[4], row[5], row[7], row[8]
        worst = max(worst, _rel(kappa, oracle.kappa(s)),
                    _rel(tau, oracle.tau(s)),
                    _rel(K, oracle.equiform_curvature(s)),
                    _rel(T, oracle.equiform_torsion(s)))
        values.append((s, kappa, tau, K, T, row[18], row[19]))
    if req.source == "curve":
        _require(worst <= ORACLE_GATE,
                 f"oracle error {worst:.3e} above {ORACLE_GATE:g}")
    return Outcome(ok=True, points=len(grid), oracle_err=worst, values=values)


def _check_classify(req: Request, text: str) -> Outcome:
    points = len(req.family.grid(req.source, req.points))
    if req.fmt == "json":
        doc = json.loads(text)
        aw = {k: (v["holds"], float(v["sup_residual"]))
              for k, v in doc["aw"].items()}
        tag = doc["natural_class"]["tag"]
        _require(doc["grid"]["points"] == points,
                 f"grid points {doc['grid']['points']}")
    else:
        _, *body = _csv_rows(text)
        aw = {}
        for r in body[:len(CONDITIONS)]:
            _require(r[1] in ("true", "false"), f"holds cell {r[1]!r}")
            aw[r[0]] = (r[1] == "true", float(r[2]))
        _require(body[len(CONDITIONS)][0] == "natural_class",
                 "natural_class row missing")
        tag = body[len(CONDITIONS)][1]
    _require(tuple(aw) == CONDITIONS, f"conditions {tuple(aw)}")
    _require(tag in TAGS, f"natural class {tag!r}")
    tol = 1e-8 if req.source == "curve" else 1e-5     # the CLI's tier default
    for name, (holds, sup) in aw.items():
        _require(math.isfinite(sup) and sup >= 0.0, f"{name} sup {sup!r}")
        _require(holds == (sup <= tol), f"{name} holds={holds} at sup {sup:g}")
    verdict = (frozenset(k for k, (h, _) in aw.items() if h), tag)
    match = verdict == REFERENCE_VERDICTS[req.family.name]
    if req.source == "curve":
        _require(match, f"analytic verdict {sorted(verdict[0])}, {tag}")
    values = [aw[k][1] for k in CONDITIONS] + [tag]
    return Outcome(ok=True, points=points, verdict_match=match, values=values)


_PAIR_KEYS = ("curvature_flatness_sup", "normal_parallel_sup",
              "tangent_product_spread", "offset_spread")


def _check_bertrand(req: Request, text: str) -> Outcome:
    if req.fmt == "json":
        doc = json.loads(text)
        b = doc["bertrand"]
        offset = doc["offset"]
        is_pair, nature, failures = b["is_pair"], b["nature"], b["failures"]
        sups = {k: float(b[k]) for k in _PAIR_KEYS}
        points = doc["grid"]["points"]
    else:
        _, *body = _csv_rows(text)
        kv = {r[0]: r[1] for r in body}
        offset = float(kv["offset"])
        _require(kv["is_pair"] in ("true", "false"), f"is_pair {kv['is_pair']!r}")
        is_pair, nature = kv["is_pair"] == "true", kv["nature"]
        failures = kv["failures"]
        sups = {k: float(kv[k]) for k in _PAIR_KEYS}
        points = req.points       # the csv report carries no grid size
    _require(offset == req.family.lam, f"offset {offset!r}")
    _require(points == req.points, f"grid points {points}")
    expected = MATE_EXPECTED[req.family.name]
    _require((is_pair, nature) == expected,
             f"mate verdict {(is_pair, nature)}, expected {expected}")
    _require(is_pair == (not failures), f"is_pair={is_pair} with {failures}")
    err = None
    if is_pair:
        err = max(sups["normal_parallel_sup"], sups["offset_spread"],
                  sups["tangent_product_spread"])
        _require(err <= PAIR_TOL, f"pair residual {err:.3e}")
    values = [is_pair, nature] + [sups[k] for k in _PAIR_KEYS]
    return Outcome(ok=True, points=points, verdict_match=True,
                   oracle_err=err, values=values)
