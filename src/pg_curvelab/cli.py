"""Command-line front end.

Five subcommands:

``eval``
    Tabulate position, classical invariants (kappa, tau, epsilon), the
    scale-invariant pair, frame components and the two frame-equation
    residuals over a grid.
``classify``
    Run the span-condition classifier and the constant-invariant
    classifier and emit a structured report with diagnostics.
``bertrand``
    Build the normal-offset mate for a given constant offset and report
    the pair-verification verdict.
``zoo-list``
    List the built-in curve families with their parameter constraints.
``figure``
    Emit (s, x, y, z) samples of catalogue family N at its reference
    parameters — the standard plot datasets.

Outputs are deterministic: identical configurations produce byte-identical
files.  CSV uses a header row, comma separators, ``\\n`` line endings and
17 significant digits (lossless for doubles).  JSON reports carry a
top-level ``"schema": "pg-curvelab/1"`` key.  All errors are also written
to stderr as one-line JSON diagnostics; the exit status is 0 on success,
2 on a validation problem and 3 when a curve fails admissibility.

External curves come in as CSV files with columns ``s,x,y,z`` holding
positions on a uniform lattice; derivatives are always rebuilt by the
finite-difference constructor, never read from the file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from functools import cache
from typing import Callable, NamedTuple, Sequence

from . import aw
from .bertrand import bertrand_mate, verify_bertrand_pair
from .curves import CurveJet, bundle_reader, make_lattice_curve
from .equiform import (TOL_CONST, TOL_ZERO, NaturalClass, _equiform_of,
                       _equiform_residual_of, _frames_at, _natural_class_of,
                       _sweep)
from .errors import CurveLabError, InadmissibleCurveError
from .frenet import _frenet_of, _frenet_residual_of, _stencil_character
from .zoo import (
    describe_constraints,
    get_example,
    zoo_names,
)

SCHEMA = "pg-curvelab/1"

# figure number -> family, drawn at its reference parameters
_FIGURES: dict[int, str] = {
    1: "timelike_general_helix",
    2: "spacelike_general_helix",
    3: "timelike_circular_helix",
    4: "spacelike_circular_helix",
    5: "timelike_log_spiral",
}
_FIGURE_SAMPLES = 256
# the most grid points a request may ask for: the grid is built in memory
_GRID_MAX_COUNT = 10 ** 7
# a value that argparse's negative-number rule would read as an option
_NEGATIVE_VALUE = re.compile(r"-([0-9.]|inf|nan)", re.IGNORECASE)


class ConfigError(ValueError):
    """A command line that violates the CLI's own invariants."""


# ---------------------------------------------------------------------------
# external position samples


def _lattice_curve(path: str) -> CurveJet:
    """``curves.make_lattice_curve`` of an s,x,y,z file, read as UTF-8
    with or without a byte-order mark; its errors name the file.  As with
    ``csv.DictReader``, blank rows are skipped, the last of duplicate
    column names wins and a row that stops before it lacks that column."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not {"s", "x", "y", "z"} <= set(header):
            raise ConfigError(
                f"{path}: need CSV columns s,x,y,z (found {header})")
        cols = [max(i for i, name in enumerate(header) if name == key)
                for key in "sxyz"]
        width = max(cols) + 1
        samples = []
        for r in reader:
            if not r:
                continue
            line = reader.line_num
            if len(r) < width:
                raise ConfigError(f"{path}: line {line} lacks one of s,x,y,z")
            try:
                sample = [float(r[i]) for i in cols]
            except ValueError:
                raise ConfigError(
                    f"{path}: line {line} has a non-numeric value") from None
            if not math.isfinite(sum(sample)) and not all(
                    map(math.isfinite, sample)):
                raise ConfigError(f"{path}: line {line} has a non-finite value")
            samples.append(sample)
    try:
        return make_lattice_curve(samples)
    except (ValueError, CurveLabError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# resolving the configured curve


class _Resolved(NamedTuple):
    curve: CurveJet
    label: str
    params: dict[str, float]
    grid: list[float]
    notes: tuple[str, ...] = ()


def _resolve(args: argparse.Namespace) -> _Resolved:
    if args.input_path is not None:
        curve = _lattice_curve(args.input_path)
        return _Resolved(curve=curve, label=f"sampled:{args.input_path}",
                         params={}, grid=curve.grid(*args.grid))
    entry = get_example(args.curve, args.a, args.b)
    return _Resolved(curve=entry.curve, label=entry.name, params=entry.params,
                     grid=entry.curve.grid(*args.grid), notes=entry.notes)


# ---------------------------------------------------------------------------
# output plumbing


class _Report(NamedTuple):
    """One command's report: the JSON document (None where the command
    emits csv only), and the CSV header and raw rows."""
    doc: dict | None
    header: Sequence[str]
    rows: Sequence[Sequence[object]]


def _cell(v: object) -> str:
    """A float with 17 significant digits (lossless), a bool as
    true/false, text as is, a list joined with "; "."""
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v
    return "; ".join(v)  # type: ignore[arg-type]


def _write(args: argparse.Namespace, report: _Report) -> None:
    """Render ``report`` in the requested format to stdout or ``--out``."""
    if args.fmt == "json":
        text = json.dumps(report.doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.header)
        writer.writerows([_cell(v) for v in row] for row in report.rows)
        text = buf.getvalue()
    if args.out_path is None or args.out_path == "-":
        sys.stdout.write(text)
    else:
        with open(args.out_path, "w", newline="") as fh:
            fh.write(text)


def _head(args: argparse.Namespace, res: _Resolved) -> dict:
    """The head every eval, classify and bertrand JSON report shares."""
    start, stop, count = args.grid
    return {"schema": SCHEMA, "curve": res.label, "params": res.params,
            "grid": {"start": start, "stop": stop, "count": count,
                     "points": len(res.grid)}}


def _emit_error(exc: BaseException) -> None:
    doc = {"schema": SCHEMA, "error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc), file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


_EVAL_HEADER = (
    "s", "x", "y", "z", "kappa", "tau", "epsilon",
    "eq_curvature", "eq_torsion",
    "e1_x", "e1_y", "e1_z", "e2_x", "e2_y", "e2_z", "e3_x", "e3_y", "e3_z",
    "frenet_residual", "equiform_residual",
)


def _eval_rows(res: _Resolved) -> list[list[float]]:
    """One row per grid point, from two row calls
    (``curves.bundle_reader``).  A grid point's position, Frenet and
    equiform data come from its row of orders 0-4.  A residual neighbour
    s +- h (h the FD step on a lattice, looked up through ``curve.snap``
    so that a lattice neighbour is the grid point it lands on) that is
    not a grid point is read for its frames alone, from its row of
    orders 1-2 (``equiform._frames_at``): 3 rows and 9 jet orders per
    point off the grid.  Each point's record, eps and the
    Frenet and equiform frames as floats, with kappa, tau, rho, K, T and
    the position at a grid point, is built when the ascending sweep
    first needs it and kept while the sweep can still read it: kept
    longer, a 1001-point grid holds 3003 records and the collector walks
    them all."""
    curve, grid, snap = res.curve, res.grid, res.curve.snap
    h = curve.residual_step
    lo, hi = curve.domain
    pairs = [(snap(s - h), snap(s + h)) if lo <= s - h and s + h <= hi
             else None for s in grid]
    on_grid = {s: i for i, s in enumerate(grid)}
    off_grid: dict[float, int] = {}
    for pair in filter(None, pairs):
        for t in pair:
            if t not in on_grid:
                off_grid.setdefault(t, len(off_grid))
    at, near = (bundle_reader(curve, grid, 0, 4),
                bundle_reader(curve, list(off_grid), 1, 2))
    records: dict[float, tuple] = {}

    def apparatus(s: float) -> tuple:
        rec = records.get(s)
        if rec is None:
            if s in on_grid:
                r = at(on_grid[s])
                jets = r[4:]
                eps, kappa, tau, fr = _frenet_of(s, jets)
                (rho, K, T, _, _, _), eq = _equiform_of(s, eps, jets)
                rec = eps, fr, eq, kappa, tau, rho, K, T, r
            else:
                rec = _frames_at(s, near(off_grid[s]))
            records[s] = rec
        return rec

    rows = []
    for s, pair in zip(grid, pairs):
        below = snap(s - h)
        for t in [t for t in records if t < below]:
            del records[t]
        eps, fr, eq, kappa, tau, rho, K, T, p = apparatus(s)
        if pair:
            em, frm, eqm = apparatus(pair[0])[:3]
            ep, frp, eqp = apparatus(pair[1])[:3]
            _stencil_character(s, em, eps, ep)
            r1 = _frenet_residual_of(frm, fr, frp, kappa, tau, h)
            r2 = _equiform_residual_of(eqm, eq, eqp, rho, K, T, h)
        else:
            r1 = r2 = math.nan
        rows.append([s, p[0], p[1], p[2], kappa, tau, float(eps), K, T,
                     *fr, r1, r2])
    return rows


def _cmd_eval(args: argparse.Namespace) -> _Report:
    res = _resolve(args)
    rows = _eval_rows(res)
    return _Report({**_head(args, res),
                    "columns": list(_EVAL_HEADER),
                    "rows": rows,
                    "diagnostics": list(res.notes)}, _EVAL_HEADER, rows)


def _classify(res: _Resolved, args: argparse.Namespace
              ) -> tuple[aw.AWReport, NaturalClass]:
    """The span verdicts and the natural class from one grid sweep."""
    points = _sweep(res.curve, res.grid, 1)[1]
    report = aw._classify_of(res.grid, points, res.curve.kind,
                             args.tol_class, res.notes)
    return report, _natural_class_of(points, args.tol_const, args.tol_zero)


def _cmd_classify(args: argparse.Namespace) -> _Report:
    res = _resolve(args)
    report, nat = _classify(res, args)
    diagnostics = list(report.diagnostics)
    if report.degenerate_points:
        diagnostics.append(
            f"{len(report.degenerate_points)} grid points had a degenerate "
            "second span direction; the weak span-2 check used scalars only")
    if report.resolution_limited_points:
        diagnostics.append(
            f"{len(report.resolution_limited_points)} grid points were "
            "resolution-limited: the equiform invariants and their rates "
            "all sat within the finite-difference error bound, so the span "
            "conditions read as for exactly vanishing invariants there")
    doc = {
        **_head(args, res),
        "natural_class": {**nat._asdict(), "tag": nat.tag.value},
        "aw": {name: {"holds": v.holds, "sup_residual": v.sup_residual}
               for name, v in report.verdicts.items()},
        "diagnostics": diagnostics,
    }
    rows: list[Sequence[object]] = [
        [name, v.holds, v.sup_residual]
        for name, v in report.verdicts.items()]
    rows.append(["natural_class", nat.tag.value, ""])
    rows.extend(["diagnostic", d, ""] for d in diagnostics)
    return _Report(doc, ("condition", "holds", "sup_residual"), rows)


def _cmd_bertrand(args: argparse.Namespace) -> _Report:
    res = _resolve(args)
    mate = bertrand_mate(res.curve, args.offset)
    pair = verify_bertrand_pair(res.curve, mate, args.offset, res.grid,
                                tol=args.tol_class)
    items = {
        "is_pair": pair.is_pair,
        "nature": pair.nature.value,
        "curvature_flatness_sup": pair.curvature_flatness_sup,
        "normal_parallel_sup": pair.normal_parallel_sup,
        "tangent_product_spread": pair.tangent_product_spread,
        "offset_spread": pair.offset_spread,
        "failures": list(pair.failures),
    }
    doc = {**_head(args, res), "offset": args.offset,
           "bertrand": items,
           "diagnostics": list(res.notes) + list(mate.warnings)}
    return _Report(doc, ("key", "value"),
                   [("offset", args.offset), *items.items()])


def _cmd_zoo_list(args: argparse.Namespace) -> _Report:
    header = ("name", "constraints", "default_domain")
    rows = [(n, *describe_constraints(n)) for n in zoo_names()]
    return _Report({"schema": SCHEMA,
                    "curves": [dict(zip(header, r)) for r in rows]},
                   header, rows)


def _cmd_figure(args: argparse.Namespace) -> _Report:
    entry = get_example(_FIGURES[args.figure_number])
    return _Report(None, ("s", "x", "y", "z"),
                   [(s, *entry.curve.position(s).as_tuple())
                    for s in entry.curve.grid(*entry.domain, _FIGURE_SAMPLES)])


# ---------------------------------------------------------------------------
# argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        _emit_error(ConfigError(message))
        raise SystemExit(2)


def _grid(text: str) -> tuple[float, float, int]:
    """``--grid start:stop:count``, at most ``_GRID_MAX_COUNT`` points;
    ``CurveJet.grid`` checks the shape."""
    try:
        start, stop, count = text.split(":")
        grid = float(start), float(stop), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:count, got {text!r}") from None
    if grid[2] > _GRID_MAX_COUNT:
        raise argparse.ArgumentTypeError(
            f"count must be at most {_GRID_MAX_COUNT}, got {grid[2]}")
    return grid


def _tolerance(text: str) -> float:
    """A tolerance option's value: a positive finite float."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not 0.0 < val < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}")
    return val


@cache     # once per process, on first use: parse_args leaves it as it is
def _build_parser() -> _Parser:
    parser = _Parser(prog="pg-curvelab",
                     description="invariants, span-condition classification "
                                 "and normal-offset mates for curves with a "
                                 "degenerate-metric ambient space")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser,
                   handler: Callable[[argparse.Namespace], _Report],
                   with_grid: bool, formats: tuple[str, ...] = ("csv", "json")
                   ) -> None:
        p.set_defaults(handler=handler)
        if with_grid:
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--curve", help="catalogue curve name")
            p.add_argument("--a", type=float,
                           help="first curve parameter (default: the "
                                "family's reference value)")
            p.add_argument("--b", type=float,
                           help="second curve parameter (default: the "
                                "family's reference value)")
            source.add_argument("--input", dest="input_path",
                                help="CSV file with s,x,y,z position samples "
                                     "on a uniform lattice")
            p.add_argument("--grid", type=_grid, required=True,
                           help="evaluation grid start:stop:count, at most "
                                f"{_GRID_MAX_COUNT} points")
        p.add_argument("--out", dest="out_path",
                       help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", choices=formats,
                       default="csv", help="output format (default csv)")

    add_common(sub.add_parser("eval"), _cmd_eval, with_grid=True)
    pc = sub.add_parser("classify")
    add_common(pc, _cmd_classify, with_grid=True)
    pc.add_argument("--tol", dest="tol_class", type=_tolerance,
                    help="classification tolerance (default by tier)")
    pc.add_argument("--tol-zero", dest="tol_zero", type=_tolerance,
                    default=TOL_ZERO,
                    help="threshold below which an invariant counts "
                         "as identically zero; --input points also "
                         "allow their FD error bound (default %(default)g)")
    pc.add_argument("--tol-const", dest="tol_const", type=_tolerance,
                    default=TOL_CONST,
                    help="relative spread below which an invariant "
                         "counts as constant (default %(default)g)")
    pb = sub.add_parser("bertrand")
    pb.add_argument("--lambda", dest="offset", type=float, required=True,
                    help="constant normal-offset factor")
    pb.add_argument("--tol", dest="tol_class", type=_tolerance,
                    help="pair-verification tolerance (default by tier)")
    add_common(pb, _cmd_bertrand, with_grid=True)
    add_common(sub.add_parser("zoo-list"), _cmd_zoo_list, with_grid=False)
    pf = sub.add_parser("figure")
    pf.add_argument("figure_number", type=int, choices=_FIGURES, metavar="N",
                    help="figure number 1..5")
    add_common(pf, _cmd_figure, with_grid=False, formats=("csv",))
    return parser


def _merge_option_values(argv: Sequence[str]) -> list[str]:
    """Join an ``--option`` with the next token when argparse's
    negative-number rule would read that token as an option: a '-'
    followed by a digit, '.', 'inf' or 'nan' (``--a -1e-3``,
    ``--grid -1:1:101``).  A missing value is left to argparse."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (i + 1 < len(argv) and tok.startswith("--") and "=" not in tok
                and _NEGATIVE_VALUE.match(argv[i + 1])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; returns the exit status."""
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_merge_option_values(argv))
    try:
        _write(args, args.handler(args))
        return 0
    except InadmissibleCurveError as exc:
        _emit_error(exc)
        return 3
    except (CurveLabError, ValueError, ArithmeticError, OSError) as exc:
        # ArithmeticError: parameters far outside a family's range
        # overflow its closed forms
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
