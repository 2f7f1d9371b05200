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
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from . import aw
from .algebra import PGVector
from .bertrand import bertrand_mate, verify_bertrand_pair
from .curves import CurveJet, make_sampled_curve
from .equiform import (EquiformData, NaturalClass, _equiform_of,
                       _equiform_residual_of, _natural_class_of,
                       equiform_grid)
from .errors import CurveLabError, InadmissibleCurveError
from .frenet import FrenetData, _frenet_of, _frenet_residual_of
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


class ConfigError(ValueError):
    """A command line that violates the CLI's own invariants."""


def _f17(v: float) -> str:
    return f"{v:.17g}"


def _grid_points(grid: tuple[float, float, int]) -> list[float]:
    start, stop, count = grid
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


# ---------------------------------------------------------------------------
# external position samples


def _read_lattice(
        path: str) -> tuple[list[float], list[PGVector], list[int]]:
    """(s, point, file line) of an s,x,y,z file's rows, sorted by s.  As
    with ``csv.DictReader``, blank rows are skipped, the last of duplicate
    column names wins and a row that stops before it lacks that column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not {"s", "x", "y", "z"} <= set(header):
            raise ConfigError(
                f"{path}: need CSV columns s,x,y,z (found {header})")
        cols = [max(i for i, name in enumerate(header) if name == key)
                for key in "sxyz"]
        width = max(cols) + 1
        rows = []
        for r in reader:
            if not r:
                continue
            if len(r) < width:
                raise ConfigError(
                    f"{path}: line {reader.line_num} lacks one of s,x,y,z")
            row = tuple([float(r[i]) for i in cols])
            if not math.isfinite(sum(row)) and not all(
                    map(math.isfinite, row)):
                raise ConfigError(
                    f"{path}: line {reader.line_num} has a non-finite value")
            rows.append((*row, reader.line_num))
    if len(rows) < 18:
        raise ConfigError(
            f"{path}: need at least 18 samples to rebuild derivatives, "
            f"got {len(rows)}")
    rows.sort(key=lambda r: r[0])
    return ([r[0] for r in rows], [PGVector(r[1], r[2], r[3]) for r in rows],
            [r[4] for r in rows])


def _lattice_curve(
        path: str) -> tuple[CurveJet, float, Callable[[float], float]]:
    """Build an FD curve from a CSV sample file.

    Returns (curve, lattice spacing, snap), where snap maps a parameter
    to the nearest lattice abscissa.  The FD step is twice the spacing so
    every stencil evaluation lands back on the lattice.
    """
    svals, points, lines = _read_lattice(path)
    s0, s_end = svals[0], svals[-1]
    n = len(svals)
    delta = (s_end - s0) / (n - 1)
    if not delta > 0.0:
        raise ConfigError(f"{path}: sample parameters must be distinct")
    for i, s in enumerate(svals):
        if abs(s - (s0 + i * delta)) > 1e-9 * max(1.0, abs(s)):
            raise ConfigError(
                f"{path}: samples must lie on a uniform lattice "
                f"(line {lines[i]} is off by more than 1e-9)")

    def snap(t: float) -> float:
        return s0 + round((t - s0) / delta) * delta

    def position(s: float) -> PGVector:
        i = round((s - s0) / delta)
        if i < 0 or i >= n or abs(s - (s0 + i * delta)) > 1e-6 * delta:
            raise ValueError(f"off-lattice evaluation at s={s!r}")
        return points[i]

    domain = (s0 + 8 * delta, s_end - 8 * delta)
    return make_sampled_curve(position, domain, h=2 * delta), delta, snap


def _snap_grid(pts: Sequence[float], snap: Callable[[float], float],
               domain: tuple[float, float]) -> list[float]:
    lo, hi = domain
    out: list[float] = []
    for p in pts:
        snapped = snap(min(max(snap(p), lo), hi))
        if lo - 1e-12 <= snapped <= hi + 1e-12 and (
                not out or snapped > out[-1]):
            out.append(snapped)
    if not out:
        raise ConfigError("grid does not intersect the usable sample range")
    return out


# ---------------------------------------------------------------------------
# resolving the configured curve


@dataclass
class _Resolved:
    curve: CurveJet
    label: str
    params: dict[str, float]
    grid: list[float]
    notes: tuple[str, ...] = ()
    residual_h: float = 1e-4
    # parameter -> the abscissa whose jets stand for it (lattice input)
    snap: Callable[[float], float] = lambda t: t


def _resolve(args: argparse.Namespace) -> _Resolved:
    pts = _grid_points(args.grid)
    if args.input_path is not None:
        curve, delta, snap = _lattice_curve(args.input_path)
        grid = _snap_grid(pts, snap, curve.domain)
        return _Resolved(curve=curve, label=f"sampled:{args.input_path}",
                         params={}, grid=grid, residual_h=2 * delta,
                         snap=snap)
    entry = get_example(args.curve, args.a, args.b)
    lo, hi = entry.curve.domain
    for p in pts:
        if not lo <= p <= hi:
            raise ConfigError(
                f"grid point {p:g} is outside the curve domain "
                f"[{lo:g}, {hi:g}]")
    return _Resolved(curve=entry.curve, label=entry.name, params=entry.params,
                     grid=pts, notes=entry.notes)


# ---------------------------------------------------------------------------
# output plumbing


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _report(args: argparse.Namespace, res: _Resolved,
            grid: list[float]) -> dict:
    """The head every eval, classify and bertrand JSON report shares."""
    start, stop, count = args.grid
    return {"schema": SCHEMA, "curve": res.label, "params": res.params,
            "grid": {"start": start, "stop": stop, "count": count,
                     "points": len(grid)}}


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
    """One row per grid point.  Each parameter's Frenet and equiform data
    come from one jet bundle, kept while the ascending grid can still
    read them (at s and s +- h, looked up through ``res.snap`` so that a
    lattice neighbour is the grid point it lands on)."""
    curve, h, snap = res.curve, res.residual_h, res.snap
    lo, hi = curve.domain
    window: dict[float, tuple[FrenetData, EquiformData]] = {}

    def apparatus(s: float) -> tuple[FrenetData, EquiformData]:
        rec = window.get(s)
        if rec is None:
            jets = curve.jets(s, 1, 4)
            rec = window[s] = (_frenet_of(s, *jets[:3]),
                               _equiform_of(s, *jets))
        return rec

    rows = []
    for s in res.grid:
        below, above = snap(s - h), snap(s + h)
        window = {k: v for k, v in window.items() if k >= below}
        p = curve.jet(s, 0)
        fr, eq = apparatus(s)
        if lo <= s - h and s + h <= hi:
            (frm, eqm), (frp, eqp) = apparatus(below), apparatus(above)
            r1 = _frenet_residual_of(frm, fr, frp, h)
            r2 = _equiform_residual_of(eqm, eq, eqp, h)
        else:
            r1 = r2 = math.nan
        rows.append([
            s, p.x1, p.x2, p.x3, fr.kappa, fr.tau, float(fr.epsilon),
            eq.curvature, eq.torsion,
            *fr.tangent.as_tuple(), *fr.normal.as_tuple(),
            *fr.binormal.as_tuple(), r1, r2,
        ])
    return rows


def _cmd_eval(args: argparse.Namespace) -> int:
    res = _resolve(args)
    rows = _eval_rows(res)
    if args.fmt == "csv":
        text = _csv_text(_EVAL_HEADER, [[_f17(v) for v in row]
                                        for row in rows])
    else:
        text = _json_text({
            **_report(args, res, res.grid),
            "columns": list(_EVAL_HEADER),
            "rows": rows,
            "diagnostics": list(res.notes),
        })
    _write_text(args.out_path, text)
    return 0


def _classify(res: _Resolved, args: argparse.Namespace
              ) -> tuple[aw.AWReport, NaturalClass]:
    """The span verdicts and the natural class from one grid sweep."""
    datas = equiform_grid(res.curve, res.grid)
    report = aw._classify_of(datas, res.curve.kind, args.tol_class,
                             res.notes)
    return report, _natural_class_of(datas, args.tol_const, args.tol_zero)


def _cmd_classify(args: argparse.Namespace) -> int:
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
    aw_doc = {name: {"holds": v.holds, "sup_residual": v.sup_residual}
              for name, v in report.verdicts.items()}
    if args.fmt == "json":
        text = _json_text({
            **_report(args, res, res.grid),
            "natural_class": {
                "tag": nat.tag.value,
                "curvature_mean": nat.curvature_mean,
                "curvature_spread": nat.curvature_spread,
                "torsion_mean": nat.torsion_mean,
                "torsion_spread": nat.torsion_spread,
            },
            "aw": aw_doc,
            "diagnostics": diagnostics,
        })
    else:
        rows: list[list[object]] = [
            [name, str(v.holds).lower(), _f17(v.sup_residual)]
            for name, v in report.verdicts.items()]
        rows.append(["natural_class", nat.tag.value, ""])
        rows.extend(["diagnostic", d, ""] for d in diagnostics)
        text = _csv_text(("condition", "holds", "sup_residual"), rows)
    _write_text(args.out_path, text)
    return 0


def _cmd_bertrand(args: argparse.Namespace) -> int:
    res = _resolve(args)
    mate = bertrand_mate(res.curve, args.offset)
    grid = [s for s in res.grid
            if mate.domain[0] <= s <= mate.domain[1]]
    if len(grid) < 5:
        raise ConfigError(
            "need at least 5 grid points inside the mate domain")
    pair = verify_bertrand_pair(res.curve, mate, args.offset, grid,
                                tol=args.tol_class or 1e-8)
    doc = {
        **_report(args, res, grid),
        "offset": args.offset,
        "bertrand": {
            "is_pair": pair.is_pair,
            "nature": pair.nature.value,
            "curvature_flatness_sup": pair.curvature_flatness_sup,
            "normal_parallel_sup": pair.normal_parallel_sup,
            "tangent_product_spread": pair.tangent_product_spread,
            "offset_spread": pair.offset_spread,
            "failures": list(pair.failures),
        },
        "diagnostics": list(res.notes) + list(mate.warnings),
    }
    if args.fmt == "json":
        text = _json_text(doc)
    else:
        items = doc["bertrand"]

        def cell(v: object) -> str:
            if isinstance(v, bool):
                return str(v).lower()
            if isinstance(v, float):
                return _f17(v)
            if isinstance(v, str):
                return v
            return "; ".join(v)

        rows = [[k, cell(v)] for k, v in items.items()]
        rows.insert(0, ["offset", _f17(args.offset)])
        text = _csv_text(("key", "value"), rows)
    _write_text(args.out_path, text)
    return 0


def _cmd_zoo_list(args: argparse.Namespace) -> int:
    names = zoo_names()
    if args.fmt == "json":
        text = _json_text({
            "schema": SCHEMA,
            "curves": [
                {"name": n,
                 "constraints": describe_constraints(n)[0],
                 "default_domain": describe_constraints(n)[1]}
                for n in names],
        })
    else:
        rows = [[n, *describe_constraints(n)] for n in names]
        text = _csv_text(("name", "constraints", "default_domain"), rows)
    _write_text(args.out_path, text)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    entry = get_example(_FIGURES[args.figure_number])
    lo, hi = entry.domain
    step = (hi - lo) / (_FIGURE_SAMPLES - 1)
    rows = []
    for i in range(_FIGURE_SAMPLES):
        s = lo + i * step
        p = entry.curve.jet(s, 0)
        rows.append([_f17(s), _f17(p.x1), _f17(p.x2), _f17(p.x3)])
    _write_text(args.out_path, _csv_text(("s", "x", "y", "z"), rows))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        _emit_error(ConfigError(message))
        raise SystemExit(2)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pg-curvelab",
                     description="invariants, span-condition classification "
                                 "and normal-offset mates for curves with a "
                                 "degenerate-metric ambient space")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser,
                   handler: Callable[[argparse.Namespace], int],
                   with_grid: bool) -> None:
        p.set_defaults(handler=handler)
        if with_grid:
            p.add_argument("--curve", help="catalogue curve name")
            p.add_argument("--a", type=float,
                           help="first curve parameter (default: the "
                                "family's reference value)")
            p.add_argument("--b", type=float,
                           help="second curve parameter (default: the "
                                "family's reference value)")
            p.add_argument("--input", dest="input_path",
                           help="CSV file with s,x,y,z position samples on "
                                "a uniform lattice")
            p.add_argument("--grid", required=True,
                           help="evaluation grid start:stop:count")
            p.add_argument("--tol", dest="tol_class", type=float,
                           help="classification tolerance (default by tier)")
            p.add_argument("--tol-zero", dest="tol_zero", type=float,
                           default=1e-9,
                           help="threshold below which an invariant counts "
                                "as identically zero; --input points also "
                                "allow their FD error bound (default 1e-9)")
            p.add_argument("--tol-const", dest="tol_const", type=float,
                           default=1e-6,
                           help="relative spread below which an invariant "
                                "counts as constant (default 1e-6)")
        p.add_argument("--out", dest="out_path",
                       help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv", help="output format (default csv)")

    add_common(sub.add_parser("eval"), _cmd_eval, with_grid=True)
    add_common(sub.add_parser("classify"), _cmd_classify, with_grid=True)
    pb = sub.add_parser("bertrand")
    pb.add_argument("--lambda", dest="offset", type=float, required=True,
                    help="constant normal-offset factor")
    add_common(pb, _cmd_bertrand, with_grid=True)
    add_common(sub.add_parser("zoo-list"), _cmd_zoo_list, with_grid=False)
    pf = sub.add_parser("figure")
    pf.add_argument("figure_number", type=int, metavar="N",
                    help="figure number 1..5")
    add_common(pf, _cmd_figure, with_grid=False)
    return parser


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:count, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from None


def _check(args: argparse.Namespace) -> None:
    """The rules argparse cannot state; parses ``args.grid`` in place."""
    if args.command == "figure":
        if args.figure_number not in _FIGURES:
            raise ConfigError("figure number must be between 1 and 5")
        if args.fmt != "csv":
            raise ConfigError("the figure command only emits csv")
    if args.command in ("zoo-list", "figure"):
        return
    args.grid = _parse_grid(args.grid)
    for name in ("tol_class", "tol_zero", "tol_const"):
        val = getattr(args, name)
        if val is not None and not val > 0.0:
            raise ConfigError(f"{name} must be positive, got {val}")
    start, stop, count = args.grid
    if count < 1:
        raise ConfigError("grid count must be at least 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"grid start and stop must be finite, got "
                          f"{start}:{stop}")
    if count == 1:
        if start != stop:
            raise ConfigError("a single-point grid needs start == stop")
    elif not start < stop:
        raise ConfigError("grid start must be below stop")
    if (args.curve is None) == (args.input_path is None):
        raise ConfigError("exactly one of --curve and --input is required")


# options whose float value may be written as -1e-3, which argparse's
# negative-number rule would otherwise read as an option
_FLOAT_OPTIONS = frozenset(("--a", "--b", "--lambda", "--tol", "--tol-zero",
                            "--tol-const"))


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _merge_option_values(argv: Sequence[str]) -> list[str]:
    """Join value-taking options with their values so values starting
    with '-' survive option parsing: ``--grid`` always
    (``--grid -1:1:101``), a float option when the next token reads as a
    float (``--a -1e-3``).  A missing value is left to argparse."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if i + 1 < len(argv) and (tok == "--grid" or (
                tok in _FLOAT_OPTIONS and _reads_as_float(argv[i + 1]))):
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
        _check(args)
        return args.handler(args)
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
