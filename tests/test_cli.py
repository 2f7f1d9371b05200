"""Command-line interface: outputs, validation, exit codes, lattice input."""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pg_curvelab.algebra import PGVector
from pg_curvelab.bertrand import bertrand_mate, verify_bertrand_pair
from pg_curvelab.cli import (
    SCHEMA,
    _build_parser,
    _classify,
    _eval_rows,
    _grid,
    _lattice_curve,
    _merge_option_values,
    _Resolved,
    main,
)
from pg_curvelab.curves import (CurveJet, JetKind, make_lattice_curve,
                                make_sampled_curve)
from pg_curvelab.equiform import equiform_residual, natural_class
from pg_curvelab.errors import InadmissibleCurveError
from pg_curvelab.frenet import frenet_residual
from pg_curvelab.zoo import REFERENCE_PARAMS, get_example, zoo_names

EVAL_COLUMNS = [
    "s", "x", "y", "z", "kappa", "tau", "epsilon",
    "eq_curvature", "eq_torsion",
    "e1_x", "e1_y", "e1_z", "e2_x", "e2_y", "e2_z", "e3_x", "e3_y", "e3_z",
    "frenet_residual", "equiform_residual",
]


def invoke(capsys, *argv):
    """(exit status, stdout, stderr); argparse rejects a command line by
    raising SystemExit, which counts as its exit status."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def rejected(capsys, *argv) -> str:
    """Run a command line that must exit 2 with exactly one JSON line on
    stderr and nothing on stdout; returns that line's message."""
    rc, out, err = invoke(capsys, *argv)
    assert rc == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["schema"] == SCHEMA
    return doc["message"]


def write_lattice(path, curve, lo, delta, count):
    with open(path, "w", newline="") as fh:
        fh.write("s,x,y,z\n")
        for i in range(count):
            s = lo + i * delta
            p = curve.jet(s, 0)
            fh.write(f"{s:.17g},{p.x1:.17g},{p.x2:.17g},{p.x3:.17g}\n")
    return str(path)


@pytest.fixture(scope="module")
def helix_csv(tmp_path_factory, helix_fixture):
    # 257 samples at dyadic spacing: the difference stencils land exactly
    # on lattice points and the step powers divide without rounding
    path = tmp_path_factory.mktemp("lattice") / "helix.csv"
    return write_lattice(path, helix_fixture.curve, -1.0, 2.0 ** -7, 257)


@pytest.fixture(scope="module")
def parabola_csv(tmp_path_factory, parabola):
    path = tmp_path_factory.mktemp("lattice") / "parabola.csv"
    return write_lattice(path, parabola.curve, -1.0, 2.0 ** -6, 129)


@pytest.fixture(scope="module")
def shifted_csv(tmp_path_factory, helix_fixture):
    # x = s + 0.25 on a non-dyadic lattice: the x-shift is rounded
    path = tmp_path_factory.mktemp("lattice") / "shifted.csv"
    with open(path, "w", newline="") as fh:
        fh.write("s,x,y,z\n")
        for i in range(201):
            s = -1.0 + i * 0.01
            p = helix_fixture.curve.jet(s, 0)
            fh.write(f"{s:.17g},{p.x1 + 0.25:.17g},{p.x2:.17g},{p.x3:.17g}\n")
    return str(path)


@pytest.fixture(scope="module")
def far_csv(tmp_path_factory):
    # far from s = 0 the top usable node, formed as s0 + (n - 9) * spacing,
    # rounds 3.6e-12 above the range end s_end - 8 * spacing
    s0, d, n = 17412.45260415335, 0.9196491627865294, 942
    path = tmp_path_factory.mktemp("lattice") / "far.csv"
    path.write_text("s,x,y,z\n" + "".join(
        f"{s!r},{s!r},{(s - s0) ** 2 / 2e3!r},{(s - s0) ** 3 / 6e7!r}\n"
        for s in (s0 + i * d for i in range(n))))
    return str(path)


def lattice_with_cell(path, column, value) -> str:
    """A 40-row cubic lattice whose row 20, on file line 22 after the
    header, holds ``value`` in ``column``."""
    rows = [[repr(v) for v in (s, s, s * s / 2, s ** 3 / 6)]
            for s in (0.02 * i for i in range(40))]
    rows[20][column] = value
    path.write_text("s,x,y,z\n" + "".join(",".join(r) + "\n" for r in rows))
    return str(path)


class TestConfigValidation:
    """Each rule on the command line, through ``main``: argparse states
    every argument rule, and each message names the option as typed."""

    CURVE = ("--curve", "isotropic_circle")

    def test_commands_and_formats(self, capsys):
        assert invoke(capsys, "zoo-list")[0] == 0
        assert "frobnicate" in rejected(capsys, "frobnicate")
        assert "--format" in rejected(capsys, "zoo-list", "--format", "yaml")

    def test_tolerances_must_be_positive(self, capsys):
        grid = ("--grid", "0:1:5")
        assert rejected(capsys, "classify", *self.CURVE, *grid,
                        "--tol-zero", "0") == \
            "argument --tol-zero: expected a positive finite number, got '0'"
        assert rejected(capsys, "classify", *self.CURVE, *grid,
                        "--tol=-1e-8") == \
            "argument --tol: expected a positive finite number, got '-1e-8'"
        assert rejected(capsys, "classify", *self.CURVE, *grid,
                        "--tol-const=-1") == \
            "argument --tol-const: expected a positive finite number, " \
            "got '-1'"
        # a value float() cannot read fails the same rule
        for value in ("abc", ""):
            assert rejected(capsys, "classify", *self.CURVE, *grid,
                            "--tol", value) == \
                "argument --tol: expected a positive finite number, " \
                f"got {value!r}"

    @pytest.mark.parametrize("command, option, name", [
        ("classify", "--tol", "tol_class"),
        ("classify", "--tol-zero", "tol_zero"),
        ("classify", "--tol-const", "tol_const"),
        ("bertrand", "--tol", "tol_class"),
    ])
    def test_tolerances_must_be_finite(self, capsys, command, option, name):
        # an infinite tolerance would pass every check it gates
        argv = [command, "--curve", "timelike_general_helix",
                "--grid", "0.2:1.8:21"]
        if command == "bertrand":
            argv += ["--lambda", "0.3"]
        assert rejected(capsys, *argv, option, "inf") == \
            f"argument {option}: expected a positive finite number, got 'inf'"
        args = _build_parser().parse_args([*argv, option, "1e-3"])
        assert getattr(args, name) == 1e-3

    @pytest.mark.parametrize("command, option", [
        ("eval", "--tol"), ("eval", "--tol-zero"), ("eval", "--tol-const"),
        ("bertrand", "--tol-zero"), ("bertrand", "--tol-const"),
    ])
    def test_options_a_command_does_not_read(self, capsys, command, option):
        # eval reads no tolerance and bertrand only its pair tolerance
        offset = ("--lambda", "0.3") if command == "bertrand" else ()
        assert rejected(capsys, command, "--curve", "bertrand_helix",
                        "--grid", "-0.5:0.5:5", *offset, option, "1e-3") == \
            f"unrecognized arguments: {option} 1e-3"

    def test_grid_shape(self, capsys):
        assert invoke(capsys, "eval", *self.CURVE, "--grid", "0:1:11")[0] == 0
        assert invoke(capsys, "eval", *self.CURVE,
                      "--grid", "0.5:0.5:1")[0] == 0
        assert rejected(capsys, "eval", *self.CURVE, "--grid", "0:1:0") == \
            "grid count must be at least 1"
        assert rejected(capsys, "eval", *self.CURVE, "--grid", "0:1:1") == \
            "a single-point grid needs start == stop"
        assert rejected(capsys, "eval", *self.CURVE, "--grid", "1:0:5") == \
            "grid start must be below stop"
        assert rejected(capsys, "eval", *self.CURVE, "--grid", "0:1") == \
            "argument --grid: expected start:stop:count, got '0:1'"
        assert rejected(capsys, "eval", *self.CURVE, "--grid", "a:b:c") == \
            "argument --grid: expected start:stop:count, got 'a:b:c'"

    def test_grid_count_ceiling(self, capsys, monkeypatch):
        # rejected before any grid point is built
        def no_grid(*args):
            raise AssertionError("grid built before the count was checked")
        monkeypatch.setattr("pg_curvelab.curves.CurveJet.grid", no_grid)
        for command in ("eval", "classify"):
            assert rejected(capsys, command, *self.CURVE,
                            "--grid", "0:1:100000000000") == \
                "argument --grid: count must be at most 10000000, " \
                "got 100000000000"
        assert _grid(f"0:1:{10 ** 7}") == (0.0, 1.0, 10 ** 7)
        with pytest.raises(argparse.ArgumentTypeError,
                           match="at most 10000000, got 10000001"):
            _grid(f"0:1:{10 ** 7 + 1}")

    def test_curve_source_is_exclusive(self, capsys):
        assert rejected(capsys, "eval", "--grid", "0:1:5") == \
            "one of the arguments --curve --input is required"
        assert rejected(capsys, "eval", *self.CURVE, "--input", "x.csv",
                        "--grid", "0:1:5") == \
            "argument --input: not allowed with argument --curve"

    def test_grid_required(self, capsys):
        assert "--grid" in rejected(capsys, "classify", *self.CURVE)

    def test_bertrand_needs_offset(self, capsys):
        assert "--lambda" in rejected(capsys, "bertrand", "--curve",
                                      "bertrand_helix", "--grid",
                                      "-0.5:0.5:9")

    def test_figure_constraints(self, capsys):
        assert invoke(capsys, "figure", "3")[0] == 0
        assert rejected(capsys, "figure", "6") == \
            "argument N: invalid choice: 6 (choose from 1, 2, 3, 4, 5)"
        assert rejected(capsys, "figure", "1", "--format", "json") == \
            "argument --format: invalid choice: 'json' (choose from 'csv')"


class TestArgvHelpers:
    def test_parse_grid(self):
        assert _grid("0:1:11") == (0.0, 1.0, 11)
        assert _grid("-1.5:2.5:3") == (-1.5, 2.5, 3)
        for text in ("0:1", "a:b:c", "0:1:2.5", "0:1:5:7"):
            with pytest.raises(argparse.ArgumentTypeError,
                               match="expected start:stop:count"):
                _grid(text)

    def test_merge_grid_value(self):
        argv = ["classify", "--grid", "-1:1:5", "--format", "json"]
        assert _merge_option_values(argv) == \
            ["classify", "--grid=-1:1:5", "--format", "json"]
        assert _merge_option_values(["zoo-list"]) == ["zoo-list"]
        assert _merge_option_values(["eval", "--grid"]) == ["eval", "--grid"]

    def test_merge_float_option_values(self):
        # an option is joined only with a token that argparse's
        # negative-number rule would read as an option
        assert _merge_option_values(
            ["eval", "--a", "-1e-3", "--b", "2", "--tol-zero", "-1E-9"]) == \
            ["eval", "--a=-1e-3", "--b", "2", "--tol-zero=-1E-9"]
        assert _merge_option_values(["bertrand", "--lambda", "-.5"]) == \
            ["bertrand", "--lambda=-.5"]
        assert _merge_option_values(["eval", "--a", "-inf", "--b", "-NaN"]) \
            == ["eval", "--a=-inf", "--b=-NaN"]
        assert _merge_option_values(["eval", "--a", "--grid", "0:1:5"]) == \
            ["eval", "--a", "--grid", "0:1:5"]
        assert _merge_option_values(["eval", "--a=1", "-2", "--b", "-x"]) \
            == ["eval", "--a=1", "-2", "--b", "-x"]

    def test_grid_points(self):
        curve = get_example("bertrand_helix").curve
        assert curve.grid(0.5, 0.5, 1) == [0.5]
        pts = curve.grid(0.0, 1.0, 5)
        assert pts[0] == 0.0 and pts[-1] == 1.0 and len(pts) == 5


class TestExponentFormValues:
    """A negative value in exponent form reaches the option it follows."""

    def test_negative_exponent_value_is_parsed(self, capsys):
        base = ("eval", "--curve", "timelike_general_helix", "--grid",
                "0:1:3")
        rc, out, err = invoke(capsys, *base, "--b", "-2e0")
        assert (rc, err) == (0, "")
        assert invoke(capsys, *base, "--b=-2e0") == (0, out, "")

    def test_negative_exponent_value_reaches_the_library(self, capsys):
        # argparse's negative-number rule alone would read -1e-3 as an
        # option and stop at "argument --a: expected one argument"
        assert rejected(capsys, "eval", "--curve", "bertrand_helix", "--a",
                        "-1e-3", "--grid", "0:1:5") == \
            "parameter a must be positive (a is the curvature)"
        assert rejected(capsys, "classify", "--curve", "bertrand_helix",
                        "--tol", "-1e-8", "--grid", "0:1:5") == \
            "argument --tol: expected a positive finite number, got '-1e-8'"

    def test_missing_value_keeps_the_argparse_message(self, capsys):
        for argv in (("--a", "--grid", "0:1:5"), ("--grid", "0:1:5", "--a")):
            assert rejected(capsys, "eval", "--curve", "bertrand_helix",
                            *argv) == "argument --a: expected one argument"


class TestZooList:
    def test_csv(self, capsys):
        rc, out, _ = invoke(capsys, "zoo-list")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "name,constraints,default_domain"
        assert len(lines) == 8

    def test_json(self, capsys):
        rc, out, _ = invoke(capsys, "zoo-list", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema"] == SCHEMA
        assert len(doc["curves"]) == 7
        assert all({"name", "constraints", "default_domain"} <= set(c)
                   for c in doc["curves"])


class TestEval:
    def test_single_point_row(self, capsys):
        rc, out, _ = invoke(capsys, "eval", "--curve",
                            "timelike_general_helix", "--a", "1", "--b", "2",
                            "--grid", "0:0:1")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == EVAL_COLUMNS
        assert len(rows) == 1
        row = rows[0]
        assert float(row["kappa"]) == pytest.approx(1.0, rel=1e-12)
        assert float(row["tau"]) == pytest.approx(2.0, rel=1e-12)
        assert row["epsilon"] == "1"
        assert float(row["eq_curvature"]) == pytest.approx(1.0, rel=1e-12)
        assert float(row["eq_torsion"]) == pytest.approx(2.0, rel=1e-12)
        assert float(row["e1_y"]) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert float(row["frenet_residual"]) < 1e-6
        assert float(row["equiform_residual"]) < 1e-6

    def test_json_rows(self, capsys):
        rc, out, _ = invoke(capsys, "eval", "--curve", "bertrand_helix",
                            "--grid", "-0.5:0.5:5", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema"] == SCHEMA
        assert doc["curve"] == "bertrand_helix"
        assert doc["columns"] == EVAL_COLUMNS
        assert len(doc["rows"]) == 5
        assert all(len(r) == len(EVAL_COLUMNS) for r in doc["rows"])
        kappas = [r[4] for r in doc["rows"]]
        assert kappas == pytest.approx([1.0] * 5, rel=1e-12)

    def test_residuals_are_nan_at_the_domain_edge(self, capsys):
        # the padded domain ends at -0.04; the residual stencil would
        # step outside it, so the residual columns hold nan there
        rc, out, _ = invoke(capsys, "eval", "--curve",
                            "timelike_general_helix", "--a", "1", "--b", "2",
                            "--grid", "-0.04:-0.04:1")
        assert rc == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert math.isnan(float(row["frenet_residual"]))
        assert math.isnan(float(row["equiform_residual"]))
        assert not math.isnan(float(row["kappa"]))

    @pytest.mark.parametrize("name", zoo_names())
    def test_public_residuals_match_the_eval_columns(self, capsys, name):
        # off the grid, eval and the library read the residual
        # neighbours alike: their frames from the jets of orders 1-2
        entry = get_example(name)
        lo, hi = entry.domain
        rc, out, _ = invoke(capsys, "eval", "--curve", name,
                            "--grid", f"{lo!r}:{hi!r}:9")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        for row in rows:
            s = float(row["s"])
            assert frenet_residual(entry.curve, s) == \
                float(row["frenet_residual"])
            assert equiform_residual(entry.curve, s) == \
                float(row["equiform_residual"])

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        rc, out, _ = invoke(capsys, "eval", "--curve", "isotropic_circle",
                            "--grid", "-0.5:0.5:9", "--out", str(target))
        assert rc == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("s,x,y,z,kappa")
        assert len(text.strip().split("\n")) == 10


class TestClassify:
    def test_helix_json_report(self, capsys):
        rc, out, _ = invoke(capsys, "classify", "--curve", "bertrand_helix",
                            "--grid", "-0.9:0.9:21", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema"] == SCHEMA
        assert doc["curve"] == "bertrand_helix"
        assert doc["params"] == {"a": 1.0, "b": 1.0}
        assert doc["grid"] == {"start": -0.9, "stop": 0.9, "count": 21,
                               "points": 21}
        holds = {name: v["holds"] for name, v in doc["aw"].items()}
        assert holds == {"AW1": False, "AW2": False, "AW3": True,
                         "WeakAW2": False, "WeakAW3": True}
        assert doc["natural_class"]["tag"] == "circular-helix"
        assert doc["natural_class"]["torsion_mean"] == pytest.approx(1.0)
        assert doc["diagnostics"] == []

    def test_planar_curve_csv_report(self, capsys):
        rc, out, _ = invoke(capsys, "classify", "--curve",
                            "timelike_log_spiral", "--grid", "0.5:3.5:11")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["condition", "holds", "sup_residual"]
        table = {r[0]: r[1] for r in rows[1:6]}
        assert table == {"AW1": "false", "AW2": "true", "AW3": "true",
                         "WeakAW2": "false", "WeakAW3": "true"}
        assert rows[6][:2] == ["natural_class", "isotropic-logarithmic-spiral"]
        diagnostics = [r[1] for r in rows[7:]]
        assert any("degenerate second span direction" in d
                   for d in diagnostics)
        assert len(diagnostics) == 2      # catalogue note + degeneracy note

    def test_tolerance_flag_reaches_classifier(self, capsys):
        rc, out, _ = invoke(capsys, "classify", "--curve",
                            "timelike_circular_helix", "--a", "1", "--b", "2",
                            "--grid", "1:2.5:9", "--tol", "10",
                            "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert all(v["holds"] for v in doc["aw"].values())

    def test_negative_grid_start_parses(self, capsys):
        rc, out, _ = invoke(capsys, "classify", "--curve", "bertrand_helix",
                            "--grid", "-0.9:0.9:21")
        assert rc == 0


class TestLatticeInput:
    def test_helix_roundtrip_matches_analytic_verdicts(self, capsys,
                                                       helix_csv):
        rc, out, _ = invoke(capsys, "classify", "--input", helix_csv,
                            "--grid", "-0.9:0.9:41", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["curve"] == f"sampled:{helix_csv}"
        holds = {name: v["holds"] for name, v in doc["aw"].items()}
        assert holds == {"AW1": False, "AW2": False, "AW3": True,
                         "WeakAW2": False, "WeakAW3": True}
        # rebuilt derivatives carry ~1e-7 noise, above the strict
        # zero-threshold but inside each point's FD error bound, which
        # the natural-class zero test honours: the analytic verdict
        assert doc["natural_class"]["tag"] == "circular-helix"

        rc, out, _ = invoke(capsys, "classify", "--input", helix_csv,
                            "--grid", "-0.9:0.9:41", "--format", "json",
                            "--tol-zero", "1e-5")
        assert rc == 0
        doc = json.loads(out)
        assert doc["natural_class"]["tag"] == "circular-helix"

    def test_parabola_roundtrip_is_exact(self, capsys, parabola_csv):
        # every stencil lands on dyadic lattice values of a quadratic, so
        # the rebuilt jets, and with them all residuals, are exact
        rc, out, _ = invoke(capsys, "classify", "--input", parabola_csv,
                            "--grid", "-0.5:0.5:21", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert all(v["holds"] for v in doc["aw"].values())
        assert all(v["sup_residual"] == 0.0 for v in doc["aw"].values())
        assert doc["natural_class"]["tag"] == "isotropic-circle"

    def test_parabola_lattice_reports_resolution_limited_points(
            self, capsys, parabola_csv):
        rc, out, _ = invoke(capsys, "classify", "--input", parabola_csv,
                            "--grid", "-0.5:0.5:21", "--format", "json")
        assert rc == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert any(d.startswith("21 grid points were resolution-limited")
                   for d in diagnostics)

    def test_eval_on_lattice(self, capsys, helix_csv):
        rc, out, _ = invoke(capsys, "eval", "--input", helix_csv,
                            "--grid", "-0.5:0.5:9")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        for row in rows:
            assert float(row["kappa"]) == pytest.approx(1.0, abs=1e-7)
            assert float(row["tau"]) == pytest.approx(1.0, abs=1e-6)

    def test_straight_line_is_inadmissible(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        with open(path, "w") as fh:
            fh.write("s,x,y,z\n")
            for i in range(45):
                s = 0.05 * i
                fh.write(f"{s:.17g},{s:.17g},0,0\n")
        rc, out, err = invoke(capsys, "classify", "--input", str(path),
                              "--grid", "0.5:1.0:11")
        assert rc == 3
        doc = json.loads(err)
        assert doc["error"] == "InadmissibleCurveError"

    def test_byte_order_mark_is_read(self, tmp_path, capsys, helix_csv):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + open(helix_csv, "rb").read())
        argv = ("eval", "--grid", "-0.5:0.5:11")
        plain = invoke(capsys, *argv, "--input", helix_csv)
        assert plain[0] == 0
        assert invoke(capsys, *argv, "--input", str(bom)) == plain

    @pytest.mark.parametrize("lattice", ["helix_csv", "parabola_csv",
                                         "shifted_csv"])
    def test_public_residuals_match_the_eval_columns(self, request, capsys,
                                                     lattice):
        # the library's default step on a lattice is the CLI's, 2 spacings
        path = request.getfixturevalue(lattice)
        curve = _lattice_curve(path)
        assert curve.residual_step == 2 * curve.nodes[1]
        lo, hi = curve.domain
        rc, out, _ = invoke(capsys, "eval", "--input", path,
                            "--grid", f"{lo!r}:{hi!r}:9")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        interior = [r for r in rows
                    if not math.isnan(float(r["frenet_residual"]))]
        assert len(interior) == 7
        for row in interior:
            s = float(row["s"])
            assert frenet_residual(curve, s) == float(row["frenet_residual"])
            assert equiform_residual(curve, s) == \
                float(row["equiform_residual"])

    def test_short_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        with open(path, "w") as fh:
            fh.write("s,x,y,z\n")
            for i in range(10):
                fh.write(f"{0.1 * i},{0.1 * i},{0.005 * i * i},0\n")
        rc, _, err = invoke(capsys, "classify", "--input", str(path),
                            "--grid", "0:1:5")
        assert rc == 2
        assert "at least 33 samples" in json.loads(err)["message"]

    def test_lattice_minimum_is_the_constructor_minimum(self, tmp_path,
                                                        capsys):
        # 32 rows: the CLI names the file and the minimum; 33 rows at
        # random spacings and first nodes build and evaluate, whatever
        # the rounding of the domain ends
        rng = random.Random(33)
        for trial in range(20):
            first = rng.uniform(-50.0, 50.0)
            spacing = 10.0 ** rng.uniform(-3.0, 0.0)
            path = tmp_path / f"lattice{trial}.csv"
            path.write_text("s,x,y,z\n" + "".join(
                f"{s!r},{s!r},{(s - first) ** 2 / 2!r},0\n"
                for s in (first + i * spacing for i in range(33))))
            mid = first + 16 * spacing
            rc, out, err = invoke(capsys, "eval", "--input", str(path),
                                  "--grid", f"{mid!r}:{mid!r}:1")
            assert (rc, err) == (0, ""), (first, spacing)
            assert len(out.splitlines()) == 2
        path.write_text("".join(path.read_text().splitlines(True)[:33]))
        assert rejected(capsys, "eval", "--input", str(path),
                        "--grid", "0:1:5") == \
            f"{path}: need at least 33 samples to rebuild derivatives, got 32"

    def test_nonuniform_lattice_rejected(self, tmp_path, capsys):
        path = tmp_path / "jitter.csv"
        with open(path, "w") as fh:
            fh.write("s,x,y,z\n")
            for i in range(40):
                s = 0.1 * i + (1e-4 if i == 7 else 0.0)
                fh.write(f"{s},{s},{0.05 * s * s},0\n")
        rc, _, err = invoke(capsys, "classify", "--input", str(path),
                            "--grid", "1:1.5:7")
        assert rc == 2
        # the jittered sample is named by its s
        assert json.loads(err)["message"] == (
            f"{path}: samples must lie on a uniform lattice "
            f"(s={0.1 * 7 + 1e-4!r} is off by more than 1e-9)")

    def test_step_below_the_round_off_guard_names_the_file(self, tmp_path,
                                                           capsys):
        # s = 2^20 + i 2^-30 is exact, so the lattice is uniform, but its
        # FD step 2^-29 is below the round-off guard at |s| = 2^20
        path = tmp_path / "fine.csv"
        path.write_text("s,x,y,z\n" + "".join(
            f"{s!r},{s!r},{(s - 2.0 ** 20) ** 2 / 2!r},0\n"
            for s in (2.0 ** 20 + i * 2.0 ** -30 for i in range(40))))
        rc, out, err = invoke(capsys, "eval", "--input", str(path),
                              "--grid", f"{2.0 ** 20!r}:{2.0 ** 20!r}:1")
        assert (rc, out) == (2, "")
        assert json.loads(err) == {
            "schema": SCHEMA, "error": "ConfigError",
            "message": f"{path}: step {2.0 ** -29!r} is below the round-off "
                       "guard"}

    def test_overflowing_x_shift_names_the_sample(self, tmp_path, capsys):
        # x = -1e308 at the first domain node and +1e308 elsewhere: the
        # shift to x = s, about -1e308, takes every other x past the
        # double range, so the lattice is rejected before any grid point
        d = 2.0 ** -6
        path = tmp_path / "shift.csv"
        path.write_text("s,x,y,z\n" + "".join(
            f"{i * d!r},{-1e308 if i == 8 else 1e308!r},0,0\n"
            for i in range(65)))
        assert rejected(capsys, "eval", "--input", str(path),
                        "--grid", "0.25:0.75:5") == (
            f"{path}: samples must stay finite when x is shifted to x = s "
            f"by dx = {-1e308 - 8 * d!r}, got (0.0, 1e+308, 0.0, 0.0)")

    @pytest.mark.parametrize("command", ["eval", "classify"])
    def test_overflowing_round_off_bound_takes_the_long_step(
            self, tmp_path, capsys, command):
        # rows near 1e302: the order-3 round-off bound overflows, so the
        # step search takes its longest step, and the overflow that
        # follows names its quantity and point
        d = 2.0 ** -8
        path = tmp_path / "large.csv"
        path.write_text("s,x,y,z\n" + "".join(
            f"{s!r},{s!r},{1e302 * math.cosh(s)!r},"
            f"{1e302 * math.sinh(s)!r}\n"
            for s in (-0.4 + i * d for i in range(257))))
        assert rejected(capsys, command, "--input", str(path),
                        "--grid", "-0.3:0.3:5") == (
            "y''^2 + z''^2 overflows at s=-0.298438")

    def test_coincident_samples_rejected(self, tmp_path, capsys):
        path = tmp_path / "same.csv"
        path.write_text("s,x,y,z\n" + "0.5,0.5,0.125,0\n" * 33)
        assert rejected(capsys, "eval", "--input", str(path),
                        "--grid", "0:1:5") == \
            f"{path}: sample parameters must be distinct"

    def test_blank_rows_are_skipped(self, tmp_path, capsys, helix_csv):
        lines = open(helix_csv).read().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("".join(line + ("\n\n" if i % 10 == 3 else "\n")
                                  for i, line in enumerate(lines)))
        argv = ("--grid", "-0.5:0.5:11")
        rc, out, err = invoke(capsys, "eval", "--input", str(spaced), *argv)
        assert (rc, err) == (0, "")
        assert invoke(capsys, "eval", "--input", helix_csv, *argv) == \
            (0, out, "")

    def test_top_of_the_usable_range_on_a_far_lattice(self, capsys,
                                                      far_csv):
        # the top usable node lies above the range end (see far_csv); a
        # grid on the range end is evaluated at that node
        lattice = _lattice_curve(far_csv)
        hi = lattice.domain[1]
        rc, out, err = invoke(capsys, "eval", "--input", far_csv,
                              "--grid", f"{hi!r}:{hi!r}:1")
        assert (rc, err) == (0, "")
        assert float(out.splitlines()[1].split(",")[0]) == \
            lattice.snap(hi) > hi

    def test_missing_columns_rejected(self, tmp_path, capsys):
        path = tmp_path / "cols.csv"
        path.write_text("s,x,y\n" + "".join(f"{0.1 * i},{0.1 * i},0\n"
                                            for i in range(20)))
        rc, _, err = invoke(capsys, "classify", "--input", str(path),
                            "--grid", "0:1:7")
        assert rc == 2
        assert "columns" in json.loads(err)["message"]

    @pytest.mark.parametrize("command", ["eval", "classify"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, capsys,
                                                  command):
        path = lattice_with_cell(tmp_path / "nan.csv", 2, "nan")
        assert rejected(capsys, command, "--input", path,
                        "--grid", "0.2:0.6:6") == \
            f"{path}: line 22 has a non-finite value"

    @pytest.mark.parametrize("value", ["", "abc"])
    @pytest.mark.parametrize("command", ["eval", "classify"])
    def test_non_numeric_value_names_file_and_line(self, tmp_path, capsys,
                                                   command, value):
        path = lattice_with_cell(tmp_path / "word.csv", 1, value)
        assert rejected(capsys, command, "--input", path,
                        "--grid", "0.2:0.6:6") == \
            f"{path}: line 22 has a non-numeric value"

    def test_short_row_rejected(self, tmp_path, capsys, helix_csv):
        lines = open(helix_csv).read().splitlines()
        lines[40] = lines[40].rsplit(",", 1)[0]
        path = tmp_path / "short_row.csv"
        path.write_text("\n".join(lines) + "\n")
        assert rejected(capsys, "classify", "--input", str(path),
                        "--grid", "-0.5:0.5:9") == \
            f"{path}: line 41 lacks one of s,x,y,z"


class TestBertrandCommand:
    def test_helix_pair_json(self, capsys):
        rc, out, _ = invoke(capsys, "bertrand", "--curve", "bertrand_helix",
                            "--lambda", "1", "--grid", "-0.9:0.9:21",
                            "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["offset"] == 1.0
        assert doc["bertrand"]["is_pair"] is True
        assert doc["bertrand"]["nature"] == "circular-helix"
        assert doc["bertrand"]["failures"] == []

    def test_helix_pair_csv(self, capsys):
        rc, out, _ = invoke(capsys, "bertrand", "--curve", "bertrand_helix",
                            "--lambda", "0.5", "--grid", "-0.9:0.9:21")
        assert rc == 0
        rows = {r[0]: r[1] for r in csv.reader(io.StringIO(out))}
        assert rows["is_pair"] == "true"
        assert rows["nature"] == "circular-helix"

    def test_flattening_offset_exits_three(self, capsys):
        rc, _, err = invoke(capsys, "bertrand", "--curve", "bertrand_helix",
                            "--lambda", "-1", "--grid", "-0.9:0.9:21")
        assert rc == 3
        assert json.loads(err)["error"] == "MateInadmissibleError"

    @pytest.mark.parametrize("a, reason", [
        ("1", "lightlike acceleration at s=-0.832: y''^2 - z''^2 ~ 0"),
        ("0.2", "numerically an inflection: the acceleration cancels to "
                "round-off at s=-0.832"),
    ])
    def test_flattening_offset_names_the_offset(self, capsys, a, reason):
        # 1 + lam T^2 = 0 at T = b/a = 1; at a = 0.2 the acceleration
        # cancels to a residue of round-off, which used to pass the probe
        rc, _, err = invoke(capsys, "bertrand", "--curve", "bertrand_helix",
                            "--a", a, "--b", a, "--lambda", "-1",
                            "--grid", "-0.9:0.9:21")
        assert rc == 3
        assert json.loads(err) == {
            "schema": "pg-curvelab/1", "error": "MateInadmissibleError",
            "message": f"offset -1 produces an inadmissible mate: {reason}"}

    @pytest.mark.parametrize("lattice, nature", [
        ("helix_csv", "circular-helix"),
        ("parabola_csv", "isotropic-circle"),
    ])
    def test_pair_on_a_lattice(self, request, capsys, lattice, nature):
        # on helix_csv the mate's curvature flatness is 6.6e-7, 15 times
        # inside the FD tolerance; the parabola's is exactly 0
        path = request.getfixturevalue(lattice)
        rc, out, err = invoke(capsys, "bertrand", "--input", path,
                              "--lambda", "0.3", "--grid", "-0.8:0.8:21",
                              "--format", "json")
        assert (rc, err) == (0, "")
        doc = json.loads(out)["bertrand"]
        assert doc["is_pair"] is True, doc["failures"]
        assert doc["nature"] == nature

    @pytest.mark.parametrize("lam", ["0.3", "1"])
    def test_coarse_lattice_pairs_on_a_fine_grid(self, capsys, helix_csv,
                                                  lam):
        # spacing 2^-7, 101 points: the mate's orders 3-4 come from the
        # lattice's FD orders 5-6, and its flatness is 6.6e-7 (lam = 0.3)
        # and 9.3e-7 (lam = 1) on every point
        rc, out, err = invoke(capsys, "bertrand", "--input", helix_csv,
                              "--lambda", lam, "--grid", "-0.8:0.8:101",
                              "--format", "json")
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        assert doc["grid"]["points"] == 101
        assert doc["bertrand"]["is_pair"] is True, doc["bertrand"]["failures"]
        assert doc["bertrand"]["nature"] == "circular-helix"
        assert doc["bertrand"]["curvature_flatness_sup"] <= 1e-6

    def test_lattice_mate_reads_only_nodes(self, helix_fixture, counting):
        # the lattice of helix_csv, its reads counted: a read between
        # nodes would raise, so every abscissa the mate and the
        # verification read is a node
        first, spacing, n = -1.0, 2.0 ** -7, 257
        base, calls = counting(make_lattice_curve(
            (s, *helix_fixture.curve.position(s).as_tuple())
            for s in (first + i * spacing for i in range(n))))
        mate = bertrand_mate(base, 0.3)
        assert mate.nodes == base.nodes
        probed = len(calls.orders)
        assert probed > 0
        pair = verify_bertrand_pair(base, mate, 0.3, base.grid(-0.8, 0.8, 21))
        assert pair.is_pair, pair.failures
        assert len(calls.orders) > probed
        assert all(base.snap(s) == s for s, _ in calls.orders)

    def test_translated_lattice_pairs(self, tmp_path, capsys, helix_fixture):
        # the lattice of helix_csv with s and x shifted by c, an isometry:
        # the verdicts must not move, nor the points they verify.  The
        # mate keeps the base's domain, and on a lattice the steps of
        # orders 5-6 do not grow with |s|: the flatness is 6.6e-7 at c = 0
        # and 1.1e-6 at c = 1000
        verdicts = []
        for c in (0.0, 8.0, 64.0, 1000.0):
            path = tmp_path / f"helix{c:g}.csv"
            path.write_text("s,x,y,z\n" + "".join(
                f"{c + s!r},{p.x1 + c!r},{p.x2!r},{p.x3!r}\n"
                for s, p in ((s, helix_fixture.curve.position(s)) for s in
                             (-1.0 + i * 2.0 ** -7 for i in range(257)))))
            opts = ("--grid", f"{c - 0.8!r}:{c + 0.8!r}:21",
                    "--format", "json")
            rc, out, err = invoke(capsys, "classify", "--input", str(path),
                                  *opts)
            assert (rc, err) == (0, "")
            doc = json.loads(out)
            verdicts.append(({k for k, v in doc["aw"].items() if v["holds"]},
                             doc["natural_class"]["tag"]))
            rc, out, err = invoke(capsys, "bertrand", "--input", str(path),
                                  "--lambda", "0.3", *opts)
            assert (rc, err) == (0, "")
            doc = json.loads(out)
            assert doc["grid"]["points"] == 21, c
            doc = doc["bertrand"]
            assert doc["is_pair"] is True, (c, doc["failures"])
            assert doc["nature"] == "circular-helix"
        assert verdicts == [({"AW3", "WeakAW3"}, "circular-helix")] * 4

    @pytest.mark.parametrize("a, b, flatness", [
        (1.0, 3.0, 1e-6),       # tau = 3
        (10.0, 1.0, 1e-8),      # kappa = 10
    ])
    def test_pair_on_a_fine_lattice(self, tmp_path, capsys, a, b, flatness):
        # spacing 1e-3: the mate's orders 3-4 come from the lattice's
        # orders 5-6, whose step search starts at 24 residual steps; the
        # flatness is 6.2e-7 at tau = 3 and 4.5e-10 at kappa = 10
        path = write_lattice(tmp_path / "helix.csv",
                             get_example("bertrand_helix", a, b).curve,
                             -1.0, 1e-3, 2001)
        rc, out, err = invoke(capsys, "bertrand", "--input", path,
                              "--lambda", "0.3", "--grid", "-0.9:0.9:101",
                              "--format", "json")
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        assert doc["grid"]["points"] == 101
        doc = doc["bertrand"]
        assert doc["is_pair"] is True, doc["failures"]
        assert doc["nature"] == "circular-helix"
        assert doc["curvature_flatness_sup"] < flatness

    def test_sparse_grid_rejected(self, capsys):
        # the verifier owns the count rule
        rc, _, err = invoke(capsys, "bertrand", "--curve", "bertrand_helix",
                            "--lambda", "1", "--grid", "-0.9:0.9:4")
        assert rc == 2
        doc = json.loads(err)
        assert doc["error"] == "ValueError"
        assert doc["message"] == \
            "verification needs a grid of at least 5 points"

    def test_lattice_top_node_is_kept(self, tmp_path, capsys):
        # 2017 rows (s, cosh s, sinh s) over [-1.04, 1.04]: the grid's
        # stop, the domain end last - 8 * spacing, snaps to a node an ulp
        # above it, which CurveJet.grid accepts; every command reads
        # that grid as it is
        spacing = 2.08 / 2016
        path = tmp_path / "cosh.csv"
        path.write_text("s,x,y,z\n" + "".join(
            f"{s!r},{s!r},{math.cosh(s)!r},{math.sinh(s)!r}\n"
            for s in (-1.04 + i * spacing for i in range(2017))))
        grid = ("--input", str(path), "--grid", "-1:1.0317460317460319:101",
                "--format", "json")
        points = []
        for argv in (("eval",), ("classify",), ("bertrand", "--lambda", "0.3")):
            rc, out, err = invoke(capsys, *argv, *grid)
            assert (rc, err) == (0, ""), argv
            doc = json.loads(out)
            points.append(doc["grid"]["points"])
        assert points == [101] * 3
        assert doc["bertrand"]["is_pair"] is True, doc["bertrand"]["failures"]

    # sha256 of the full stdout: every float prints with 17 digits, so
    # a change in any bit of any field changes the hash
    @pytest.mark.parametrize("argv, fmt, digest", [
        (("--curve", "bertrand_helix", "--lambda", "1",
          "--grid", "-0.9:0.9:21"), "json",
         "d8329112dd35ae7851bcdadfee5505b0b8a3c287956a4f1cca9f8bca7d881d17"),
        (("--curve", "bertrand_helix", "--lambda", "1",
          "--grid", "-0.9:0.9:21"), "csv",
         "c6a54eb1c9bd16c87d431f79f1d99328ad7cd12db5fec5b1492557e87fbac662"),
        (("--curve", "isotropic_circle", "--lambda", "0.7",
          "--grid", "-0.9:0.9:21"), "json",
         "4a4ad26ef515ff8d3e5e99217d95ecb71dc7792bc4f6533b5374b60ca9f6e51e"),
        (("--curve", "isotropic_circle", "--lambda", "0.7",
          "--grid", "-0.9:0.9:21"), "csv",
         "8f869edc16f11a06eb81648e2fbd2bb4e5e4e0ab29d3a8c384994145250c8ff4"),
        (("--curve", "timelike_general_helix", "--a", "1", "--b", "2",
          "--lambda", "0.3", "--grid", "0.2:1.8:21"), "json",
         "db3e618439dadd981552201556bc07880aba2ae615a98224c824e5732985b689"),
        (("--curve", "timelike_general_helix", "--a", "1", "--b", "2",
          "--lambda", "0.3", "--grid", "0.2:1.8:21"), "csv",
         "ec09af7da35d36b98af0cc9e52b6390d639452b80da0b9521f3db8e94d148b6c"),
    ])
    def test_frozen_output_bits(self, capsys, argv, fmt, digest):
        rc, out, _ = invoke(capsys, "bertrand", *argv, "--format", fmt)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


_CURVE_ARGV = {
    "bertrand_helix": ("--curve", "bertrand_helix", "--grid", "-0.9:0.9:21"),
    "timelike_general_helix": ("--curve", "timelike_general_helix",
                               "--a", "1", "--b", "2",
                               "--grid", "0.2:1.8:21"),
    "timelike_log_spiral": ("--curve", "timelike_log_spiral",
                            "--grid", "0.5:3.5:21"),
    "spacelike_general_helix": ("--curve", "spacelike_general_helix",
                                "--a", "1", "--b", "2",
                                "--grid", "0.2:1.8:21"),
    "timelike_circular_helix": ("--curve", "timelike_circular_helix",
                                "--a", "1", "--b", "2",
                                "--grid", "0.7:2.8:21"),
    "spacelike_circular_helix": ("--curve", "spacelike_circular_helix",
                                 "--a", "1", "--b", "2",
                                 "--grid", "0.7:2.8:21"),
    "isotropic_circle": ("--curve", "isotropic_circle",
                         "--grid", "-0.9:0.9:21"),
}


class TestFrozenEvalClassifyBits:
    """sha256 of the full stdout of ``eval`` and ``classify`` on 21-point
    grids, every catalogue family and the parabola lattice.  The lattice
    path in the JSON ``curve`` label is replaced by ``LATTICE`` first.
    ``spacelike_general_helix`` and ``timelike_circular_helix`` have a
    timelike normal (epsilon = -1), which no other pin reaches.  The last
    point of a grid is its stop, so ``eval`` on -0.9:0.9:21 prints s =
    0.9 in its last row, not -0.9 + 20 * 0.09 = 0.8999999999999998."""

    @pytest.mark.parametrize("command, source, fmt, digest", [
        ("eval", "bertrand_helix", "json",
         "5406aa43691ad7048d1c6faada0929a8dd4dc46d046d78c9e83c4b81adc85972"),
        ("eval", "bertrand_helix", "csv",
         "9909a16cc21a529d494a9753984e6f4a93fc1e85dc50e94fbcc035fdc9b006fb"),
        ("eval", "timelike_general_helix", "json",
         "5e4bed09a4db2661e99b0821ca2978cece84fb4eaf2141fa80e4b7b527baee93"),
        ("eval", "timelike_general_helix", "csv",
         "75559209dc3a2fd21a83f2d4e6e971e046de91556deecadd9073fc0f09a93e64"),
        ("eval", "timelike_log_spiral", "json",
         "b0805cb75056ffc1597bf014a063216a3a3bae4c57696106aaec55ca11e9ca25"),
        ("eval", "timelike_log_spiral", "csv",
         "9599690e9507b5f578f4b22d30a1028380b58810a3b60f7a7ee9d273009991e4"),
        ("eval", "parabola", "json",
         "d5f52475d633b4910096c2b643365129e3499e860afc2a48db8bc4973a34b926"),
        ("eval", "parabola", "csv",
         "83567d7c0fcc36d0e571a5fd7949c568e4c288735821ee3712673ae05313a41c"),
        ("classify", "bertrand_helix", "json",
         "09d37273f37f361847308408d25d44b2062f311e34d17c2442eee64afe80a650"),
        ("classify", "bertrand_helix", "csv",
         "e826867c1e8f1a22492108c8dd001d3471bf1ed1ea1caa2f522b70e7dc488bbd"),
        ("classify", "timelike_general_helix", "json",
         "2c6149d99bdb3f381e9219e65bda5126735b4837c2c04b695da258a07f68d39f"),
        ("classify", "timelike_general_helix", "csv",
         "6afa94b659503ceab85f0345ff972b47c0a16b6b84bd13d787e8a46c8bcaee13"),
        ("classify", "timelike_log_spiral", "json",
         "5a1564b9e8bb6f5be89038584c74fc8775f5c8a088f4a1e15abccafacaefc595"),
        ("classify", "timelike_log_spiral", "csv",
         "906a0ca4b0240f95dd71b79645fcd54230371b54d5f5834820f9f06c02970f73"),
        ("classify", "parabola", "json",
         "1af70442870460f417f126e58eb4d1d68dd3352ad3520b458afd5e9412d315b9"),
        ("classify", "parabola", "csv",
         "d01ee6dc2a0d557219ff3319ab2845f9b0c86092695e0741cf0bd4ae4dff7823"),
        ("eval", "spacelike_general_helix", "csv",
         "376d01695045df25e536d27e5c0491e8fcab2026af7d79c07a94136e0dbc4853"),
        ("eval", "timelike_circular_helix", "csv",
         "659d1b9c1d6b595c35313ab7a194c4b92e7f1ffbd8ee8e9675094a2b9bd61554"),
        ("eval", "spacelike_circular_helix", "csv",
         "ebb020187fab8e13158c24c94a394d1574e14e089bbeed82ea7abc4a4ad3c799"),
        ("eval", "isotropic_circle", "csv",
         "e3738b1ca61a14d1cac823163337d3df69df1130147acb6b10c67f90daf99ed2"),
        ("classify", "spacelike_general_helix", "csv",
         "9e9cca4c22544624cbebaf3f6b8b890cd4a2d3b3e439c314d205eba34bc25f23"),
        ("classify", "timelike_circular_helix", "csv",
         "e5a46264cd62fc9a5210ca3c2079af715cab93fe12dcfc5b18fb14a2f9de18ee"),
        ("classify", "spacelike_circular_helix", "csv",
         "2a8919a79f07a5c7c19bd6750417e85b4c4143834742433e6103a113d4699667"),
        ("classify", "isotropic_circle", "csv",
         "9f8afc6922f56315569606b2f65f7438b57ba43431a866db889132167f1d953a"),
    ])
    def test_frozen_output_bits(self, capsys, parabola_csv, command, source,
                                fmt, digest):
        argv = _CURVE_ARGV.get(source) or (
            "--input", parabola_csv, "--grid", "-0.5:0.5:21")
        rc, out, _ = invoke(capsys, command, *argv, "--format", fmt)
        assert rc == 0
        out = out.replace(parabola_csv, "LATTICE")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # a tolerance between the scalar and the vector residual of a
    # condition, so that the span cross-check's mismatch diagnostics (and,
    # on the torsion-free spiral, its degenerate-point count) are output
    @pytest.mark.parametrize("argv, digest", [
        (("--curve", "timelike_log_spiral", "--grid", "0.5:3.5:21",
          "--tol", "1"),
         "572b1f42f42a3d72a7e82ec17191cd30807887036cb5b3a21f3d3fab077db11a"),
        (("--curve", "timelike_general_helix", "--a", "1", "--b", "2",
          "--grid", "0.2:1.8:21", "--tol", "1.1"),
         "4e22e98a164ecdd7096e34981bf4e3157e5fa8bf2aa7469c727d45a15073a88b"),
    ])
    def test_frozen_cross_check_bits(self, capsys, argv, digest):
        rc, out, _ = invoke(capsys, "classify", *argv, "--format", "json")
        assert rc == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert sum("fall on opposite sides of tol" in d
                   for d in diagnostics) == 5
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # a lattice whose x column is s + 0.25, and one far from s = 0
    @pytest.mark.parametrize("command, lattice, grid, digest", [
        ("eval", "shifted_csv", "-0.5:0.5:21",
         "0aaa91d86d8b3fe4122e7c4ef22609b27743be3c99fa7494212602fa33301e08"),
        ("classify", "shifted_csv", "-0.5:0.5:21",
         "eebda3eda36f9829c1bdf5d787fa7a281bc7ee97b332283a8e71314b35b999f2"),
        ("eval", "far_csv", "17430:18250:21",
         "198170c5af8cc93c3af55d5d15cf0695d9dafe47f51aa432f0441a32ca3d99cd"),
        ("classify", "far_csv", "17430:18250:21",
         "66fb4ce1ebfe76c0e4757c47b6d23f854a8c676e80a2e6e1821512e4bf6e4b10"),
    ])
    def test_frozen_lattice_bits(self, request, capsys, command, lattice,
                                 grid, digest):
        path = request.getfixturevalue(lattice)
        rc, out, _ = invoke(capsys, command, "--input", path, "--grid", grid)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestWorkCounts:
    """Jet bundles and orders per grid point of the CLI's eval and
    classify."""

    def test_eval_reads_each_stencil_point_once(self, helix_fixture,
                                                counting):
        # residual step 1e-4, grid spacing 0.09: s - h and s + h are off
        # the grid, so each point reads one bundle of its position and
        # orders 1-4, and one of the orders 1-2 at each neighbour (the
        # frames, nothing more)
        curve, calls = counting(helix_fixture.curve)
        grid = curve.grid(-0.9, 0.9, 21)
        _eval_rows(_Resolved(curve=curve, label="", params={}, grid=grid))
        assert len(calls.orders) == (1 + 4 + 2 * 2) * len(grid)
        assert len(set(calls.orders)) == len(calls.orders)
        high = sorted(s for s, k in calls.orders if k >= 3)
        assert high == sorted(grid + grid)
        assert len(calls.bundles) == 3 * len(grid)
        assert [b for b in calls.bundles if b[1] == 0] == \
            [(s, 0, 4) for s in grid]

    def test_eval_shares_neighbours_when_spacing_is_h(self, parabola,
                                                      counting):
        # dyadic lattice of spacing h/2 and a grid of spacing h: s + h is
        # the next grid point exactly, so each point reads its position
        # and orders 1-4 once, in one bundle; the two neighbours beyond
        # the grid's ends read orders 1-2 alone
        h = 2.0 ** -6
        grid = [k * h for k in range(-20, 21)]
        curve, calls = counting(make_lattice_curve(
            (s, *parabola.curve.position(s).as_tuple())
            for s in (-1.0 + i * h / 2 for i in range(257))))
        assert curve.nodes == (-1.0, h / 2)
        _eval_rows(_Resolved(curve=curve, label="", params={}, grid=grid))
        orders = [k for _, k in calls.orders]
        assert len(orders) == 5 * len(grid) + 2 * 2
        assert orders.count(3) == orders.count(4) == len(grid)
        assert len(calls.bundles) == len(grid) + 2

    def test_classify_sweeps_once(self, helix_fixture, counting):
        curve, calls = counting(helix_fixture.curve)
        grid = curve.grid(-0.9, 0.9, 21)
        report, nat = _classify(
            _Resolved(curve=curve, label="", params={}, grid=grid),
            argparse.Namespace(tol_class=None, tol_zero=1e-9,
                               tol_const=1e-6))
        assert nat.tag.value == "circular-helix"
        assert len(calls.orders) == 4 * len(grid)
        assert sorted({k for _, k in calls.orders}) == [1, 2, 3, 4]
        assert calls.bundles == [(s, 1, 4) for s in grid]

    @pytest.mark.parametrize("command", ["eval", "classify"])
    def test_lattice_sweeps_in_grid_calls(self, helix_csv, counting,
                                          monkeypatch, command):
        # the 257-row helix lattice, h = 2^-6 and grid spacing 0.08: eval
        # reads orders 0-4 at every grid point in one grid call and
        # orders 1-2 at each neighbour s -+ h in a second, in the order
        # the sweep first needs them; classify reads orders 1-4 once
        curve, calls = counting(_lattice_curve(helix_csv))
        grid_calls = []
        rows = CurveJet.rows

        def logged(c, points, first, last):
            grid_calls.append((len(points), first, last))
            return rows(c, points, first, last)

        monkeypatch.setattr(CurveJet, "rows", logged)
        grid = curve.grid(-0.8, 0.8, 21)
        res = _Resolved(curve=curve, label="", params={}, grid=grid)
        if command == "classify":
            _classify(res, argparse.Namespace(tol_class=None, tol_zero=1e-9,
                                              tol_const=1e-6))
            assert calls.bundles == [(s, 1, 4) for s in grid]
            # each call twice: the counted curve's and the lattice's
            assert grid_calls == [(len(grid), 1, 4)] * 2
            return
        _eval_rows(res)
        h = curve.residual_step
        assert curve.domain[0] < grid[0] - h and grid[-1] + h < \
            curve.domain[1]
        near = [t for s in grid for t in (s - h, s + h)]
        assert calls.bundles == [(s, 0, 4) for s in grid] + \
            [(curve.snap(t), 1, 2) for t in near]
        assert grid_calls == [(len(grid), 0, 4)] * 2 + \
            [(len(near), 1, 2)] * 2

    def test_eval_snaps_neighbours_on_a_non_dyadic_lattice(
            self, tmp_path, helix_fixture, counting):
        # spacing 0.01 and grid spacing h = 0.02: s + h, formed in floating
        # point, misses the next grid point by an ulp at some points unless
        # it is snapped onto the lattice
        path = write_lattice(tmp_path / "helix.csv", helix_fixture.curve,
                             -1.0, 0.01, 201)
        lattice = _lattice_curve(path)
        lo, hi = lattice.domain
        count = round((hi - lo) / (2 * lattice.nodes[1])) + 1
        grid = lattice.grid(lo, hi, count)
        assert len(grid) == count
        curve, calls = counting(lattice)
        _eval_rows(_Resolved(curve=curve, label="", params={}, grid=grid))
        assert len(calls.orders) == 5 * len(grid)
        assert calls.bundles == [(s, 0, 4) for s in grid]


@pytest.fixture(scope="module")
def cone_csv(tmp_path_factory, light_cone_crossing_curve):
    # y'' = s, z'' = 1: lightlike at s = 1, eps = -1 below and +1 above
    path = tmp_path_factory.mktemp("lattice") / "cone.csv"
    return write_lattice(path, light_cone_crossing_curve, 0.25, 2.0 ** -7,
                         225)


@pytest.fixture(scope="module")
def inflection_csv(tmp_path_factory):
    # (s, s^3/6, 0) on a lattice symmetric about 0: y'' = z'' = 0 at s = 0
    path = tmp_path_factory.mktemp("lattice") / "inflection.csv"
    path.write_text("s,x,y,z\n" + "".join(
        f"{s!r},{s!r},{s ** 3 / 6!r},0.0\n"
        for s in (-1.0 + i * 2.0 ** -7 for i in range(257))))
    return str(path)


@pytest.fixture(scope="module")
def line_csv(tmp_path_factory):
    # the straight line (s, 0, 0): an inflection at every point
    path = tmp_path_factory.mktemp("lattice") / "line.csv"
    path.write_text("s,x,y,z\n" + "".join(
        f"{s!r},{s!r},0.0,0.0\n" for s in (i * 2.0 ** -7 for i in range(257))))
    return str(path)


FLIP_MESSAGE = ("normal character flips near s={}; the curve crosses the "
                "light cone inside the difference stencil")
LIGHTLIKE_AT = "lightlike acceleration at s={}: y''^2 - z''^2 ~ 0"
LIGHTLIKE_AT_1 = LIGHTLIKE_AT.format("1")
INFLECTION_AT = "inflection point at s={}: second derivative vanishes"
INFLECTION_AT_0 = INFLECTION_AT.format("0")


class TestNeighbourFailures:
    """A failure at s - h or s + h, where eval and the public residuals
    read frames only, ends both with the same error and message.  Both
    read s first, so where s fails too, both name s."""

    @pytest.mark.parametrize("lattice, s, message", [
        ("cone_csv", 1 + 2 ** -7, FLIP_MESSAGE.format("1.00781")),
        ("cone_csv", 1 + 2 ** -6, LIGHTLIKE_AT_1),
        ("cone_csv", 1 - 2 ** -6, LIGHTLIKE_AT_1),
        ("inflection_csv", 2 ** -6, INFLECTION_AT_0),
        ("inflection_csv", -2 ** -6, INFLECTION_AT_0),
        ("line_csv", 1.0, INFLECTION_AT.format("1")),
    ])
    def test_lattice_neighbour(self, request, capsys, lattice, s, message):
        path = request.getfixturevalue(lattice)
        rc, out, err = invoke(capsys, "eval", "--input", path,
                              "--grid", f"{s!r}:{s!r}:1")
        assert (rc, out) == (3, "")
        doc = json.loads(err)
        assert (doc["error"], doc["message"]) == \
            ("InadmissibleCurveError", message)
        curve = _lattice_curve(path)
        for residual in (frenet_residual, equiform_residual):
            with pytest.raises(InadmissibleCurveError) as exc:
                residual(curve, s)
            assert str(exc.value) == message

    @pytest.mark.parametrize("s, message", [
        (1.00005, FLIP_MESSAGE.format("1.00005")),
        (1 + 1e-4, LIGHTLIKE_AT_1),
        (1 - 1e-4, LIGHTLIKE_AT_1),
    ])
    def test_function_backed_neighbour(self, light_cone_crossing_curve, s,
                                       message):
        curve = light_cone_crossing_curve
        res = _Resolved(curve=curve, label="", params={}, grid=[s])
        for run in (lambda: _eval_rows(res),
                    lambda: frenet_residual(curve, s),
                    lambda: equiform_residual(curve, s)):
            with pytest.raises(InadmissibleCurveError) as exc:
                run()
            assert str(exc.value) == message


class TestBertrandErrorOrder:
    """``bertrand`` sweeps the base whole before the mate, so the base's
    error is reported where both would raise.  The catalogue families
    keep one normal character, so the flip is read from a lattice."""

    @pytest.mark.parametrize("source, grid, lam, message", [
        (("--curve", "timelike_general_helix", "--a", "1", "--b", "6.2"),
         "1.9:2.04:8", "0.3", LIGHTLIKE_AT.format("1.92")),
        (("--input", "cone_csv"), "0.5:1.5:10", "-0.08",
         "normal character flips between s=0.5 and s=1.05469; the curve "
         "crosses the light cone"),
    ])
    def test_base_error_is_reported(self, request, capsys, source, grid,
                                    lam, message):
        if source[0] == "--input":
            source = ("--input", request.getfixturevalue(source[1]))
        rc, out, err = invoke(capsys, "bertrand", *source, "--grid", grid,
                              "--lambda", lam)
        assert (rc, out) == (3, "")
        doc = json.loads(err)
        assert (doc["error"], doc["message"]) == \
            ("InadmissibleCurveError", message)


def write_bad_row_lattice(path, curve, first, count, bad=None):
    """``count`` rows of ``curve`` at spacing 2^-7 from ``first``, with
    y of row i replaced by v where ``bad`` is (i, v)."""
    with open(path, "w") as fh:
        fh.write("s,x,y,z\n")
        for i in range(count):
            s = first + i * 2.0 ** -7
            p = curve.jet(s, 0)
            y = bad[1] if bad and i == bad[0] else p.x2
            fh.write(f"{s!r},{p.x1!r},{y!r},{p.x3!r}\n")
    return str(path)


class TestBatchErrorOrder:
    """A grid call that fails anywhere leaves the sweep to read point by
    point, so the first failure reported, status and message, is the one
    a point-by-point sweep meets.  A row of y = 1e308 makes the stencil
    sums that meet it overflow, 1e303 makes a jet non-finite, 1e300
    overflows only the admissibility test; the cone lattice flips its
    normal character at s = 1."""

    CASES = {
        "overflow": ("helix", -1.0, 257, (130, 1e308), "-0.9:0.9:101"),
        "non-finite": ("helix", -1.0, 257, (130, 1e303), "-0.9:0.9:101"),
        "kernel-overflow": ("helix", -1.0, 257, (130, 1e300),
                            "-0.9:0.9:101"),
        "flip": ("cone", 0.25, 225, None, "0.35:1.9:100"),
        "flip-then-overflow": ("cone", 0.25, 225, (200, 1e308),
                               "0.35:1.9:100"),
    }
    FINITE = ("ValueError", "PGVector components must be finite, got {}")
    FLIP_NEAR = ("InadmissibleCurveError", "normal character flips near "
                 "s=0.992188; the curve crosses the light cone inside the "
                 "difference stencil")

    @pytest.mark.parametrize("case, command, rc, error, message", [
        ("overflow", "eval", 2, *FINITE[:1], FINITE[1].format("inf")),
        ("overflow", "classify", 2, *FINITE[:1], FINITE[1].format("inf")),
        ("non-finite", "eval", 2, *FINITE[:1], FINITE[1].format("-inf")),
        ("non-finite", "classify", 2, *FINITE[:1], FINITE[1].format("-inf")),
        ("kernel-overflow", "eval", 2, "OverflowError",
         "y''^2 + z''^2 overflows at s=-0.015625"),
        ("kernel-overflow", "classify", 2, "OverflowError",
         "y''^2 + z''^2 overflows at s=-0.015625"),
        ("flip", "eval", 3, *FLIP_NEAR),
        ("flip", "classify", 3, "InadmissibleCurveError",
         "normal character flips between s=0.351562 and s=1.00781; the "
         "curve crosses the light cone"),
        # eval meets the flip before the bad row; classify sweeps every
        # point before its flip check, and meets the bad row first
        ("flip-then-overflow", "eval", 3, *FLIP_NEAR),
        ("flip-then-overflow", "classify", 2, *FINITE[:1],
         FINITE[1].format("-inf")),
    ])
    def test_first_failure_is_reported(self, tmp_path, capsys, helix_fixture,
                                       light_cone_crossing_curve, case,
                                       command, rc, error, message):
        name, first, count, bad, grid = self.CASES[case]
        curve = (helix_fixture.curve if name == "helix"
                 else light_cone_crossing_curve)
        path = write_bad_row_lattice(tmp_path / f"{case}.csv", curve, first,
                                     count, bad)
        got = invoke(capsys, command, "--input", path, "--grid", grid)
        assert got == (rc, "", json.dumps(
            {"schema": SCHEMA, "error": error, "message": message}) + "\n")


class TestPositionReads:
    """Lattice positions read per grid point of ``classify --input``."""

    # the same request reads 64.06 positions per point when every FD
    # order runs its own stencils (66.7 on average over the seven
    # families at their reference parameters)
    SEPARATE_STENCIL_READS = 64.06

    def test_classify_input_reads_half_the_positions(self, general_helix):
        # 2017 rows at half the spacing of the 1001-point grid, 8 rows
        # beyond each end, as the benchmark writes its lattices.  The
        # lattice curve reads its rows through the FD builder that
        # make_sampled_curve shares, so the sampled curve of a counting
        # position function over the same samples, at the lattice's
        # domain and step, makes the same reads and gives the same bits
        lo, hi = general_helix.domain
        delta = (hi - lo) / 2000
        samples = [(s, *general_helix.curve.position(s).as_tuple())
                   for s in (lo - 8 * delta + i * delta for i in range(2017))]
        lattice = make_lattice_curve(samples)
        first, spacing = lattice.nodes
        reads = []

        def position(t):
            reads.append(t)
            return PGVector(*samples[round((t - first) / spacing)][1:])

        curve = make_sampled_curve(position, lattice.domain, 2 * spacing)
        grid = lattice.grid(lo, hi, 1001)
        for s in (grid[0], grid[500], grid[-1]):
            assert curve.jets(s, 0, 4) == lattice.jets(s, 0, 4)
        reads.clear()
        _classify(_Resolved(curve=curve, label="", params={}, grid=grid),
                  argparse.Namespace(tol_class=None, tol_zero=1e-9,
                                     tol_const=1e-6))
        assert len(reads) / 1001 <= self.SEPARATE_STENCIL_READS / 2


class TestGridSource:
    """Every command reads its grid through ``CurveJet.grid``: a wrapped
    method that drops the last point shows in the output."""

    @pytest.fixture
    def grids(self, monkeypatch):
        calls = []
        grid = CurveJet.grid

        def last_dropped(curve, start, stop, count):
            calls.append((start, stop, count))
            return grid(curve, start, stop, count)[:-1]

        monkeypatch.setattr(CurveJet, "grid", last_dropped)
        return calls

    @pytest.mark.parametrize("command", ["eval", "classify", "bertrand"])
    @pytest.mark.parametrize("source", ["curve", "input"])
    def test_grid_commands(self, capsys, helix_csv, grids, command, source):
        src = (("--curve", "bertrand_helix") if source == "curve"
               else ("--input", str(helix_csv)))
        offset = ("--lambda", "0.3") if command == "bertrand" else ()
        rc, out, _ = invoke(capsys, command, *src, *offset,
                            "--grid", "-0.8:0.8:21", "--format", "json")
        assert rc == 0
        assert grids == [(-0.8, 0.8, 21)]
        doc = json.loads(out)
        assert doc["grid"]["points"] == 20
        if command == "eval":
            assert doc["rows"][-1][0] < 0.8

    def test_figure(self, capsys, grids):
        rc, out, _ = invoke(capsys, "figure", "1")
        assert rc == 0
        lo, hi = get_example("timelike_general_helix").domain
        assert grids == [(lo, hi, 256)]
        assert len(out.splitlines()) == 1 + 255


class TestFigure:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "fig_a.csv", tmp_path / "fig_b.csv"
        assert invoke(capsys, "figure", "3", "--out", str(a))[0] == 0
        assert invoke(capsys, "figure", "3", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[0] == "s,x,y,z"
        assert len(lines) == 257

    @pytest.mark.parametrize("number, name, params", [
        (1, "timelike_general_helix", (1.0, 2.0)),
        (5, "timelike_log_spiral", (1.0, 1.0)),
    ])
    def test_rows_roundtrip_to_positions(self, capsys, number, name, params):
        rc, out, _ = invoke(capsys, "figure", str(number))
        assert rc == 0
        entry = get_example(name, *params)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 256
        for row in rows[::17] + [rows[-1]]:
            s = float(row["s"])
            p = entry.curve.jet(s, 0)
            assert (float(row["x"]), float(row["y"]), float(row["z"])) == \
                (p.x1, p.x2, p.x3)

    def test_validation(self, capsys):
        assert invoke(capsys, "figure", "6")[0] == 2
        assert invoke(capsys, "figure", "1", "--format", "json")[0] == 2


class TestReportWriter:
    """Every command's report goes through one writer: the bytes of the
    commands no other pin reaches, and ``--out`` against stdout."""

    @pytest.mark.parametrize("argv, digest", [
        (("zoo-list",),
         "266df5d299d2dfdad1bb9148bb1a29a80c55738d1031108fe9177158d58f573d"),
        (("zoo-list", "--format", "json"),
         "94bfd247f1ecdcdfa5b5e5943321f28241c93f4c4fa2e6d97ce7574bc0045dad"),
        (("figure", "1"),
         "81f2d35c70c42335d357eab928eaf5772fba2795bdaebae67aaa4680915075d8"),
        (("figure", "2"),
         "ddf912954b9afe2905afc8bdbf29ec17b95c639734dd87c2a9fc5e0789490240"),
        (("figure", "3"),
         "678ec779f91ffd1f8faf07f909fc06a7f43d2018fe0363a7ffbe9416bff3b130"),
        (("figure", "4"),
         "f930f8f76b7257e65218ea0c3230d5d802258a2d653e70d3dea938cff83218c8"),
        (("figure", "5"),
         "d9ff9d3dc0d38e5f96a28bc528e78cddd6ddb4546d95a90840705ead234ccda3"),
    ])
    def test_frozen_output_bits(self, capsys, argv, digest):
        rc, out, _ = invoke(capsys, *argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, fmt", [
        (argv, fmt) for argv in [
            ("eval", "--curve", "isotropic_circle", "--grid", "-0.5:0.5:9"),
            ("classify", "--curve", "bertrand_helix", "--grid", "-0.5:0.5:9"),
            ("bertrand", "--curve", "bertrand_helix", "--grid", "-0.5:0.5:9",
             "--lambda", "0.3"),
            ("zoo-list",),
        ] for fmt in ("csv", "json")] + [(("figure", "4"), "csv")])
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, argv,
                                             fmt):
        rc, out, _ = invoke(capsys, *argv, "--format", fmt)
        assert rc == 0 and out
        target = tmp_path / f"report.{fmt}"
        assert invoke(capsys, *argv, "--format", fmt,
                      "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()


class TestReferenceDefaults:
    def test_every_family_runs_with_defaults(self, capsys):
        rc, out, _ = invoke(capsys, "zoo-list", "--format", "json")
        assert rc == 0
        names = [c["name"] for c in json.loads(out)["curves"]]
        assert names == list(REFERENCE_PARAMS)
        for name in names:
            lo, hi = get_example(name, *REFERENCE_PARAMS[name]).domain
            grid = f"{lo + 0.1 * (hi - lo)!r}:{hi - 0.1 * (hi - lo)!r}:11"
            for command in ("eval", "classify"):
                rc, out, err = invoke(capsys, command, "--curve", name,
                                      "--grid", grid, "--format", "json")
                assert (rc, err) == (0, ""), (command, name)
                assert json.loads(out)["params"]["a"] == \
                    REFERENCE_PARAMS[name][0]

    def test_explicit_parameters_override_the_defaults(self, capsys):
        argv = ("classify", "--curve", "timelike_general_helix",
                "--grid", "0.2:1.8:11", "--format", "json")
        _, default, _ = invoke(capsys, *argv)
        _, explicit, _ = invoke(capsys, *argv, "--a", "1", "--b", "2")
        _, other, _ = invoke(capsys, *argv, "--a", "1", "--b", "3")
        assert default == explicit
        assert json.loads(other)["params"] == {"a": 1.0, "b": 3.0}


def test_parser_is_built_once(capsys):
    # main reuses one argparse tree, which parsing leaves as it was
    argv = ("classify", "--curve", "bertrand_helix", "--grid", "0:1:5")
    first = invoke(capsys, *argv)
    assert invoke(capsys, "eval", "--bogus")[0] == 2
    assert invoke(capsys, *argv) == first
    assert _build_parser() is _build_parser()


def test_option_defaults_are_the_library_defaults():
    # a default the CLI restated would drift from the library's: the
    # tolerances come from the tier, the natural-class thresholds from
    # natural_class's signature
    parse = _build_parser().parse_args
    grid = ("--curve", "bertrand_helix", "--grid", "0:1:5")
    classify = parse(["classify", *grid])
    assert classify.tol_class is None
    assert parse(["bertrand", *grid, "--lambda", "1"]).tol_class is None
    params = inspect.signature(natural_class).parameters
    assert classify.tol_zero == params["tol_zero"].default
    assert classify.tol_const == params["tol_const"].default
    assert (JetKind.ANALYTIC.tolerance,
            JetKind.FINITE_DIFFERENCE.tolerance) == (1e-8, 1e-5)


class TestErrorExits:
    def test_unknown_curve(self, capsys):
        rc, _, err = invoke(capsys, "classify", "--curve", "nope",
                            "--grid", "0:1:11")
        assert rc == 2
        doc = json.loads(err)
        assert doc["schema"] == SCHEMA
        assert doc["error"] == "UnknownCurveError"

    def test_bad_parameters(self, capsys):
        rc, _, err = invoke(capsys, "eval", "--curve",
                            "timelike_general_helix", "--a", "0",
                            "--grid", "0:1:5")
        assert rc == 2
        assert json.loads(err)["error"] == "ParameterConstraintError"

    @pytest.mark.parametrize("source, error", [
        ("--curve", "UnknownCurveError"), ("--input", "FileNotFoundError")])
    def test_source_is_reported_before_the_grid_shape(self, capsys, tmp_path,
                                                      source, error):
        # the grid's shape is the curve's to check, so a bad source fails
        # first
        name = "nope" if source == "--curve" else str(tmp_path / "nope.csv")
        rc, _, err = invoke(capsys, "classify", source, name,
                            "--grid", "1:0:5")
        assert rc == 2
        assert json.loads(err)["error"] == error

    def test_grid_outside_domain(self, capsys):
        rc, _, err = invoke(capsys, "eval", "--curve", "bertrand_helix",
                            "--grid", "0:5:11")
        assert rc == 2
        assert "outside the curve domain" in json.loads(err)["message"]

    def test_malformed_grid(self, capsys):
        rc, _, err = invoke(capsys, "eval", "--curve", "bertrand_helix",
                            "--grid", "0:1")
        assert rc == 2
        assert "start:stop:count" in json.loads(err)["message"]

    def test_short_natural_class_grid(self, capsys):
        rc, _, err = invoke(capsys, "classify", "--curve", "bertrand_helix",
                            "--grid", "0:0.4:3")
        assert rc == 2
        assert "at least 5" in json.loads(err)["message"]

    @pytest.mark.parametrize("argv", [
        ("--curve", "timelike_general_helix", "--a", "-1000", "--b", "1",
         "--grid", "0:2:5"),
        ("--curve", "timelike_circular_helix", "--a", "1e200", "--b", "1",
         "--grid", "1:2:5"),
    ])
    def test_overflowing_parameters(self, capsys, argv):
        rejected(capsys, "eval", *argv)

    @pytest.mark.parametrize("name", zoo_names())
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_parameters(self, capsys, name, value):
        entry = get_example(name)
        lo, hi = entry.domain
        for option in ("--a", "--b")[:len(entry.params)]:
            rc, _, err = invoke(capsys, "eval", "--curve", name, option,
                                value, "--grid", f"{lo!r}:{hi!r}:5")
            assert rc == 2
            doc = json.loads(err)
            assert doc["error"] == "ParameterConstraintError"
            assert doc["message"].startswith("parameters must be finite, got")

    @pytest.mark.parametrize("grid", ["0:inf:5", "nan:1:5", "-inf:0.5:5",
                                      "inf:inf:1"])
    @pytest.mark.parametrize("source", ["curve", "input"])
    def test_non_finite_grid(self, capsys, helix_csv, source, grid):
        src = (("--curve", "bertrand_helix") if source == "curve"
               else ("--input", str(helix_csv)))
        rc, _, err = invoke(capsys, "classify", *src, "--grid", grid)
        assert rc == 2
        doc = json.loads(err)
        assert doc["error"] == "ValueError"
        assert doc["message"].startswith("grid start and stop must be finite")

    @pytest.mark.parametrize("command", ["eval", "classify"])
    @pytest.mark.parametrize("source", ["curve", "input"])
    def test_overflowing_grid_span(self, capsys, helix_csv, source, command):
        # finite ends whose difference overflows would make every point nan
        src = (("--curve", "bertrand_helix") if source == "curve"
               else ("--input", str(helix_csv)))
        assert rejected(capsys, command, *src,
                        "--grid", "-1e308:1e308:5") == \
            "grid span -1e+308:1e+308 overflows a double"

    @pytest.mark.parametrize("command", ["eval", "classify"])
    def test_input_grid_outside_the_usable_range(self, capsys, helix_csv,
                                                 command):
        # the lattice spans [-1, 1], so its curve domain is [-0.9375, 0.9375]
        # (8 spacings of 2^-7 in from each end); --curve rejects the same
        # grid against its own domain, by the same rule and message
        assert rejected(capsys, command, "--input", str(helix_csv),
                        "--grid", "5:6:11") == \
            "grid point 5 is outside the curve domain [-0.9375, 0.9375]"
        assert rejected(capsys, command, "--input", str(helix_csv),
                        "--grid", "-0.95:0.5:11") == \
            "grid point -0.95 is outside the curve domain [-0.9375, 0.9375]"
        assert "outside the curve domain" in rejected(
            capsys, command, "--curve", "bertrand_helix", "--grid", "5:6:11")

    def test_input_grid_within_half_a_spacing_is_clamped(self, capsys,
                                                         helix_csv):
        # -0.941 and 0.94 lie within half a spacing (2^-8) of the range
        # ends and snap onto them
        rc, out, _ = invoke(capsys, "eval", "--input", str(helix_csv),
                            "--grid", "-0.941:0.94:2", "--format", "json")
        assert rc == 0
        assert [row[0] for row in json.loads(out)["rows"]] == \
            [-0.9375, 0.9375]

    @pytest.mark.parametrize("offset", ["nan", "inf", "-inf"])
    def test_non_finite_offset(self, capsys, offset):
        assert rejected(capsys, "bertrand", "--curve", "bertrand_helix",
                        "--lambda", offset, "--grid", "-0.9:0.9:21") == (
            f"offset must be finite, got {float(offset)}")

    def test_overflowing_closed_form_names_its_point(self, capsys):
        # cosh(1000 s) leaves the double range for |s| > 0.71
        rc, _, err = invoke(capsys, "eval", "--curve", "bertrand_helix",
                            "--a", "0.01", "--b", "1000", "--grid", "-1:1:11")
        assert rc == 2
        assert json.loads(err)["error"] == "OverflowError"
        assert json.loads(err)["message"] == "math range error at s=-1"

    def test_overflowing_amplitude_names_its_order(self, capsys):
        # b^(k - 2) = 1e400 at order 0; classify reads orders 1-4 only
        argv = ("--curve", "bertrand_helix", "--a", "1", "--b", "1e-200",
                "--grid", "-0.5:0.5:5")
        assert rejected(capsys, "eval", *argv) == (
            "the order-0 amplitude a*b^(k-2) = 1*1e-200^-2 overflows at "
            "s=-0.5")
        assert invoke(capsys, "classify", *argv) == (0, (
            "condition,holds,sup_residual\n"
            "AW1,true,0\nAW2,true,0\nAW3,true,0\nWeakAW2,true,0\n"
            "WeakAW3,true,0\nnatural_class,isotropic-circle,\n"
            "diagnostic,5 grid points had a degenerate second span "
            "direction; the weak span-2 check used scalars only,\n"), "")

    @pytest.mark.parametrize("a", ["0.1", repr(1 / 6)])
    def test_circular_helix_without_a_default_domain(self, capsys, a):
        rc, _, err = invoke(capsys, "eval", "--curve",
                            "timelike_circular_helix", "--a", a, "--b", "2",
                            "--grid", "1:2:5")
        assert rc == 2
        doc = json.loads(err)
        assert doc["error"] == "ParameterConstraintError"
        assert doc["message"].startswith(
            "no default domain exists for a <= 1/6")

    def test_non_finite_internal_vector(self, capsys):
        # the parameters are finite; y''^2 + z''^2 overflows, which the
        # admissibility test reports as an overflow at s, not as a nan
        # or a light cone.  A span cross-check that overflows is stopped
        # by the finiteness check of an internal vector, at its point
        assert rejected(capsys, "classify", "--curve", "bertrand_helix",
                        "--a", "1e160", "--b", "1", "--grid", "0.5:1:5") == (
            "y''^2 + z''^2 overflows at s=0.5")
        assert rejected(capsys, "classify", "--curve", "timelike_log_spiral",
                        "--a", "1e100", "--b", "0.01", "--grid", "0:4:5") == (
            "PGVector components must be finite, got inf at s=0")

    def test_overflowing_span_residual_names_its_point(self, capsys):
        # T = b/a = 1e150, so omega^1.5 overflows in the scalar residuals
        # (eval never forms them); rho = 1e150 > 1 makes it an inflection
        argv = ("--curve", "bertrand_helix", "--a", "1e-150", "--b", "1",
                "--grid", "-0.5:0.5:5")
        rc, out, err = invoke(capsys, "classify", *argv)
        assert (rc, out) == (3, "")
        assert json.loads(err) == {
            "schema": SCHEMA, "error": "NumericalInflectionError",
            "message": "numerically an inflection: omega^1.5 overflows for "
                       "omega = 1e+300 at s=-0.5 (rho = 1e+150)"}
        assert invoke(capsys, "eval", *argv)[0] == 0

    def test_overflowing_span_coefficients_follow_the_overflow_rule(
            self, capsys):
        # T = b/a = 5e307: u and rho^4 overflow, so u/rho^4 reads inf/inf;
        # rho = 5e153 > 1 makes it an inflection, exit 3
        rc, out, err = invoke(capsys, "classify", "--curve", "bertrand_helix",
                              "--a", "2e-154", "--b", "1e154",
                              "--grid", "-1e-156:1e-156:5")
        assert (rc, out) == (3, "")
        assert json.loads(err) == {
            "schema": SCHEMA, "error": "NumericalInflectionError",
            "message": "numerically an inflection: the span coefficients "
                       "(-K/rho^3, T/rho^3, u/rho^4, v/rho^4) = (-0, 0, nan, "
                       "nan) overflow at s=-1e-156 (rho = 5e+153)"}

    @pytest.mark.parametrize("command, curve, a, s", [
        (("eval",), "isotropic_circle", "1e155", "-0.5"),
        (("classify",), "isotropic_circle", "1e155", "-0.5"),
        (("eval",), "bertrand_helix", "1e155", "-0.5"),
        (("classify",), "bertrand_helix", "1e155", "-0.5"),
        (("bertrand", "--lambda", "0.3"), "bertrand_helix", "1e155", "-0.832"),
        (("bertrand", "--lambda", "0.3"), "bertrand_helix", "1e154", "-0.832"),
    ])
    def test_overflowing_acceleration_is_not_a_light_cone(self, capsys,
                                                          command, curve, a,
                                                          s):
        # y''^2 + z''^2 = inf used to read as a lightlike acceleration
        # (exit 3) or let a nan through to an internal vector; the mate
        # probe meets it first at s = -0.832.  Each names s once
        rc, out, err = invoke(capsys, *command, "--curve", curve, "--a", a,
                              "--grid", "-0.5:0.5:5")
        assert (rc, out) == (2, "")
        assert json.loads(err) == {
            "schema": SCHEMA, "error": "OverflowError",
            "message": f"y''^2 + z''^2 overflows at s={s}"}

    @pytest.mark.parametrize("command", ["eval", "classify"])
    def test_overflow_with_a_small_rho_is_not_an_inflection(self, capsys,
                                                            command):
        # rho = 1e-154 here: an fsum of the series pass overflows, which is
        # no inflection, so it exits 2 naming s
        rc, out, err = invoke(capsys, command, "--curve", "bertrand_helix",
                              "--a", "1e154", "--grid", "-0.5:0.5:5")
        assert (rc, out) == (2, "")
        assert json.loads(err) == {
            "schema": SCHEMA, "error": "OverflowError",
            "message": "intermediate overflow in fsum at s=-0.5"}

    @pytest.mark.parametrize("curve", [("isotropic_circle",),
                                       ("bertrand_helix", "--b", "1")])
    def test_underflowing_rho4_names_its_point(self, capsys, curve):
        # kappa^2 = 1e180 is finite, so no admissibility or overflow rule
        # fires, but the span coefficients divide by rho^4 = 1e-360 -> 0;
        # eval and bertrand never divide by it
        argv = ("--curve", curve[0], "--a", "1e90", *curve[1:],
                "--grid", "-0.5:0.5:5")
        assert rejected(capsys, "classify", *argv) == (
            "the span coefficients divide by rho^4, which underflows to 0 "
            "(rho = 1e-90) at s=-0.5")
        assert invoke(capsys, "eval", *argv)[0] == 0
        assert invoke(capsys, "bertrand", "--lambda", "0.3", *argv)[0] == 0

    def test_underflowing_closed_form_names_its_point(self, capsys):
        # a * a underflows to 0 in the order-0 jet of the log spiral
        rc, out, err = invoke(capsys, "eval", "--curve", "timelike_log_spiral",
                              "--a", "1e-300", "--b", "1", "--grid", "0:4:5")
        assert (rc, out) == (2, "")
        assert json.loads(err) == {
            "schema": SCHEMA, "error": "ZeroDivisionError",
            "message": "float division by zero at s=0"}

    def test_extreme_parameter_sweep(self, capsys):
        # every family, command and (a, b) of the grid below: an error
        # names its point, or has a constraint or configuration class
        grids = {"timelike_circular_helix": "0.6:3:5",
                 "spacelike_circular_helix": "0.6:3:5",
                 "timelike_log_spiral": "0:4:5",
                 "timelike_general_helix": "0:2:5",
                 "spacelike_general_helix": "0:2:5"}
        unexplained = []
        for name in zoo_names():
            for a in ("1e-300", "1e-150", "1e-100", "1e-30", "1e-8", "0.5",
                      "3", "30", "180", "1e8", "1e100", "1e154", "1e155",
                      "1e160", "1e300", "-1e100", "-30", "-0.5"):
                for b in ("1", "0.01", "1e100", "-2"):
                    for command in (("eval",), ("classify",),
                                    ("bertrand", "--lambda", "0.3")):
                        argv = (*command, "--curve", name, "--a", a,
                                "--b", b, "--grid",
                                grids.get(name, "-0.5:0.5:5"))
                        rc, _, err = invoke(capsys, *argv)
                        if rc == 0:
                            continue
                        (line,) = err.splitlines()
                        doc = json.loads(line)
                        if not ("s=" in doc["message"]
                                or "grid point" in doc["message"]
                                or doc["error"] in ("ParameterConstraintError",
                                                    "ConfigError")):
                            unexplained.append((argv, doc))
        assert unexplained == []

    def test_extreme_parameters_fail_where_the_apparatus_does(self, capsys):
        # building a catalogue curve evaluates no jet, so the closed forms
        # are only read at grid points
        rc, out, err = invoke(capsys, "eval", "--curve",
                              "timelike_general_helix", "--a", "1", "--b",
                              "1000", "--grid", "0:2:11")
        doc = json.loads(err)
        assert (rc, out, doc["error"]) == (3, "", "InadmissibleCurveError")
        assert doc["message"].startswith("lightlike acceleration at s=0.2")
        rc, _, err = invoke(capsys, "eval", "--curve", "timelike_log_spiral",
                            "--a", "1e90", "--b", "1", "--grid", "0:4:11")
        assert (rc, err) == (0, "")

    def test_overflowing_offset_mean_names_its_quantity(self, capsys):
        # every recovered offset is about 1e308, so their sum overflows
        rc, out, err = invoke(capsys, "bertrand", "--curve",
                              "isotropic_circle", "--lambda", "1e308",
                              "--grid", "-1:1:11")
        assert (rc, out) == (2, "")
        assert json.loads(err) == {
            "schema": SCHEMA, "error": "OverflowError",
            "message": "the grid mean of the recovered offset overflows "
                       "(intermediate overflow in fsum)"}

    @pytest.mark.parametrize("a, s", [("180", "2"), ("200", "1.8")])
    @pytest.mark.parametrize("command", [
        ("eval",), ("classify",), ("bertrand", "--lambda", "0.3")])
    def test_overflow_names_its_point(self, capsys, command, a, s):
        # kappa = e^(-a s) is finite, but rho = 1/kappa leaves the double
        # range before s = 2
        rc, out, err = invoke(
            capsys, *command, "--curve", "timelike_general_helix",
            "--a", a, "--b", "1", "--grid", "0:2:21")
        error, prefix = "NumericalInflectionError", ""
        if command[0] == "bertrand" and a == "200":
            # the mate's admissibility probe meets it first, at its own s
            error, s = "MateInadmissibleError", "1.832"
            prefix = "offset 0.3 produces an inadmissible mate: "
        doc = json.loads(err)
        assert (rc, out, doc["error"]) == (3, "", error)
        assert doc["message"].startswith(
            f"{prefix}numerically an inflection: rho = 1/kappa overflows "
            f"at s={s} (")


def exits_cleanly(capsys, *argv) -> None:
    """Exit status 0, 2 or 3, with exactly one JSON stderr line when it
    is not 0; an exception escaping ``main`` fails the caller."""
    rc, _, err = invoke(capsys, *argv)
    assert rc in (0, 2, 3)
    if rc:
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["schema"] == SCHEMA


# capsys is drained by every invoke and the lattice file is rewritten by
# every example, so both fixtures can be shared across examples
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

LATTICE_ROWS = 40           # s = 0.02 i; the curve (s, s^2/2, s^3/6)

lattice_edits = st.one_of(
    st.tuples(st.sampled_from(["nan", "inf", "-inf", ""]),
              st.integers(0, LATTICE_ROWS - 1), st.integers(0, 3)),
    st.tuples(st.sampled_from(["short", "long", "duplicate", "drop"]),
              st.integers(0, LATTICE_ROWS - 1), st.integers(1, 3)),
)


class TestCommandLineFuzz:
    @FUZZ
    @given(edits=st.lists(lattice_edits, max_size=4),
           keep=st.one_of(st.just(LATTICE_ROWS), st.integers(0, 17)),
           command=st.sampled_from(["eval", "classify"]))
    # a value edit after a short edit of the same row
    @example(edits=[("short", 0, 1), ("nan", 0, 1)], keep=LATTICE_ROWS,
             command="eval")
    def test_mutated_lattice(self, tmp_path, capsys, edits, keep, command):
        rows = [[repr(v) for v in (s, s, s * s / 2, s ** 3 / 6)]
                for s in (0.02 * i for i in range(LATTICE_ROWS))]
        for kind, i, j in edits:
            i %= len(rows)
            if kind == "short":
                rows[i] = rows[i][:j]
            elif kind == "long":
                rows[i] = rows[i] + ["0"] * j
            elif kind == "duplicate":
                rows.insert(i, list(rows[i]))
            elif kind == "drop":
                del rows[i]
            elif j < len(rows[i]):      # a column the row still has
                rows[i][j] = kind
        path = tmp_path / "fuzz.csv"
        path.write_text("s,x,y,z\n" + "".join(",".join(r) + "\n"
                                              for r in rows[:keep]))
        exits_cleanly(capsys, command, "--input", str(path),
                      "--grid", "0.2:0.6:6")

    @FUZZ
    @given(name=st.sampled_from(zoo_names()),
           a=st.one_of(st.floats(), st.sampled_from([-1000.0, 1e200])),
           b=st.one_of(st.floats(), st.sampled_from([-1000.0, 1e200])),
           command=st.sampled_from(["eval", "classify", "bertrand"]))
    def test_curve_parameters(self, capsys, name, a, b, command):
        lo, hi = get_example(name, *REFERENCE_PARAMS[name]).domain
        offset = ["--lambda", "0.3"] if command == "bertrand" else []
        exits_cleanly(capsys, command, "--curve", name, f"--a={a!r}",
                      f"--b={b!r}", f"--grid={lo!r}:{hi!r}:5", *offset)


def test_module_entry_point():
    # the child interpreter finds the package on PYTHONPATH, whatever the
    # parent's sys.path holds
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, "-m", "pg_curvelab.cli", "zoo-list"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0
    assert len(res.stdout.strip().split("\n")) == 8
