"""Command-line interface: outputs, validation, exit codes, lattice input."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pg_curvelab import cli
from pg_curvelab.cli import (
    SCHEMA,
    ConfigError,
    _classify,
    _eval_rows,
    _grid_points,
    _lattice_curve,
    _merge_option_values,
    _parse_grid,
    _Resolved,
    _snap_grid,
    main,
)
from pg_curvelab.curves import CurveJet, make_sampled_curve
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


class TestConfigValidation:
    """Each rule on the command line, through ``main``: the rules
    argparse cannot state keep their exact messages, the ones argparse
    enforces name the option."""

    CURVE = ("--curve", "isotropic_circle")

    def test_commands_and_formats(self, capsys):
        assert invoke(capsys, "zoo-list")[0] == 0
        assert "frobnicate" in rejected(capsys, "frobnicate")
        assert "--format" in rejected(capsys, "zoo-list", "--format", "yaml")

    def test_tolerances_must_be_positive(self, capsys):
        grid = ("--grid", "0:1:5")
        assert rejected(capsys, "classify", *self.CURVE, *grid,
                        "--tol-zero", "0") == \
            "tol_zero must be positive, got 0.0"
        assert rejected(capsys, "classify", *self.CURVE, *grid,
                        "--tol=-1e-8") == \
            "tol_class must be positive, got -1e-08"
        assert rejected(capsys, "eval", *self.CURVE, *grid,
                        "--tol-const=-1") == \
            "tol_const must be positive, got -1.0"

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
            "grid must be start:stop:count, got '0:1'"
        assert rejected(capsys, "eval", *self.CURVE, "--grid", "a:b:c") \
            .startswith("bad grid 'a:b:c': ")

    def test_curve_source_is_exclusive(self, capsys):
        message = "exactly one of --curve and --input is required"
        assert rejected(capsys, "eval", "--grid", "0:1:5") == message
        assert rejected(capsys, "eval", *self.CURVE, "--input", "x.csv",
                        "--grid", "0:1:5") == message

    def test_grid_required(self, capsys):
        assert "--grid" in rejected(capsys, "classify", *self.CURVE)

    def test_bertrand_needs_offset(self, capsys):
        assert "--lambda" in rejected(capsys, "bertrand", "--curve",
                                      "bertrand_helix", "--grid",
                                      "-0.5:0.5:9")

    def test_figure_constraints(self, capsys):
        assert invoke(capsys, "figure", "3")[0] == 0
        assert rejected(capsys, "figure", "6") == \
            "figure number must be between 1 and 5"
        assert rejected(capsys, "figure", "1", "--format", "json") == \
            "the figure command only emits csv"


class TestArgvHelpers:
    def test_parse_grid(self):
        assert _parse_grid("0:1:11") == (0.0, 1.0, 11)
        assert _parse_grid("-1.5:2.5:3") == (-1.5, 2.5, 3)
        with pytest.raises(ConfigError, match="start:stop:count"):
            _parse_grid("0:1")
        with pytest.raises(ConfigError, match="bad grid"):
            _parse_grid("a:b:c")

    def test_merge_grid_value(self):
        argv = ["classify", "--grid", "-1:1:5", "--format", "json"]
        assert _merge_option_values(argv) == \
            ["classify", "--grid=-1:1:5", "--format", "json"]
        assert _merge_option_values(["zoo-list"]) == ["zoo-list"]
        assert _merge_option_values(["eval", "--grid"]) == ["eval", "--grid"]

    def test_merge_float_option_values(self):
        # a float option is joined only with a token that reads as a float
        assert _merge_option_values(
            ["eval", "--a", "-1e-3", "--b", "2", "--tol-zero", "-1E-9"]) == \
            ["eval", "--a=-1e-3", "--b=2", "--tol-zero=-1E-9"]
        assert _merge_option_values(["bertrand", "--lambda", "-.5"]) == \
            ["bertrand", "--lambda=-.5"]
        assert _merge_option_values(["eval", "--a", "--grid", "0:1:5"]) == \
            ["eval", "--a", "--grid=0:1:5"]
        assert _merge_option_values(["eval", "--curve", "-1e-3"]) == \
            ["eval", "--curve", "-1e-3"]

    def test_grid_points(self):
        assert _grid_points((0.5, 0.5, 1)) == [0.5]
        pts = _grid_points((0.0, 1.0, 5))
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
            "tol_class must be positive, got -1e-08"

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

    def test_short_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        with open(path, "w") as fh:
            fh.write("s,x,y,z\n")
            for i in range(10):
                fh.write(f"{0.1 * i},{0.1 * i},{0.005 * i * i},0\n")
        rc, _, err = invoke(capsys, "classify", "--input", str(path),
                            "--grid", "0:1:5")
        assert rc == 2
        assert "at least 18 samples" in json.loads(err)["message"]

    def test_nonuniform_lattice_rejected(self, tmp_path, capsys):
        path = tmp_path / "jitter.csv"
        with open(path, "w") as fh:
            fh.write("s,x,y,z\n")
            for i in range(25):
                s = 0.1 * i + (1e-4 if i == 7 else 0.0)
                fh.write(f"{s},{s},{0.05 * s * s},0\n")
        rc, _, err = invoke(capsys, "classify", "--input", str(path),
                            "--grid", "1:1.5:7")
        assert rc == 2
        # the jittered sample is the 8th data row, on file line 9
        message = json.loads(err)["message"]
        assert "uniform lattice" in message
        assert "(line 9 is off by more than 1e-9)" in message

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
        # row 20 of 40 (file line 22, after the header) has y = nan
        path = tmp_path / "nan.csv"
        rows = [[repr(v) for v in (s, s, s * s / 2, s ** 3 / 6)]
                for s in (0.02 * i for i in range(40))]
        rows[20][2] = "nan"
        path.write_text("s,x,y,z\n" + "".join(",".join(r) + "\n"
                                              for r in rows))
        assert rejected(capsys, command, "--input", str(path),
                        "--grid", "0.2:0.6:6") == \
            f"{path}: line 22 has a non-finite value"

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

    def test_sparse_grid_rejected(self, capsys):
        rc, _, err = invoke(capsys, "bertrand", "--curve", "bertrand_helix",
                            "--lambda", "1", "--grid", "-0.9:0.9:4")
        assert rc == 2
        assert "at least 5 grid points" in json.loads(err)["message"]

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
    timelike normal (epsilon = -1), which no other pin reaches."""

    @pytest.mark.parametrize("command, source, fmt, digest", [
        ("eval", "bertrand_helix", "json",
         "82cb16d3ac069bd1b924e49ee680933904fb516eb14c1bfe29573233ea80c276"),
        ("eval", "bertrand_helix", "csv",
         "5722ca7d85405cc67c2d76e20dd0e9d30d260e333e08e9863d5a9b2bdaa7a493"),
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
         "fd38571b75e19895b20162131550918ca3b48675cc527fa99104f9ee4965f726"),
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


def counted(curve):
    """The same curve, recording the order of every jet evaluation."""
    calls = []

    def jet_fn(s, order):
        calls.append(order)
        return curve.jet(s, order)

    return CurveJet(jet_fn, curve.domain, curve.kind,
                    max_order=curve.max_order, warnings=curve.warnings), calls


class TestWorkCounts:
    """Jet evaluations per grid point of the CLI's eval and classify."""

    def test_eval_reads_each_stencil_point_once(self, helix_fixture):
        # residual step 1e-4, grid spacing 0.09: s - h and s + h are off
        # the grid, so each point needs its position and three bundles
        curve, calls = counted(helix_fixture.curve)
        grid = _grid_points((-0.9, 0.9, 21))
        _eval_rows(_Resolved(curve=curve, label="", params={}, grid=grid))
        assert len(calls) <= (1 + 3 * 4) * len(grid)

    def test_eval_shares_neighbours_when_spacing_is_h(self, parabola):
        # dyadic grid of spacing h: s + h is the next grid point exactly,
        # so after the first point each point reads its position and the
        # bundle at s + h only
        h = 2.0 ** -6
        grid = [k * h for k in range(-20, 21)]
        curve, calls = counted(parabola.curve)
        _eval_rows(_Resolved(curve=curve, label="", params={}, grid=grid,
                             residual_h=h))
        assert len(calls) <= (1 + 3 * 4) + 5 * (len(grid) - 1)

    def test_classify_sweeps_once(self, helix_fixture):
        curve, calls = counted(helix_fixture.curve)
        grid = _grid_points((-0.9, 0.9, 21))
        report, nat = _classify(
            _Resolved(curve=curve, label="", params={}, grid=grid),
            argparse.Namespace(tol_class=None, tol_zero=1e-9,
                               tol_const=1e-6))
        assert nat.tag.value == "circular-helix"
        assert len(calls) == 4 * len(grid)
        assert sorted(set(calls)) == [1, 2, 3, 4]

    def test_eval_snaps_neighbours_on_a_non_dyadic_lattice(
            self, tmp_path, helix_fixture):
        # spacing 0.01 and grid spacing h = 0.02: s + h, formed in floating
        # point, misses the next grid point by an ulp at some points unless
        # it is snapped onto the lattice
        path = write_lattice(tmp_path / "helix.csv", helix_fixture.curve,
                             -1.0, 0.01, 201)
        lattice, delta, snap = _lattice_curve(path)
        lo, hi = lattice.domain
        count = round((hi - lo) / (2 * delta)) + 1
        grid = _snap_grid(_grid_points((lo, hi, count)), snap, lattice.domain)
        assert len(grid) == count
        curve, calls = counted(lattice)
        _eval_rows(_Resolved(curve=curve, label="", params={}, grid=grid,
                             residual_h=2 * delta, snap=snap))
        assert len(calls) <= (1 + 3 * 4) + 5 * (len(grid) - 1)


class TestPositionReads:
    """Lattice positions read per grid point of ``classify --input``."""

    # the same request reads 64.06 positions per point when every FD
    # order runs its own stencils (66.7 on average over the seven
    # families at their reference parameters)
    SEPARATE_STENCIL_READS = 64.06

    def test_classify_input_reads_half_the_positions(
            self, tmp_path, monkeypatch, capsys, general_helix):
        # 2017 rows at half the spacing of the 1001-point grid, 8 rows
        # beyond each end, as the benchmark writes its lattices
        lo, hi = general_helix.domain
        delta = (hi - lo) / 2000
        path = write_lattice(tmp_path / "helix.csv", general_helix.curve,
                             lo - 8 * delta, delta, 2017)
        reads = []

        def counting(position, domain, h=None):
            def counted(s):
                reads.append(s)
                return position(s)
            return make_sampled_curve(counted, domain, h=h)

        monkeypatch.setattr(cli, "make_sampled_curve", counting)
        rc, _, _ = invoke(capsys, "classify", "--input", path,
                          "--grid", f"{lo!r}:{hi!r}:1001")
        assert rc == 0
        assert len(reads) / 1001 <= self.SEPARATE_STENCIL_READS / 2


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
        assert doc["error"] == "ConfigError"
        assert doc["message"].startswith("grid start and stop must be finite")

    @pytest.mark.parametrize("offset", ["nan", "inf", "-inf"])
    def test_non_finite_offset(self, capsys, offset):
        assert rejected(capsys, "bertrand", "--curve", "bertrand_helix",
                        "--lambda", offset, "--grid", "-0.9:0.9:21") == (
            f"offset must be finite, got {float(offset)}")

    def test_non_finite_internal_vector(self, capsys):
        # the parameters are finite; the apparatus overflows to nan, and only
        # the finiteness check of an internal vector stops it
        assert rejected(capsys, "classify", "--curve", "bertrand_helix",
                        "--a", "1e160", "--b", "1", "--grid", "0.5:1:5") == (
            "PGVector components must be finite, got nan")


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
    res = subprocess.run([sys.executable, "-m", "pg_curvelab.cli", "zoo-list"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert len(res.stdout.strip().split("\n")) == 8
