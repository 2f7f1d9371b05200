"""``tools/cli_digest.py``: its request sets and its path-free digest.

The ``cycle`` digest runs 204 requests, so it is run by hand, not here;
these tests keep the tool working against ``bench/workload`` and the
CLI, pin the ``bertrand-input`` (56 requests) and ``figure-zoo`` (12
requests) digests and the verdicts of some ``bertrand-input`` requests.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"


@pytest.fixture(scope="module")
def cli_digest():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    path = sys.path[:]
    try:
        spec.loader.exec_module(module)
    finally:        # the tool puts src and bench first on the path
        sys.path[:] = path
    return module


def test_request_sets(cli_digest, tmp_path):
    sets = cli_digest.request_sets(str(tmp_path))
    assert {name: len(argvs) for name, argvs in sets.items()} == {
        "cycle": 204, "bertrand-input": 56, "figure-zoo": 12}
    cycle = sets["cycle"]
    assert len({tuple(argv) for argv in cycle}) == len(cycle)
    for argv in sets["bertrand-input"]:
        assert argv[:2] == ["bertrand", "--input"]
        assert argv[2].startswith(str(tmp_path))


def test_figure_zoo_digest(cli_digest, tmp_path):
    # figures 1-5 and zoo-list, csv and json: no lattice is read
    argvs = cli_digest.request_sets(str(tmp_path))["figure-zoo"]
    assert cli_digest.digest(argvs, str(tmp_path)) == (
        "53e5ec9e28ed7bd00080fe6654888e51f39ceeef09f3c8222aa03661ecd2b092")


def test_bertrand_input_digest(cli_digest, tmp_path):
    # mates of the 14 lattices of seeds 1 and 11: every base jet is read
    # from a lattice by index
    argvs = cli_digest.request_sets(str(tmp_path))["bertrand-input"]
    assert cli_digest.digest(argvs, str(tmp_path)) == (
        "aa3c76b73b5bef152417edcdae8ead8bbb6083cf022583b737ec5e1440474f28")


def test_run_captures_argparse_exits(cli_digest):
    rc, out, err = cli_digest.run(["figure", "6"])
    assert (rc, out) == (2, "")
    assert json.loads(err)["message"] == \
        "argument N: invalid choice: 6 (choose from 1, 2, 3, 4, 5)"
    rc, _, err = cli_digest.run(["eval", "--curve", "bertrand_helix",
                                 "--grid", "0:1:5", "--bad"])
    assert rc == 2 and "unrecognized arguments" in err


def test_digest_reads_the_lattice_directory_as_a_placeholder(cli_digest,
                                                            tmp_path):
    # the missing file's path is in the argv and in the error message
    hashes = []
    for name in ("one", "two"):
        workdir = tmp_path / name
        workdir.mkdir()
        argv = ["eval", "--input", str(workdir / "x.csv"), "--grid", "0:1:5"]
        hashes.append(cli_digest.digest([argv], str(workdir)))
    assert hashes[0] == hashes[1]
    assert cli_digest.digest([["figure", "6"]], str(tmp_path)) != hashes[0]


@pytest.fixture(scope="module")
def bertrand_input(cli_digest, tmp_path_factory):
    """The ``bertrand-input`` requests, keyed by (seed directory, family,
    points, offset)."""
    workdir = str(tmp_path_factory.mktemp("digest"))
    return {(Path(argv[2]).parent.name, Path(argv[2]).stem,
             int(argv[4].rsplit(":", 1)[1]), argv[6]): argv
            for argv in cli_digest.request_sets(workdir)["bertrand-input"]}


NATURES = {"bertrand_helix": "circular-helix",
           "isotropic_circle": "isotropic-circle"}


def test_bertrand_family_lattices_pair(cli_digest, bertrand_input):
    # the paper's theorem on sampled curves: every mate request over a
    # circular-helix or isotropic-circle lattice, seeds 1 and 11, 21 and
    # 101 points, the seed's offset and 1, is a pair of its nature
    requests = {key: argv for key, argv in bertrand_input.items()
                if key[1] in NATURES}
    assert len(requests) == 16
    for (_, family, points, _), argv in requests.items():
        rc, out, err = cli_digest.run([*argv, "--format", "json"])
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        pair = doc["bertrand"]
        assert pair["is_pair"] is True, (argv, pair["failures"])
        assert pair["nature"] == NATURES[family]
        # the mate keeps the base's domain, so every grid point is verified
        assert doc["grid"]["points"] == points
        assert pair["curvature_flatness_sup"] <= 2e-6


def test_other_family_lattices_do_not_pair(cli_digest, bertrand_input):
    # one request per other family: seed 1, 21 points, the seed's offset
    requests = [argv for (seed, family, points, lam), argv
                in bertrand_input.items() if family not in NATURES
                and (seed, points) == ("seed1", 21) and lam != "1.0"]
    assert len(requests) == 5
    for argv in requests:
        rc, out, err = cli_digest.run([*argv, "--format", "json"])
        assert (rc, err) == (0, "")
        pair = json.loads(out)["bertrand"]
        assert pair["is_pair"] is False, argv
        assert pair["nature"] == "not-bertrand"
