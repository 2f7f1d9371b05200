"""``tools/cli_digest.py``: its request sets and its path-free digest.

The full digest runs every request (≈ 20 s), so it is run by hand, not
here; these tests only keep the tool working against ``bench/workload``
and the CLI.
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
