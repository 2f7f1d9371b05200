"""One sha256 per request set over the CLI's outputs, to show that a
change leaves every output byte-identical.

    python3 tools/cli_digest.py

prints one line per set: its name, its request count and a sha256 taken
over each request's argv, exit status, stdout and stderr, in order, with
the directory of the written lattices read as ``$LATTICES``.  Run it in
two checkouts and compare the lines.  The sets are

``cycle``
    the distinct requests of the benchmark cycles of seeds 1 and 11, all
    three workloads (``bench/workload.py``);
``bertrand-input``
    ``bertrand --input`` on the 14 lattices of those seeds, on 21- and
    101-point grids over the family domain, at the seed's offset and at 1;
``figure-zoo``
    ``figure 1``-``5`` and ``zoo-list``, each in csv and json.

The requests run in this interpreter through ``pg_curvelab.cli.main``,
with the package taken from this checkout's ``src``.  Standard library
only; ``bench/workload.py`` is imported, never changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workload  # noqa: E402
from pg_curvelab.cli import main as cli_main  # noqa: E402

SEEDS = (1, 11)
BERTRAND_POINTS = (21, 101)


def request_sets(workdir: str) -> dict[str, list[list[str]]]:
    """The three request sets, with each seed's lattices written into a
    directory of its own under ``workdir``."""
    cycle: list[list[str]] = []
    mates = []
    for seed in SEEDS:
        sub = os.path.join(workdir, f"seed{seed}")
        os.mkdir(sub)
        families = workload.make_families(seed, sub)
        for name in workload.WORKLOADS:
            for argv in (req.argv() for req in
                         workload.make_cycle(name, families, seed)):
                if argv not in cycle:
                    cycle.append(argv)
        mates += [["bertrand", "--input", fam.lattice,
                   "--grid", fam.grid_arg(points), "--lambda", repr(lam)]
                  for fam in families.values()
                  for points in BERTRAND_POINTS for lam in (fam.lam, 1.0)]
    commands = [["figure", str(n)] for n in range(1, 6)] + [["zoo-list"]]
    figure_zoo = [[*cmd, "--format", fmt] for cmd in commands
                  for fmt in ("csv", "json")]
    return {"cycle": cycle, "bertrand-input": mates, "figure-zoo": figure_zoo}


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:     # argparse's own exits
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def digest(argvs: list[list[str]], workdir: str) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        rc, out, err = run(argv)
        record = [[a.replace(workdir, "$LATTICES") for a in argv], rc,
                  out.replace(workdir, "$LATTICES"),
                  err.replace(workdir, "$LATTICES")]
        h.update(json.dumps(record).encode() + b"\n")
    return h.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        for name, argvs in request_sets(workdir).items():
            print(f"{name} {len(argvs)} {digest(argvs, workdir)}")


if __name__ == "__main__":
    main()
