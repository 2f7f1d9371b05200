"""pg-curvelab benchmark: the CLI driven in-process as a closed loop.

Usage (from the repository root)::

    python3 bench/run.py --workload zoo_analytic --seed 1 --seconds 20 --trace 0

One client, one process, one thread: each request goes to
``pg_curvelab.cli.main(argv)`` after the previous one returned, and every
output is checked (see ``checks.py``).  Workloads are described in
``workload.py`` and ``README.md``.  The run repeats the workload's request
cycle a whole number of times, as many as fit ``--seconds`` by the time of
the first cycle, and at least enough for 100 requests.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays every
request through the library with spans and counters (``tracing.py``) and
prints the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

MIN_REQUESTS = 100          # so that p90 has at least ten requests beyond it
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
SETUP_REPEATS = 5
FIXED_REPEATS = 15
EPS = 2.220446049250313e-16     # floor of the oracle error, so digits stay finite


def _load_package():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "pg_curvelab" / "cli.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'pg_curvelab'}")
    sys.path.insert(0, str(SRC))
    from pg_curvelab import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: imported pg_curvelab from {cli.__file__}")
    return cli


cli = _load_package()

import checks  # noqa: E402  (needs the package on sys.path)
import tracing  # noqa: E402
import workload  # noqa: E402
from speedprobe import PROBE_REF_S, measure, speed_probe  # noqa: E402


def send(argv: list[str]) -> tuple[int, str, float]:
    """One in-process CLI request: (exit status, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:       # argparse rejects with exit 2
            status = exc.code if isinstance(exc.code, int) else 1
    return status, out.getvalue(), perf_counter() - t0


# Interpreter start-up is left out: the package cannot change it.
_SETUP_CODE = """
from time import perf_counter
from speedprobe import rescale, speed_probe
before = speed_probe()
t0 = perf_counter()
import pg_curvelab.cli
dt = perf_counter() - t0
print(dt, dt * rescale(before, speed_probe()))
"""


def setup_seconds() -> tuple[float, float]:
    """Median (wall, reference-speed) seconds a fresh interpreter takes to
    import ``pg_curvelab.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(ROOT / "bench"), env.get("PYTHONPATH")) if p)
    runs = [subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env,
                           cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.split()
            for _ in range(SETUP_REPEATS)]
    return (statistics.median(float(r[0]) for r in runs),
            statistics.median(float(r[1]) for r in runs))


def run_cycles(cycle, seconds: float, min_requests: int, one) -> int:
    """Run ``one(request)`` over whole cycles; returns the cycle count."""
    t0 = perf_counter()
    for req in cycle:
        one(req)
    first = perf_counter() - t0
    total = max(math.ceil(min_requests / len(cycle)), round(seconds / first), 1)
    for _ in range(total - 1):
        for req in cycle:
            one(req)
    return total


def probes(fams: dict) -> tuple[int, int, list[str]]:
    """Known defects, sent once per run outside the timed mix: the
    FD-fallback mate of every lattice, and the default (a, b) = (1, 1)
    of timelike_general_helix.  Each probe fails while the defect is
    there."""
    argvs = [["bertrand", "--input", f.lattice, "--lambda", repr(f.lam),
              "--grid", f.grid_arg(workload.SPARSE)] for f in fams.values()]
    argvs.append(["classify", "--curve", "timelike_general_helix",
                  "--grid", "0:2:101"])
    failed = []
    for argv in argvs:
        status, _, _ = send(argv)
        if status != 0:
            failed.append(f"{' '.join(argv[:2])} {Path(argv[2]).stem}: "
                          f"exit {status}")
    return len(argvs), len(failed), failed


def quantile(values: list[float], p: float) -> float:
    return statistics.quantiles(values, n=1000,
                                method="inclusive")[round(p * 10) - 1]


# ---------------------------------------------------------------------------


def end_to_end(cycle, seconds: float) -> dict:
    records = []

    def one(req):
        (status, text, _), dt, ref_dt, attempts = measure(
            lambda: send(req.argv()))
        wall.append(dt)
        retried.append(attempts - 1)
        outcome = checks.check(req, status, text)
        outcome.values = []     # only the replay needs them; keeps RSS flat
        records.append((req, ref_dt, outcome))

    wall: list[float] = []
    retried: list[int] = []
    cycles = run_cycles(cycle, seconds, MIN_REQUESTS, one)
    lat = [dt for _, dt, _ in records]
    n = len(lat)
    failed = [o for _, _, o in records if not o.ok]
    verdicts = [o.verdict_match for _, _, o in records
                if o.verdict_match is not None]
    err = max((o.oracle_err for _, _, o in records
               if o.oracle_err is not None), default=1.0)
    tail_p = next(p for p in TAIL_LADDER if n * (1 - p / 100) >= 10)
    info = {
        "requests": n, "cycles": cycles, "request_seconds": sum(lat),
        "retried": sum(1 for r in retried if r), "resent": sum(retried),
        "tail_percentile": tail_p,
        "wall_p50": statistics.median(wall),
        "wall_tail": quantile(wall, tail_p),
        "oracle_err_max": err,
        "failed_share": len(failed) / n,
        "verdict_mismatch_share": (verdicts.count(False) / len(verdicts)
                                   if verdicts else 0.0),
    }
    metrics = {
        "points_per_s": (sum(o.points for _, _, o in records if o.ok)
                         / sum(lat), "1/s"),
        "request_s.p50": (statistics.median(lat), "s"),
        "request_s.tail": (quantile(lat, tail_p), "s"),
        "ok_share": (1.0 - info["failed_share"], "ratio"),
        "verdict_agreement_share": (1.0 - info["verdict_mismatch_share"],
                                    "ratio"),
        "oracle_err.digits": (-math.log10(max(err, EPS)), "digits"),
    }
    return {"metrics": metrics, "info": info, "attempted": n,
            "failed": len(failed), "problems": [o.problem for o in failed]}


def per_layer(cycle, seconds: float, fams: dict) -> dict:
    tr = tracing.Tracer()
    summary = tracing.Summary()
    results = {"attempted": 0, "failed": 0, "mismatch": 0, "problems": []}

    def one(req):
        status, text, dt = send(req.argv())
        outcome = checks.check(req, status, text)
        tr.request_id += 1
        before = tracing.snapshot(tr)
        speeds.append(speed_probe())
        values = tr.call("request", tracing.replay, tr, req)
        summary.cli_seconds += dt
        summary.add(tr, req.command, outcome.points, before)
        results["attempted"] += 1
        if not outcome.ok:
            results["failed"] += 1
            results["problems"].append(outcome.problem)
        elif not tracing.same_values(values, outcome.values):
            results["mismatch"] += 1
            results["problems"].append(f"replay differs: {req.label()}")

    speeds: list[float] = []
    cycles = run_cycles(cycle, seconds, 1, one)
    # one factor for the whole run: the spans are not bracketed one by one
    scale = PROBE_REF_S / statistics.median(speeds)
    metrics = {name: (value * scale if unit in ("s", "us") else value, unit)
               for name, (value, unit) in
               tracing.layer_metrics(tr, summary).items()}
    fixed = fams["bertrand_helix"]
    for source, args in (("curve", fixed.curve_args()),
                         ("input", ["--input", fixed.lattice])):
        times = []
        for _ in range(FIXED_REPEATS):
            (status, text, _), _, ref_dt, _ = measure(
                lambda: send(["eval", *args, "--grid", "0.0:0.0:1"]))
            if status != 0 or len(text.splitlines()) != 2:
                results["failed"] += 1
                results["problems"].append(f"single-point eval --{source}")
            times.append(ref_dt)
        metrics[f"cli.fixed_request_s.{source}"] = (
            statistics.median(times), "s")
    metrics.update(tracing.microbenchmarks())
    metrics["trace.replay_mismatches"] = (results["mismatch"], "count")
    results.update(metrics=metrics, cycles=cycles, scale=scale,
                   spans=tracing.span_table(tr),
                   roadmap=tracing.roadmap_check(tr, summary))
    return results


# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix="lattices-") as tmp:
        fams = workload.make_families(args.seed, tmp)
        cycle = workload.make_cycle(args.workload, fams, args.seed)
        print(f"workload {args.workload} seed {args.seed}: "
              f"{len(cycle)} requests per cycle")
        for name, f in fams.items():
            print(f"  {name}: a={f.a} b={f.b} lambda={f.lam}")
        if args.trace:
            res = per_layer(cycle, args.seconds, fams)
        else:
            setup_wall, setup = setup_seconds()
            res = end_to_end(cycle, args.seconds)
            res["info"]["setup_wall"] = setup_wall
            res["metrics"]["setup_s"] = (setup, "s")
            res["metrics"]["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB")
        attempted, n_failed, probe_failed = probes(fams)

    if args.trace:
        res["metrics"]["cli.probe_attempted"] = (attempted, "count")
        res["metrics"]["cli.probe_failed"] = (n_failed, "count")
        print(f"traced {res['attempted']} requests in {res['cycles']} cycles; "
              f"replay mismatches {res['mismatch']}; layer times below are "
              f"rescaled by {res['scale']:.4g}, the span table is raw")
        print(f"  {'span':32s} {'calls':>7s} {'total_s':>9s} {'self_s':>8s}"
              f" {'jets':>9s} {'samples':>9s}")
        for name, r in sorted(res["spans"].items()):
            print(f"  {name:32s} {r.calls:7d} {r.total:9.4f} {r.own:8.4f}"
                  f" {r.base_jets:9d} {r.samples:9d}")
        for line in res["roadmap"]:
            print(f"counter check: {line}")
        correct = res["failed"] == 0 and res["mismatch"] == 0
    else:
        info = res["info"]
        print(f"{info['requests']} requests in {info['cycles']} cycles, "
              f"{info['request_seconds']:.2f} s of request time; "
              f"request_s.tail is p{info['tail_percentile']:g}; "
              f"{info['retried']} requests timed again "
              f"({info['resent']} resends) after a speed change")
        print(f"wall clock: request_s.p50 {info['wall_p50']:.6g} s, "
              f"request_s.tail {info['wall_tail']:.6g} s, "
              f"setup_s {info['setup_wall']:.6g} s")
        print(f"failed_share {info['failed_share']:.6g}  "
              f"verdict_mismatch_share {info['verdict_mismatch_share']:.6g}  "
              f"oracle_err.max {info['oracle_err_max']:.6g}")
        correct = res["failed"] == 0
    print(f"probes: {n_failed} of {attempted} failed (known defects)")
    for p in probe_failed:
        print(f"  {p}")
    for p in res["problems"][:10]:
        print(f"FAILED {p}")
    for name, (value, unit) in res["metrics"].items():
        print(f"{name:44s} {_fmt(value):>14s} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
