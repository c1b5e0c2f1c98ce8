"""bellsub benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the parent of this directory and bellsub is
imported from its `src/`.  `--workload all` runs certify, dyadic and
sharpness one after another.  `--trace 0` prints the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer metrics from a traced run.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every output was correct (the
counted Q = 256 mollification defect excepted), 1 on a wrong output and 2 when
the benchmark could not run.

This file uses only the standard library.  Every measurement runs in a fresh
worker process (worker.py), so peak memory is per workload; set-up time is
the median of three fresh processes that import bellsub, numpy and scipy and
build the workload's inputs.  BLAS is pinned to one thread so that the
jobs=2 certify pass uses no more threads than the two cores it is sized for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("certify", "dyadic", "sharpness")
SETUP_PROBES = 2            # plus the measuring worker's own set-up
RUN_BUDGET_S = 175          # all processes of one workload's run together


class BenchError(Exception):
    pass


def _worker(args, out, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    if out.exists():
        out.unlink()
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past the {RUN_BUDGET_S} s budget") from None
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.read_text())


def run_workload(args):
    """Measure one workload; returns the printed result object."""
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            probe = _worker(args, OUT / f"{stem}-setup{i}.json", deadline,
                            setup_only=True)
            setups.append(probe["setup_s"])
    res = _worker(args, OUT / f"{stem}.json", deadline)
    metrics = dict(res["metrics"])
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
        res["named"]["setup_s"] = metrics["setup_s"]

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print("# provenance " + json.dumps(res["provenance"], sort_keys=True))
    for name, m in {**res["named"], **metrics}.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for f in res["failures"]:
        tag = "known defect" if f["known_defect"] else "FAILED"
        print(f"# {tag}: {f['op']}: {f['detail']}")
    print(f"# result file {OUT.name}/{stem}.json")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the self-check only")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "bellsub" / "__init__.py").is_file():
        print(f"benchmark: no bellsub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except BenchError as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 2
        ok &= result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
