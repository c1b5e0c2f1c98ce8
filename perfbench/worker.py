"""One benchmark process: set up one workload, measure it, write the result.

Started by run.py, a fresh process per run, so that `ru_maxrss` (which only
grows within a process) is this workload's own peak.  With --setup-only it
stops after set-up and reports only the set-up time.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402  (set-up time includes every import below)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bellsub  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(workload, seconds, tally):
    """Whole passes until `seconds` have elapsed (at least one); pass times."""
    times = []
    t_begin = perf_counter()
    while not times or perf_counter() - t_begin < seconds:
        t0 = perf_counter()
        workload.run_pass(len(times), tally)
        times.append(perf_counter() - t0)
    return times


def provenance(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "bellsub": bellsub.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "threads": {**{v: os.environ.get(v) for v in BLAS_THREAD_VARS},
                    "certify_jobs": [1, 2]},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    if Path(bellsub.__file__).resolve().parent != SRC / "bellsub":
        sys.exit(f"bellsub imported from {bellsub.__file__}, not from {SRC}")
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, workloads.SMOKE if args.smoke else workloads.FULL)
    setup_s = perf_counter() - T_START
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return

    # warm-up at smoke size: lazy initialisation is not part of the timing
    warm = workloads.Tally()
    cls(args.seed, workloads.SMOKE).run_pass(0, warm)

    tally = workloads.Tally()
    if args.trace:
        untraced = measure(workload, args.seconds / 2, tally)
        rec = Recorder()
        rec.install()
        try:
            traced = measure(workload, args.seconds / 2, tally)
        finally:
            rec.remove()
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics = rec.layer_metrics(len(traced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_share"] = {
            "value": overhead / statistics.median(untraced), "unit": "ratio"}
        result["spans"] = rec.dump()
        result["pass_times"] = {"untraced": untraced, "traced": traced}
    else:
        times = measure(workload, args.seconds, tally)
        metrics = {
            "items_per_s": {"value": tally.rate(*cls.headline), "unit": "items/s"},
            "pass_s": {"value": tally.pass_seconds(len(times)), "unit": "s"},
        }
        result["pass_times"] = times
    attempted = tally.attempted + warm.attempted
    failures = warm.failures + tally.failures
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = {k: {"value": v, "unit": u}
             for k, (v, u) in workload.named_metrics(tally).items()}
    named["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    named["ops_total"] = {"value": attempted, "unit": "count"}
    named["failed_share"] = {"value": len(failures) / attempted, "unit": "1"}
    result.update({
        "correct": warm.correct and tally.correct,
        "attempted": attempted,
        "failed": len(failures),
        "failures": [{"op": k, "detail": d, "known_defect": kn}
                     for k, d, kn in failures],
        "metrics": metrics,
        "peak_rss_mb": peak_rss_mb,
        "op_seconds": tally.seconds,
        "named": named,
        "provenance": provenance(args),
    })
    Path(args.out).write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
