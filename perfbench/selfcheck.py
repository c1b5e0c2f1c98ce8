"""Smoke check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at smoke size with --trace 0 and 1 and
checks that each run exits with 0 and that its last line is the result
object carrying exactly the metric names and units that BENCHMARK.json lists.
Then copies BENCHMARK.json and the benchmark into an empty directory and
checks that the benchmark refuses to run there, printing no result.
Everything it writes stays under perfbench/out/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_runs(bench):
    problems = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            proc = _run(ROOT, wl, trace)
            tag = f"{wl} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not (res["correct"] and res["attempted"] >= 1):
                problems.append(f"{tag}: correct {res['correct']}, "
                                f"attempted {res['attempted']}")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{ {k: (got[k], want[k]) for k in got if k in want and got[k] != want[k]} }")
            if not all(math.isfinite(m["value"]) for m in res["metrics"].values()):
                problems.append(f"{tag}: non-finite metric value")
            print(f"ok   {tag}: {len(got)} metrics, attempted {res['attempted']}, "
                  f"failed {res['failed']}")
    return problems


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = _run(bare, "certify", 0)
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last[0]!r}"]
    print(f"ok   bare directory refused with exit {proc.returncode}")
    return []


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_runs(bench) + check_bare_directory()
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
