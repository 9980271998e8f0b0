"""Pipeline benchmark for fadekey: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; fadekey is imported from its src/.  The
workload runs in a fresh single-threaded worker process (BLAS pools held to
one thread).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A traced run also writes its spans to
``bench_out/spans-<workload>-seed<n>.json``.  The exit code is 1 when any
operation failed its checks (``correct`` is then false).  See
perfbench/README.md.
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
IMPORT_PROBES = 2  # extra fresh processes timed for the set-up median
DEADLINE_MARGIN_S = 155.0  # set-up, probes and the last round, on top of --seconds


class WorkerError(RuntimeError):
    pass


def run_worker(args, env, deadline):
    """Start worker.py, wait for it within the deadline, parse its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--launched", repr(time.time()), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the deadline")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed nothing")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    deadline = time.monotonic() + a.seconds + DEADLINE_MARGIN_S

    if not (ROOT / "src" / "fadekey" / "__init__.py").is_file():
        print(f"perfbench: no fadekey sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if a.workload not in names:
        print(f"perfbench: unknown workload {a.workload!r}; choose from {sorted(names)}", file=sys.stderr)
        return 2
    if a.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    worker_args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                   "--trace", str(a.trace)]
    if a.trace:
        worker_args += ["--spans", str(ROOT / "bench_out" / f"spans-{a.workload}-seed{a.seed}.json")]
    try:
        imports = [run_worker(["--probe"], env, deadline)["import_s"] for _ in range(IMPORT_PROBES)]
        res = run_worker(worker_args, env, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    imports.append(res["import_s"])
    if res["op_s"] is None:
        print("perfbench: no operation of some kind succeeded, so op_s is undefined", file=sys.stderr)
        return 1

    if a.trace:
        layers = res["layers"]
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        if missing:
            print(f"perfbench: the traced run measured no {', '.join(missing)}", file=sys.stderr)
            return 1
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        measured = {
            "setup_s": statistics.median(imports) + res["peg_s"],
            "op_s": res["op_s"],
            "peak_rss_mib": res["peak_rss_mib"],
        }
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    if not res["correct"]:
        print(f"perfbench: {res['failed']} of {res['attempted']} operations failed"
              + ("" if res["failed"] else ", or the spans did not nest"), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
