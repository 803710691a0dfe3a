"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a mukailab checkout; the package is imported from
``src/`` as it stands, nothing is installed or built.  The run starts
several fresh interpreters, each running ``worker.py``:

* one that only imports mukailab and the benchmark's modules, so that
  their bytecode is cached (``__pycache__``, ignored by git) and every timed
  set-up reads it instead of compiling;
* SETUP_SAMPLES - 1 that measure set-up alone;
* the worker that measures set-up once more, then runs the workload's
  timed closed loop and checks every output.

The last line printed is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1.  The traced run also writes its spans
and counts to perfbench/out/trace-<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-batch", "wall-chambers", "series-hecke", "reduce-isometry")
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150


def child_env():
    """Fixed string hashing, and bytecode caching on whatever the caller's
    environment says, so every run imports the same way."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = "0"
    return env


def child(args, role):
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("benchmark %s process failed with exit code %d"
                         % (role, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "mukailab" / "__init__.py").is_file():
        sys.stderr.write("no mukailab sources under %s\n" % (ROOT / "src"))
        return 2
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2

    subprocess.run([sys.executable, "-c", "import workloads"], cwd=ROOT, check=True,
                   env=dict(child_env(), PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)])),
                   timeout=CHILD_TIMEOUT_S)
    setups = [child(args, "setup") for _ in range(SETUP_SAMPLES - 1)]
    run = child(args, "run")
    setups.append(run)

    if args.trace:
        metrics = run["per_layer"]
    else:
        metrics = {
            "jobs_per_s": {"value": run["jobs_per_s"], "unit": "jobs/s"},
            "job_ms_p50": {"value": run["job_ms_p50"], "unit": "ms"},
            "job_ms_p90": {"value": run["job_ms_p90"], "unit": "ms"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    detail = dict(run, seed=args.seed, workload=args.workload,
                  setup_samples_s=[s["setup_s"] for s in setups],
                  setup_raw_samples_s=[s["setup_raw_s"] for s in setups])
    (out_dir / ("run-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
