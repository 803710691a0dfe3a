"""One fresh interpreter of the benchmark: set-up, then (for --role run) the
timed closed loop with its checks.  Prints one JSON object on stdout.

    python3 perfbench/worker.py --role setup|run --workload NAME --seed N
                                --seconds S --trace 0|1

Set-up time runs from just before ``import mukailab`` to the end of one
untimed warm-up job of each kind: the cold import, building the models
and inputs, and letting lazy caches fill.  Reference answers are computed
later, on first use inside the checks, so set-up never includes them.
"""

import hashlib
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

MIN_JOBS = 100          # so that ten or more jobs lie beyond the 90th percentile
SETUP_KERNELS = 101     # kernel timings that set the scale of one set-up time


def parse_args(argv):
    opts = dict(zip(argv[1::2], argv[2::2]))
    return (opts["--role"], opts["--workload"], int(opts["--seed"]),
            float(opts["--seconds"]), opts.get("--trace", "0") == "1")


def setup(workload, seed):
    """The program's set-up: import, models and inputs, one warm-up per kind."""
    start = time.perf_counter()
    import mukailab  # noqa: F401  (the cold import being timed)
    import random
    import workloads

    jobs = workloads.WORKLOADS[workload](random.Random(seed))
    seen = set()
    for job in jobs:
        if job.kind not in seen and job.known_fault is None:
            seen.add(job.kind)
            job.run()
    elapsed = time.perf_counter() - start
    import gc

    import calibrate
    gc.collect()   # time the kernel on a settled heap, not amid set-up garbage
    kernel = median(calibrate.time_kernel() for _ in range(SETUP_KERNELS))
    return jobs, elapsed, elapsed * calibrate.REFERENCE_S / kernel


def timed_loop(jobs, seconds, tracer):
    """Closed loop, one client: whole rounds over the job list until the
    time spent inside jobs reaches ``seconds`` and at least MIN_JOBS ran.

    After each job, outside the timer, its output is reduced to plain data.
    The first time a job's output is seen it is verified by the independent
    checkers; later rounds must reproduce the verified output exactly.
    """
    from calibrate import time_kernel
    from checkers import REJECTIONS, CheckFailed

    latencies = []
    kernel_times = []
    failed = 0
    unexpected = []
    verified = {}
    rounds = 0
    busy = 0.0
    clock = time.perf_counter
    while busy < seconds or len(latencies) < MIN_JOBS:
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.active = True
            error = None
            start = clock()
            try:
                out = job.run()
            except Exception as exc:   # a job that raises has failed
                error = exc
            elapsed = clock() - start
            if tracer is not None:
                tracer.active = False
            latencies.append(elapsed)
            busy += elapsed
            kernel_times.append(time_kernel())
            if error is None:
                try:
                    canon = job.canon(out)
                    digest = hashlib.sha256(repr(canon).encode()).digest()
                    if index not in verified:
                        job.verify(canon)
                        verified[index] = digest
                    elif verified[index] != digest:
                        raise CheckFailed("output differs from the verified one")
                except REJECTIONS as exc:
                    error = exc
                if tracer is not None and job.kind.startswith("cli."):
                    tracer.count_now("cli.output_bytes", len(out[1].encode()))
            if error is not None:
                failed += 1
                if job.known_fault is None:
                    unexpected.append("%s: %s: %s" % (job.kind, type(error).__name__, error))
        rounds += 1
    return latencies, kernel_times, busy, rounds, failed, unexpected


def main(argv):
    role, workload, seed, seconds, trace = parse_args(argv)
    jobs, setup_raw_s, setup_s = setup(workload, seed)
    if role == "setup":
        print('{"setup_s": %r, "setup_raw_s": %r}' % (setup_s, setup_raw_s))
        return 0

    import json
    import resource
    import statistics

    import calibrate

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    latencies, kernel_times, busy, rounds, failed, unexpected = timed_loop(jobs, seconds, tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for line in unexpected[:20]:
        sys.stderr.write("check failed: %s\n" % line)
    scaled = calibrate.rescale(latencies, kernel_times)
    deciles = statistics.quantiles(scaled, n=10, method="inclusive")
    # a typical round: each job at its median time over the rounds, so that
    # a few stalled jobs do not move the throughput
    n = len(jobs)
    round_s = sum(statistics.median(scaled[i::n]) for i in range(n))
    raw = statistics.quantiles(latencies, n=10, method="inclusive")
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "attempted": len(latencies),
        "failed": failed,
        "correct": not unexpected,
        "rounds": rounds,
        "jobs_per_round": len(jobs),
        "jobs_per_s": n / round_s,
        "job_ms_p50": deciles[4] * 1e3,
        "job_ms_p90": deciles[8] * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
        "raw_jobs_per_s": len(latencies) / busy,
        "raw_job_ms_p50": raw[4] * 1e3,
        "raw_job_ms_p90": raw[8] * 1e3,
        "kernel_ms_median": statistics.median(kernel_times) * 1e3,
    }
    if tracer is not None:
        result["per_layer"] = tracer.per_layer_metrics(rounds)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / ("trace-%s-seed%d.json" % (workload, seed))
        tracer.dump(path, {"workload": workload, "seed": seed, "rounds": rounds,
                           "attempted": len(latencies), "busy_s": busy})
        result["trace_file"] = str(path.relative_to(HERE.parent))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
