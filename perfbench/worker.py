"""One pass over a workload's jobs, in a fresh process.

run.py starts this with ``src`` on PYTHONPATH and the BLAS thread cap in the
environment.  Set-up is the qlapeig import plus writing the generated inputs;
the pass runs every job back to back (a closed loop with one client) through
``qlapeig.harness.run`` or ``verify_suite``.  The result file records the set-up
time, the pass wall time, per-job exit codes, peak RSS and, for a traced pass,
the per-layer metrics.

Set-up time is the CPU time of the main thread from process start to the end
of set-up.  Unlike the wall clock it leaves out waits for a CPU, which on a
shared machine vary from one process to the next; unlike the process CPU time
it leaves out the BLAS threads' spin-waits.  Right after set-up the worker
times a fixed pure-Python loop the same way, so that run.py can tell how fast
the machine ran at that moment.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR
        --result FILE [--spans FILE] [--setup-only]

``--spans FILE`` traces the pass and writes its spans to FILE.
"""

import argparse
import json
import resource
import sys
import time

import jobs as jobgen

CALIBRATION_LOOPS = 300_000


def run_job(harness, job, paths):
    if job["kind"] == "verify":
        return harness.verify_suite(job["size"], paths["output"])
    return harness.run(harness.RunConfig.from_file(paths["config"]))


def calibration_s():
    """CPU time this thread takes for a fixed loop of integer arithmetic."""
    start = time.thread_time()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.thread_time() - start


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="trace the pass and write its spans here")
    args = ap.parse_args(argv)

    import qlapeig.harness as harness

    jobs = jobgen.make_jobs(args.workload, args.seed)
    paths = [jobgen.job_paths(args.workdir, job) for job in jobs]
    jobgen.write_inputs(args.workdir, jobs)
    result = {"setup_s": time.thread_time(), "calibration_s": calibration_s()}
    if not args.setup_only:
        tracer = None
        if args.spans:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
        codes = []
        start = time.perf_counter()
        for job, p in zip(jobs, paths):
            if tracer:
                codes.append(tracer.run_job(job["id"], run_job, harness, job, p))
            else:
                codes.append(run_job(harness, job, p))
        result["wall_s"] = time.perf_counter() - start
        result["codes"] = codes
        if tracer:
            tracer.uninstall()
            result["layers"] = tracing.layer_metrics(tracer.spans)
            result["layers"]["trace.overhead_s"] = tracer.overhead_s()
            tracer.write(args.spans)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
