"""Time-to-spectrum benchmark for qlapeig.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs the workload's jobs (perfbench/jobs.py) back to back in a
fresh worker process and checks every output against the contract in
perfbench/oracle.py.  Passes repeat while the next one is expected to finish
within ``--seconds``; at least one always runs.  Set-up-only workers add
set-up samples: PROBES_PER_PASS before each pass, so that they spread over
the run, and then as many as it takes to reach SETUP_PROBES.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, each
a median: a pass's wall time, the set-up time of a worker, and the peak RSS
of the worker that ran a pass.  A worker's set-up time is the CPU time of
its main thread up to the end of set-up (see worker.py), rescaled to the
machine speed at which its calibration loop takes CALIBRATION_REF_S.  The
2-vCPU machine of trajectory.json switches between speeds about 1.5 times
apart, each held for seconds to minutes.  A set-up of a fifth of a second
falls wholly in one of them, and the rescaling takes that out; a pass is
long enough to average over them, so wall_s is left as measured.

With ``--trace 1`` one traced pass follows the untraced ones and the last
line reports the per-layer metrics of perfbench/tracer.py; the spans go to
.perfbench_out/.  The line before the result holds the job report digests,
the query total and the raw samples.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import jobs as jobgen
import oracle
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 10
PROBES_PER_PASS = 3
# worker.calibration_s on the machine of trajectory.json in its fast phase
CALIBRATION_REF_S = 0.025
RUN_LIMIT_S = 170.0


END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
Pass = collections.namedtuple("Pass", "result digests queries failed")


class BenchError(RuntimeError):
    pass


def blas_threads():
    """The BLAS thread cap: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def fingerprint():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads()}


class Bench:
    def __init__(self, workload, seed, workdir, started):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.started = started
        self.jobs = jobgen.make_jobs(workload, seed)
        self.paths = [jobgen.job_paths(workdir, job) for job in self.jobs]
        self.refs = [oracle.reference_eigenvalues(job) if job["kind"] == "run"
                     else None for job in self.jobs]
        self.env = worker_env()
        self.setup_s = []
        self.setup_raw = []
        self.problems = []

    def worker(self, *extra):
        """Run one worker to completion; returns its result record."""
        result_path = self.workdir / "worker-result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
               self.workload, "--seed", str(self.seed), "--workdir",
               str(self.workdir), "--result", str(result_path), *extra]
        budget = RUN_LIMIT_S - (time.monotonic() - self.started)
        if budget <= 0:
            raise BenchError("out of time before the next worker")
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=budget)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
        with open(result_path) as fh:
            result = json.load(fh)
        self.setup_raw.append((result["setup_s"], result["calibration_s"]))
        self.setup_s.append(
            result["setup_s"] * CALIBRATION_REF_S / result["calibration_s"])
        return result

    def one_pass(self, *extra):
        """One pass with every output checked against the oracle."""
        for p in self.paths:
            Path(p["output"]).unlink(missing_ok=True)
        result = self.worker(*extra)
        digests, queries, failed = [], 0, 0
        for job, p, ref, code in zip(self.jobs, self.paths, self.refs,
                                     result["codes"]):
            output = oracle.load_output(job, p["output"])
            problems = oracle.check_job(job, code, output, ref)
            failed += bool(problems)
            self.problems += [f"{job['id']}: {msg}" for msg in problems]
            digests.append(None if output is None else hashlib.sha256(
                Path(p["output"]).read_bytes()).hexdigest())
            if job["kind"] == "run" and output is not None:
                queries += output["simulation"]["query_count"] or 0
        return Pass(result, digests, queries, failed)


def report(args, workdir, started):
    bench = Bench(args.workload, args.seed, workdir, started)
    passes = []
    t0 = time.monotonic()
    while True:
        for _ in range(PROBES_PER_PASS):
            bench.worker("--setup-only")
        passes.append(bench.one_pass())
        spent = time.monotonic() - t0
        if spent + spent / len(passes) > args.seconds:
            break
    for _ in range(SETUP_PROBES - PROBES_PER_PASS * len(passes)):
        bench.worker("--setup-only")
    every = list(passes)
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        traced = bench.one_pass("--spans", str(spans))
        every.append(traced)

    # counts must repeat exactly: reports are byte-identical across passes,
    # traced or not, and the traced query count equals the reports' total
    first = every[0]
    if any(p.digests != first.digests for p in every):
        bench.problems.append("job reports differ between passes")
    if args.trace and traced.result["layers"]["spectral.queries"] != first.queries:
        bench.problems.append("traced query count differs from the reports")

    walls = [p.result["wall_s"] for p in passes]
    if args.trace:
        metrics = {name: {"value": traced.result["layers"][name], "unit": unit}
                   for name, unit in tracing.METRICS}
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(bench.setup_s),
                  "peak_rss_mb": statistics.median(
                      p.result["peak_rss_mb"] for p in passes)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    attempted = len(bench.jobs) * len(every)
    failed = sum(p.failed for p in every)
    for msg in bench.problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "passes": len(every),
        "wall_s_samples": walls,
        "setup_s_samples": bench.setup_s,
        "setup_cpu_and_calibration_s": bench.setup_raw,
        "failed_frac": failed / attempted, "queries_total": first.queries,
        "report_sha256": dict(zip((j["id"] for j in bench.jobs), first.digests)),
        "machine": fingerprint(),
    }
    if args.trace:
        info["traced_wall_s"] = traced.result["wall_s"]
    print(json.dumps(info))
    print(json.dumps({"correct": not bench.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qlapeig" / "__init__.py").is_file():
        print(f"perfbench: no qlapeig source tree under {ROOT}", file=sys.stderr)
        return 2
    # a terminated run still stops its worker and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return report(args, workdir, started)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
