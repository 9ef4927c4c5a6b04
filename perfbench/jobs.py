"""The benchmark's workloads: the jobs each one runs, generated from its seed.

A job is a plain dict.  ``run`` jobs carry their vertex array and the config
keys written for ``qlapeig.harness.run``; the one ``verify`` job names a
``verify_suite`` size.  The program only ever sees the files written by
``write_inputs``: a vertex CSV and a key=value config per run job.
"""

import numpy as np

WORKLOADS = ("grid-small", "pipeline-n16", "metered-taylor", "verify-medium")

# settings shared by every run job; lambda, p, d and the QPE settings are the
# ones the end-to-end acceptance criterion pins
FIXED = {"m": 2, "p": 6, "lambda": 0.5, "d": 1, "qpe_bits": 10,
         "qpe_shots": 8192}
GENERAL_NORMS = (0.35, 0.55)


def vertices(rng, n, m, norm_case):
    """n random directions in R^m; unit length, or lengths drawn from
    GENERAL_NORMS for the general-norm pipeline."""
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    if norm_case == "general":
        x *= rng.uniform(*GENERAL_NORMS, size=(n, 1))
    return x


def _run_jobs(seed, specs):
    jobs = []
    for index, (target, norm_case, n, sim_path) in enumerate(specs):
        rng = np.random.default_rng([seed, index])
        jobs.append({
            "id": f"{index:02d}-{target}-{norm_case}-n{n}",
            "kind": "run", "target": target, "norm_case": norm_case, "n": n,
            "sim_path": sim_path, **FIXED,
            "vertices": vertices(rng, n, FIXED["m"], norm_case),
        })
    return jobs


def make_jobs(workload, seed):
    """The job list of a workload; the same seed gives the same jobs."""
    if workload == "grid-small":
        return _run_jobs(seed, [(t, c, n, "oracle_exponential")
                                for t in ("L", "Ls", "Lr", "W")
                                for c in ("unit", "general")
                                for n in (4, 8)])
    if workload == "pipeline-n16":
        return _run_jobs(seed, [("L", "general", 16, "oracle_exponential")])
    if workload == "metered-taylor":
        return _run_jobs(seed, [("L", "general", 4, "lcu_taylor"),
                                ("W", "general", 4, "lcu_taylor"),
                                ("L", "general", 2, "lcu_taylor")])
    if workload == "verify-medium":
        # verify_suite takes no seed: its checks carry their own
        return [{"id": "00-verify-medium", "kind": "verify", "size": "medium"}]
    raise ValueError(f"unknown workload {workload!r}")


def config_text(job, vertex_path, report_path):
    keys = {"input": vertex_path, "target": job["target"],
            "lambda": job["lambda"], "p": job["p"], "d": job["d"],
            "norm_case": job["norm_case"], "qpe_bits": job["qpe_bits"],
            "qpe_shots": job["qpe_shots"], "sim_path": job["sim_path"],
            "output": report_path}
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def job_paths(workdir, job):
    stem = f"{workdir}/{job['id']}"
    return {"vertices": stem + ".csv", "config": stem + ".cfg",
            "output": stem + (".jsonl" if job["kind"] == "verify" else ".json")}


def write_inputs(workdir, jobs):
    """Write each run job's vertex CSV (17 significant digits, so the values
    round-trip exactly) and config file."""
    for job in jobs:
        if job["kind"] != "run":
            continue
        paths = job_paths(workdir, job)
        with open(paths["vertices"], "w") as fh:
            for row in job["vertices"]:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        with open(paths["config"], "w") as fh:
            fh.write(config_text(job, paths["vertices"], paths["output"]))
