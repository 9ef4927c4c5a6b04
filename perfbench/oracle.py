"""The output contract each job must meet, checked against exact linear
algebra computed here from the job's own vertices (not from the program).

A run job passes only if its exit code is 0, every encoding verification
passed, it extracted ``d`` eigenvalues, each within one phase bin
(2 pi 2^-qpe_bits / t) of the nearest reference eigenvalue, and every
eigenvector fidelity is at least 0.99.  The verify job passes only if every
check passed with zero violations.

Reference eigenvalues that fit in a window narrower than UNRESOLVED_BINS
bins form one group: phase estimation cannot separate them, and the pipeline
reports such a group as one subspace cluster whose eigenvalue is the weighted
mean of its phases.  An eigenvalue passes when it lies within one bin of its
group's span, which is under UNRESOLVED_BINS bins wide.  A group of one is a
single eigenvalue, so the one-bin rule holds unchanged for every
gap-separated eigenvalue.
"""

import json
import math

import numpy as np

MIN_FIDELITY = 0.99
# the sinc^2 leakage of two eigenphases g bins apart keeps every bin between
# them above the extraction's 5%-of-share count cut only for g below ~4
UNRESOLVED_BINS = 5.0
VERIFY_CHECKS = {"medium": 16}


def taylor_weights(x, lam, p):
    """Order-p Taylor weights exp(-lam(|x_i|^2+|x_j|^2)) sum_k (2 lam)^k/k!
    (x_i.x_j)^k with a zero diagonal."""
    sq = np.sum(x * x, axis=1)
    gram = x @ x.T
    series = sum((2.0 * lam) ** k / math.factorial(k) * gram ** k
                 for k in range(p + 1))
    w = np.exp(-lam * (sq[:, None] + sq[None, :])) * series
    np.fill_diagonal(w, 0.0)
    return w


def reference_eigenvalues(job):
    """Spectrum of the operator the job's target encodes: L/Tr(D) for L, the
    symmetric normalization for Ls and Lr (which share it), W_p/n for W.
    The Laplacian targets drop the zero mode, as the pipeline does."""
    w = taylor_weights(job["vertices"], job["lambda"], job["p"])
    n = w.shape[0]
    deg = w.sum(axis=1)
    lap = np.diag(deg) - w
    if job["target"] == "W":
        return np.linalg.eigvalsh(w / n)
    if job["target"] == "L":
        mat = lap / deg.sum()
    else:
        inv = 1.0 / np.sqrt(deg)
        mat = lap * inv[:, None] * inv[None, :]
    vals = np.linalg.eigvalsh(mat)
    return vals[np.abs(vals) > 1e-9 * max(1.0, float(np.max(np.abs(vals))))]


def unresolved_groups(values, gap):
    """[lo, hi] spans of groups of sorted values: a value joins the current
    group while it lies less than ``gap`` above the group's first member, so
    no group spans ``gap`` or more."""
    spans = []
    for v in np.sort(values):
        if spans and v - spans[-1][0] < gap:
            spans[-1][1] = v
        else:
            spans.append([v, v])
    return spans


def check_run(job, code, report, reference):
    """Problems with one run job's result; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    if report is None:
        return ["no report written"]
    problems = [f"encoding verification {r['name']} failed"
                for r in report["encoding_verifications"] if not r["pass"]]
    vals = report["eigenvalues"]
    if len(vals) != job["d"]:
        problems.append(f"{len(vals)} eigenvalues extracted, {job['d']} asked")
    width = 2.0 * math.pi * 2.0 ** -job["qpe_bits"] / report["simulation"]["t"]
    spans = unresolved_groups(reference, UNRESOLVED_BINS * width)
    for v in vals:
        off = min(max(lo - v, v - hi, 0.0) for lo, hi in spans)
        if off > width:
            problems.append(f"eigenvalue {v:.6g} is {off / width:.2f} bins "
                            "from the reference spectrum")
    fids = report["fidelities"]
    if len(fids) != len(vals):
        problems.append("one fidelity per eigenvalue expected")
    problems += [f"fidelity {f:.6f} < {MIN_FIDELITY}" for f in fids
                 if f < MIN_FIDELITY]
    return problems


def check_verify(job, code, lines):
    """Problems with the verify job's check lines."""
    problems = [] if code == 0 else [f"exit code {code}"]
    if len(lines) != VERIFY_CHECKS[job["size"]]:
        problems.append(f"{len(lines)} checks reported, "
                        f"{VERIFY_CHECKS[job['size']]} expected")
    problems += [f"check {c['check']}: {c['violations']} violations"
                 for c in lines if not c["pass"] or c["violations"]]
    return problems


def load_output(job, path):
    """The parsed report (run) or check lines (verify), or None if the file
    is missing."""
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        return None
    if job["kind"] == "verify":
        return [json.loads(line) for line in text.splitlines() if line]
    return json.loads(text)


def check_job(job, code, output, reference=None):
    if job["kind"] == "verify":
        if output is None:
            return ["no check lines written"]
        return check_verify(job, code, output)
    return check_run(job, code, output, reference)
