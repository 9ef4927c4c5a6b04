"""The benchmark's own tests: deterministic job generation, an oracle that
rejects doctored outputs, self-time arithmetic, and counts that repeat.

    python3 -m pytest perfbench/tests
"""

import copy
import json

import numpy as np
import pytest

import jobs as jobgen
import oracle
import tracer as tracing
from qlapeig import harness


def _run(job, workdir):
    jobgen.write_inputs(workdir, [job])
    paths = jobgen.job_paths(workdir, job)
    code = harness.run(harness.RunConfig.from_file(paths["config"]))
    return code, paths["output"]


@pytest.mark.parametrize("workload", jobgen.WORKLOADS)
def test_jobs_are_deterministic_in_the_seed(workload, tmp_path):
    a, b = jobgen.make_jobs(workload, 5), jobgen.make_jobs(workload, 5)
    assert [j["id"] for j in a] == [j["id"] for j in b]
    for ja, jb in zip(a, b):
        assert ja.keys() == jb.keys()
        for key in ja:
            assert np.array_equal(ja[key], jb[key])
    for d in ("one", "two"):
        (tmp_path / d).mkdir()
        jobgen.write_inputs(str(tmp_path / d), a)
    written = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "two").iterdir())
    for name in written:
        one, two = ((tmp_path / d / name).read_text().replace(str(tmp_path / d), "")
                    for d in ("one", "two"))
        assert one == two
    runs = [j for j in a if j["kind"] == "run"]
    other = jobgen.make_jobs(workload, 6)
    assert all(not np.array_equal(x["vertices"], y["vertices"])
               for x, y in zip(runs, other))


def test_vertex_files_round_trip_exactly(tmp_path):
    job = jobgen.make_jobs("grid-small", 3)[3]
    jobgen.write_inputs(str(tmp_path), [job])
    back = np.loadtxt(jobgen.job_paths(str(tmp_path), job)["vertices"],
                      delimiter=",")
    assert np.array_equal(back, job["vertices"])
    norms = np.linalg.norm(job["vertices"], axis=1)
    assert np.all((norms >= 0.35) & (norms <= 0.55))


@pytest.fixture(scope="module")
def passing_report(tmp_path_factory):
    job = next(j for j in jobgen.make_jobs("grid-small", 1)
               if j["id"] == "02-L-general-n4")
    code, path = _run(job, str(tmp_path_factory.mktemp("oracle")))
    with open(path) as fh:
        return job, code, json.load(fh)


def test_oracle_accepts_the_real_report(passing_report):
    job, code, report = passing_report
    assert oracle.check_job(job, code, report,
                            oracle.reference_eigenvalues(job)) == []


def _doctor_eigenvalue(report, job):
    width = 2 * np.pi * 2.0 ** -job["qpe_bits"] / report["simulation"]["t"]
    report["eigenvalues"][0] += 2 * width


def _doctor_fidelity(report, job):
    report["fidelities"][0] = 0.98


def _doctor_verification(report, job):
    report["encoding_verifications"][1]["pass"] = False


@pytest.mark.parametrize("doctor", [_doctor_eigenvalue, _doctor_fidelity,
                                    _doctor_verification])
def test_oracle_rejects_doctored_reports(passing_report, doctor):
    job, code, report = passing_report
    report = copy.deepcopy(report)
    doctor(report, job)
    assert oracle.check_job(job, code, report, oracle.reference_eigenvalues(job))


def test_unresolved_eigenvalues_form_groups_of_bounded_width():
    assert oracle.unresolved_groups([10.0, 0.0, 3.0, 16.0], 5.0) == [
        [0.0, 3.0], [10.0, 10.0], [16.0, 16.0]]
    # a chain of close values does not grow one group without bound
    assert oracle.unresolved_groups([0.0, 3.0, 6.0, 9.0, 12.0], 5.0) == [
        [0.0, 3.0], [6.0, 9.0], [12.0, 12.0]]


@pytest.fixture(scope="module")
def grouped_report(tmp_path_factory):
    # seed 7's unit-norm W job at n = 4 has two eigenvalues 2.84 bins apart;
    # the pipeline reports one eigenvalue between them
    job = next(j for j in jobgen.make_jobs("grid-small", 7)
               if j["id"] == "12-W-unit-n4")
    code, path = _run(job, str(tmp_path_factory.mktemp("grouped")))
    with open(path) as fh:
        return job, code, json.load(fh)


def test_oracle_bounds_an_unresolved_group(grouped_report):
    job, code, report = grouped_report
    ref = oracle.reference_eigenvalues(job)
    width = 2 * np.pi * 2.0 ** -job["qpe_bits"] / report["simulation"]["t"]
    (v,) = report["eigenvalues"]
    lo, hi = next(s for s in oracle.unresolved_groups(
        ref, oracle.UNRESOLVED_BINS * width) if s[0] <= v <= s[1])
    assert hi > lo  # a real group, and the plain one-bin rule would fail
    assert np.min(np.abs(ref - v)) > width
    assert oracle.check_job(job, code, report, ref) == []
    for moved in (hi + 1.5 * width, lo - 1.5 * width):
        doctored = copy.deepcopy(report)
        doctored["eigenvalues"] = [moved]
        assert oracle.check_job(job, code, doctored, ref)


def test_oracle_rejects_exit_code_and_missing_output(passing_report):
    job, _, report = passing_report
    ref = oracle.reference_eigenvalues(job)
    assert oracle.check_job(job, 1, report, ref) == ["exit code 1"]
    assert oracle.check_job(job, 0, None, ref) == ["no report written"]


def test_oracle_rejects_verify_violations():
    job = jobgen.make_jobs("verify-medium", 0)[0]
    lines = [{"check": f"c{i}", "trials": 10, "violations": 0, "pass": True}
             for i in range(16)]
    assert oracle.check_job(job, 0, lines) == []
    lines[3] = dict(lines[3], violations=1, **{"pass": False})
    assert oracle.check_job(job, 1, lines)
    assert oracle.check_job(job, 0, lines[:15])


def test_self_time_on_a_synthetic_span_tree():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    spans = [["job", 0.0, 10.0, -1, "j", None],
             ["spectral.full_pipeline", 1.0, 4.0, 0, "j", None],
             ["blockenc.identity_mixture_encoding", 2.0, 3.0, 1, "j", None],
             ["blockenc.purified_density_encoding", 5.0, 9.0, 0, "j",
              {"dense_dim": 8}]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    m = tracing.layer_metrics(spans)
    assert m["spectral.other_s"] == 2.0
    assert m["blockenc.identity_mixture_s"] == 1.0
    assert m["blockenc.purified_encoding_s"] == 4.0
    assert m["trace.job_s"] == 10.0
    assert m["blockenc.dense_unitary_dim_max"] == 8
    assert m["blockenc.dense_unitary_mb"] == 8 * 8 * 16 / 2 ** 20


def test_tracer_records_nesting_and_job_ids():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))

    @tr.span("graph.build_graph")
    def leaf():
        return 1

    @tr.span("spectral.full_pipeline")
    def outer():
        return leaf() + leaf()

    assert tr.run_job("j1", outer) == 2
    names = [s[0] for s in tr.spans]
    assert names == ["job", "spectral.full_pipeline", "graph.build_graph",
                     "graph.build_graph"]
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 1]
    assert {s[4] for s in tr.spans} == {"j1"}
    own = tracing.self_times(tr.spans)
    assert own == [2.0, 3.0, 1.0, 1.0]


def test_overhead_counts_spans_and_probe_time():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    tr.span("harness.dump_json", tracing._text_bytes)(lambda: "abc")()
    assert tr.spans[0][5] == {"bytes": 3}
    assert tr.probe_s == 1.0  # one tick around the probe
    assert tracing.span_cost(calls=2000, repeats=2) > 0.0
    assert tr.overhead_s() >= tr.probe_s


def test_install_reaches_call_time_lookups_and_uninstall_restores():
    from qlapeig import blockenc, checks, spectral, stateprep
    originals = (stateprep.build_degree_state, blockenc.build_degree_state,
                 spectral.simulate_hamiltonian, list(checks.CHECKS["medium"]))
    tr = tracing.Tracer()
    tr.install()
    try:
        assert blockenc.build_degree_state is not originals[0]
        assert blockenc.build_degree_state is stateprep.build_degree_state
        assert spectral.simulate_hamiltonian.__wrapped__ is originals[2]
        direct = [fn for fn in originals[3] if fn is checks.check_cross_path]
        assert not direct  # the wrapper replaced the direct suite entry
    finally:
        tr.uninstall()
    assert (stateprep.build_degree_state, blockenc.build_degree_state,
            spectral.simulate_hamiltonian) == originals[:3]
    assert checks.CHECKS["medium"] == originals[3]


def test_counts_repeat_on_a_metered_job(tmp_path):
    job = next(j for j in jobgen.make_jobs("metered-taylor", 2) if j["n"] == 2)
    code, path = _run(job, str(tmp_path))
    untraced = open(path, "rb").read()
    counts, reports = [], []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            assert tr.run_job(job["id"], _run, job, str(tmp_path))[0] == 0
        finally:
            tr.uninstall()
        m = tracing.layer_metrics(tr.spans)
        counts.append({k: m[k] for k in tracing.COUNT_METRICS})
        reports.append(open(path, "rb").read())
    assert code == 0
    assert counts[0] == counts[1]
    assert reports[0] == reports[1] == untraced
    queries = json.loads(untraced)["simulation"]["query_count"]
    assert queries > 0 and counts[0]["spectral.queries"] == queries


def test_benchmark_file_names_every_metric_and_workload():
    import run
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobgen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.METRICS
