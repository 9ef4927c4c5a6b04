"""Harness tests: config parsing, CLI exit codes, deterministic replay, and
the error-propagation property suites the harness drives."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import qlapeig.blockenc as blockenc
import qlapeig.checks as checks
import qlapeig.harness as harness
import qlapeig.spectral as spectral
from qlapeig.checks import (check_phi_budget, check_psi_budget,
                            check_state_error_propagation,
                            check_tensor_power_propagation)
from qlapeig.cli import main
from qlapeig.graph import KernelParams
from qlapeig.harness import (ConfigError, RunConfig, _state_dump, dump_json,
                             load_vertices)
from qlapeig.stateprep import build_weight_state

ROOT = Path(__file__).resolve().parent.parent


def write_config(path, **overrides):
    base = {
        "input": "", "target": "L", "lambda": 0.5, "p": 6, "d": 1,
        "qpe_bits": 8, "qpe_shots": 1024, "seed": 7,
        "output": "report.json",
    }
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items() if v != ""]
    path.write_text("\n".join(lines) + "\n")
    return path


def toy_csv(path):
    path.write_text("0.5,0.1\n0.1,0.45\n")
    return path


def toy4_csv(path):
    path.write_text("0.5,0.1\n0.1,0.45\n-0.3,0.35\n0.2,-0.4\n")
    return path


# ---------------------------------------------------------------------------
# error-propagation property suites (criterion-scale runs live in test_acceptance)

def test_propagation_batteries():
    assert check_state_error_propagation(trials=300, seed=0)["violations"] == 0
    assert check_tensor_power_propagation(trials=300, seed=1)["violations"] == 0


def test_phi_chain_and_norm_regimes():
    assert check_phi_budget(trials=20, seed=2)["violations"] == 0
    above = check_psi_budget(trials=8, seed=3, regime="above")
    below = check_psi_budget(trials=8, seed=13, regime="below")
    assert above["violations"] == 0 and below["violations"] == 0
    assert "norms > 1" in above["note"] and "norms < 1" in below["note"]


def test_every_small_check_peaks_below_2_mb_traced():
    """No check materializes a circuit: each check of the ``small`` suite
    peaks below 2 MB traced, above what was allocated before it ran.  A
    materialized 256 x 256 SWAP sandwich at n = 4, with its unitarity
    product, peaks at 5.1 MB."""
    peaks = {}
    tracemalloc.start()
    try:
        for check in checks.CHECKS["small"]:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            name = check()["check"]
            peaks[name] = (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 2.0, peaks


# ---------------------------------------------------------------------------
# config file

def test_config_defaults_and_aliases(tmp_path):
    cfg_file = write_config(tmp_path / "run.cfg")
    cfg = RunConfig.from_file(cfg_file)
    assert cfg.lambda_ == 0.5 and cfg.p == 6 and cfg.target == "L"
    assert cfg.estimator_mode == "exact"  # documented default


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("lambda = 0.5\nmystery_knob = 3\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(path)


# per key, a value that changes what the noisy-mode run below writes
MATTERS = {"target": "W", "lambda_": 0.6, "p": 5, "d": 2, "norm_case": "general",
           "estimator_mode": "exact", "eps_d": 1e-3, "delta1": 0.9,
           "qpe_bits": 7, "qpe_shots": 512, "seed": 8, "fixed_point_bits": 40,
           "exp_gate_order": 4, "sim_path": "lcu_taylor", "sim_eps": 1e-3}


def test_every_config_key_reaches_the_pipeline(tmp_path):
    """A settable key no run reads would be accepted and then silently
    ignored.  Set to a value that matters, each key must change the exit code
    or the report bytes of a small noisy-mode run, and ``MATTERS`` names
    exactly the keys there are."""
    keys = {f.name for f in fields(RunConfig)} - {"input", "output"}
    assert set(MATTERS) == keys
    csv = tmp_path / "v.csv"
    csv.write_text("1,0\n0.6,0.8\n0,1\n-0.8,0.6\n")  # unit norms
    out = tmp_path / "report.json"
    base = replace(RunConfig(), input=str(csv), output=str(out), p=6,
                   estimator_mode="noisy", qpe_bits=8, qpe_shots=1024)

    def outcome(cfg):
        out.unlink(missing_ok=True)
        code = harness.run(cfg)
        return code, out.read_bytes() if out.exists() else b""

    want = outcome(base)
    assert want[0] == 0
    for f in fields(RunConfig):
        if f.name not in ("input", "output"):
            assert outcome(replace(base, **{f.name: MATTERS[f.name]})) != want, f.name


@pytest.mark.parametrize("key", ["eps_x", "delta2", "trace_mode"])
def test_config_removed_key_exits_2(tmp_path, key):
    """Keys no run read (the oracle perturbation, the inner-product failure
    probability) or only tests set (a classical Tr(D)) are not keys."""
    csv = toy_csv(tmp_path / "v.csv")
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out),
                            **{key: 0.01})
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        RunConfig.from_file(cfg_file)
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert not out.exists()


def test_config_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("p = not_a_number\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(path)


def test_config_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nlambda = 0.25  # trailing\n")
    cfg = RunConfig.from_file(path)
    assert cfg.lambda_ == 0.25


# ---------------------------------------------------------------------------
# CLI

def test_cli_missing_input_exits_2_no_partial_report(tmp_path):
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(tmp_path / "nope.csv"),
                            output=str(out))
    code = main(["run", "--config", str(cfg_file)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--verify-only"]], ids=["run", "verify-only"])
def test_cli_unknown_norm_case_exits_2_no_report(tmp_path, flags):
    csv = toy_csv(tmp_path / "v.csv")
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out),
                            norm_case="Unit")
    code = main(["run", "--config", str(cfg_file)] + flags)
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("sim_path", "qsp"), ("sim_eps", 0), ("sim_eps", 2), ("d", 0), ("d", -1),
    ("qpe_bits", 0), ("qpe_shots", 0), ("eps_d", "nan"), ("eps_d", "inf"),
    ("delta1", 2), ("delta1", -1), ("delta1", "nan"), ("fixed_point_bits", 1),
    ("exp_gate_order", -1), ("lambda", "inf")])
def test_cli_out_of_range_key_exits_2_before_any_stage(tmp_path, monkeypatch,
                                                       key, value):
    """An out-of-range run key is a configuration error, refused before the
    graph-model stage starts."""
    def no_stage(*args, **kwargs):
        raise AssertionError("the graph-model stage ran")
    monkeypatch.setattr(spectral, "build_graph", no_stage)
    csv = toy_csv(tmp_path / "v.csv")
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out),
                            **{key: value})
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--verify-only"]], ids=["run", "verify-only"])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_cli_negative_seed_exits_2_before_any_stage(tmp_path, monkeypatch, capsys,
                                                    flags, source):
    """A negative seed is refused with the other out-of-range keys, in both
    modes, before the graph-model stage starts."""
    def no_stage(*args, **kwargs):
        raise AssertionError("the graph-model stage ran")
    monkeypatch.setattr(spectral, "build_graph", no_stage)
    csv = toy_csv(tmp_path / "v.csv")
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out),
                            seed=-1 if source == "config" else 7)
    argv = ["run", "--config", str(cfg_file)] + flags
    if source == "flag":
        argv += ["--seed", "-1"]
    assert main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().out.startswith("error: seed must be nonnegative")


@pytest.mark.parametrize("flags", [[], ["--verify-only"]], ids=["run", "verify-only"])
@pytest.mark.parametrize("n", [3, 6])
def test_cli_vertex_count_not_a_power_of_two_exits_2_at_load(tmp_path, monkeypatch,
                                                             capsys, flags, n):
    """The circuits index vertices with log2 n qubits: any other count is
    refused when the vertices load, naming the count, before any stage."""
    def no_stage(*args, **kwargs):
        raise AssertionError("the graph-model stage ran")
    monkeypatch.setattr(spectral, "build_graph", no_stage)
    rng = np.random.default_rng(n)
    csv = tmp_path / "v.csv"
    csv.write_text("".join(f"{a:.17g},{b:.17g}\n"
                           for a, b in 0.4 * rng.standard_normal((n, 2))))
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out))
    assert main(["run", "--config", str(cfg_file)] + flags) == 2
    assert not out.exists()
    assert capsys.readouterr().out == (
        f"error: the vertex count must be a power of two, at least 2; got {n}\n")


def test_cli_dimension_is_zero_padded(tmp_path):
    """An m = 3 input runs, and its report is byte for byte the report of
    the same vertices with an explicit zero column (m = 4)."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3))
    x *= rng.uniform(0.35, 0.55, size=(4, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    reports = []
    for cols in (x, np.hstack([x, np.zeros((4, 1))])):
        csv = tmp_path / f"v{cols.shape[1]}.csv"
        csv.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n"
                               for row in cols))
        out = tmp_path / f"report{cols.shape[1]}.json"
        cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out))
        assert main(["run", "--config", str(cfg_file)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("text", ["5", '{"vertices": {"a": 1}}', "[[0.5, 0.1]]",
                                  '{"vertices": [[0.5, 0.1], [0.1]]}'],
                         ids=["number", "object-rows", "list", "ragged-rows"])
def test_cli_malformed_json_vertices_exits_2_no_report(tmp_path, capsys, text):
    """A JSON vertex file that is not an object holding numeric rows is an
    input error, not a traceback."""
    path = tmp_path / "v.json"
    path.write_text(text)
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(path), output=str(out))
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out.startswith("error: ")


def test_cli_oversized_qpe_register_exits_2_no_report(tmp_path, capsys):
    """2^40 phase bins are refused before allocation."""
    csv = toy4_csv(tmp_path / "v.csv")
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out),
                            qpe_bits=40)
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert not out.exists()
    assert "desk-scale" in capsys.readouterr().out


def test_cli_oversized_qpe_register_names_qpe_bits(tmp_path, capsys):
    """Phase estimation's refusal names its own knobs and counts what it
    would hold at n = 4: the basis Q, n x n, the running products of the
    eigenvalues, n (2^20 + 2^20), and 2^40 trace moments."""
    csv = toy4_csv(tmp_path / "v.csv")
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv),
                            output=str(tmp_path / "report.json"), qpe_bits=40)
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().out == (
        "error: [stage:phase-estimation] 40-bit phase estimation's "
        "eigenbasis and moments: instance needs 1099520016400 dense amplitudes, "
        "beyond the desk-scale budget of 33554432; use fewer qpe_bits or "
        "fewer vertices\n")


def general_csv(path, n):
    """n general-norm vertices in R^2, drawn as the benchmark draws them."""
    rng = np.random.default_rng([301, 0])
    x = rng.standard_normal((n, 2))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(0.35, 0.55, size=(n, 1))
    path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in x))
    return path


@pytest.mark.parametrize("n,sim_eps,names", [
    (16, 1e-13, "sim_eps = 1e-13 needs a series order above MAX_TAYLOR_ORDER = 12"),
    (32, 1e-8, "beyond LCU_MAX_AMPLITUDES = 2097152"),
], ids=["order", "amplitudes"])
def test_cli_metered_path_limits_exit_2_no_report(tmp_path, capsys, n, sim_eps,
                                                  names):
    """The metered path's limits are instance limits, as the desk-scale
    guard is: a sim_eps that needs a series order above MAX_TAYLOR_ORDER, or
    an order whose state exceeds LCU_MAX_AMPLITUDES, exits 2 naming the
    setting, with no report."""
    csv = general_csv(tmp_path / "v.csv", n)
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out),
                            norm_case="general", sim_path="lcu_taylor",
                            sim_eps=sim_eps)
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert not out.exists()
    text = capsys.readouterr().out
    assert text.startswith("error: [stage:simulation] lcu_taylor: ")
    assert names in text


def test_cli_verify_only_desk_scale_unit_norm_weight_target(tmp_path):
    """A unit-norm W run at n = 64, m = 4, p = 6 prepares 2^21 amplitudes,
    within the desk-scale guard, and its encodings verify (exit 0)."""
    rng = np.random.default_rng([301, 0])
    x = rng.standard_normal((64, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    csv = tmp_path / "v.csv"
    csv.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in x))
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out),
                            target="W")
    assert main(["run", "--config", str(cfg_file), "--verify-only"]) == 0
    assert json.loads(out.read_text())["norm_case"] == "unit"


def test_cli_two_vertex_run(tmp_path):
    csv = toy_csv(tmp_path / "v.csv")
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out))
    code = main(["run", "--config", str(cfg_file)])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["eigenvalues"]) == 1
    assert report["eigenvalues"][0] == pytest.approx(1.0, abs=0.05)
    assert report["verify_only"] is False


def test_cli_verify_only_flag(tmp_path):
    csv = toy_csv(tmp_path / "v.csv")
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out))
    code = main(["run", "--config", str(cfg_file), "--verify-only"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verify_only"] is True
    assert "qpe" not in report  # phase estimation skipped
    assert all(c["pass"] for c in report["checks"])
    # the configured input's encodings are verified too
    assert all(r["pass"] for r in report["encoding_verifications"])
    assert "graph_matrices" in report


def test_cli_overrides(tmp_path):
    csv = toy_csv(tmp_path / "v.csv")
    out1 = tmp_path / "a.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv),
                            output=str(tmp_path / "ignored.json"))
    code = main(["run", "--config", str(cfg_file), "--out", str(out1),
                 "--seed", "13", "--target", "W"])
    assert code == 0
    report = json.loads(out1.read_text())
    assert report["target"] == "W"


def test_cli_deterministic_replay(tmp_path):
    csv = toy_csv(tmp_path / "v.csv")
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv),
                            output=str(tmp_path / "r1.json"))
    assert main(["run", "--config", str(cfg_file)]) == 0
    first = (tmp_path / "r1.json").read_bytes()
    assert main(["run", "--config", str(cfg_file), "--out",
                 str(tmp_path / "r2.json")]) == 0
    second = (tmp_path / "r2.json").read_bytes()
    assert first == second


def count_weight_builds(monkeypatch):
    calls = []
    real = blockenc.build_weight_state

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(blockenc, "build_weight_state", counting)
    return calls


def test_cli_dump_state(tmp_path, monkeypatch):
    calls = count_weight_builds(monkeypatch)
    csv = toy_csv(tmp_path / "v.csv")
    dump = tmp_path / "state.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv),
                            output=str(tmp_path / "r.json"))
    assert main(["run", "--config", str(cfg_file), "--dump-state", str(dump)]) == 0
    assert len(calls) == 1  # the dump reuses the run's weight-state build
    payload = json.loads(dump.read_text())
    assert payload["registers"][0][0] == "idx"
    assert len(payload["branches"]) >= 1
    total = sum(sum(r * r + i * i for r, i in zip(b["re"], b["im"]))
                for b in payload["branches"])
    assert total == pytest.approx(1.0, abs=1e-9)
    # same bytes as a dump of a separately built weight state
    cfg = RunConfig.from_file(cfg_file)
    fresh = build_weight_state(load_vertices(str(csv)), KernelParams(cfg.lambda_, cfg.p),
                               cfg.pipeline_config().prep, cfg.norm_case)
    assert dump.read_text() == dump_json(_state_dump(fresh.state))


def test_cli_dump_state_verify_only(tmp_path, monkeypatch):
    calls = count_weight_builds(monkeypatch)
    monkeypatch.setattr(harness, "run_checks", lambda size: [])  # own builds
    csv = toy_csv(tmp_path / "v.csv")
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv),
                            output=str(tmp_path / "r.json"))
    dumps = [tmp_path / "run.json", tmp_path / "verify.json"]
    assert main(["run", "--config", str(cfg_file), "--dump-state", str(dumps[0])]) == 0
    assert main(["run", "--config", str(cfg_file), "--verify-only",
                 "--dump-state", str(dumps[1])]) == 0
    assert len(calls) == 2  # one build per run, the dump included
    assert dumps[0].read_bytes() == dumps[1].read_bytes()


@pytest.mark.parametrize("target", ["L", "Ls", "Lr", "W"])
def test_verify_only_checks_the_encoding_the_run_simulates(tmp_path, monkeypatch,
                                                          target):
    """--verify-only writes the run's graph-model and encoding records
    byte for byte: the same encoding verifications, graph matrices and
    report header."""
    monkeypatch.setattr(harness, "run_checks", lambda size: [])
    csv = toy4_csv(tmp_path / "v.csv")
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), target=target)
    outs = [tmp_path / "run.json", tmp_path / "verify.json"]
    assert main(["run", "--config", str(cfg_file), "--out", str(outs[0])]) == 0
    assert main(["run", "--config", str(cfg_file), "--verify-only",
                 "--out", str(outs[1])]) == 0
    ran, verified = (json.loads(p.read_text()) for p in outs)
    assert dump_json(verified["encoding_verifications"]) == \
        dump_json(ran["encoding_verifications"])
    assert verified["verify_only"] is True and verified["checks"] == []
    shared = [key for key in verified if key not in ("verify_only", "checks")]
    assert dump_json({k: verified[k] for k in shared}) == \
        dump_json({k: ran[k] for k in shared})


def raise_in_qpe(monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc
    monkeypatch.setattr(spectral, "run_qpe", broken)


def test_cli_internal_error_exits_3_no_report(tmp_path, monkeypatch, capsys):
    raise_in_qpe(monkeypatch, TypeError("unsupported operand"))
    csv = toy_csv(tmp_path / "v.csv")
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out))
    assert main(["run", "--config", str(cfg_file)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError" in err


@pytest.mark.parametrize("exc", [spectral.SimulationError("eps out of range"),
                                 OverflowError("value exceeds fixed-point range")],
                         ids=["SimulationError", "OverflowError"])
def test_cli_stage_failure_exits_1(tmp_path, monkeypatch, capsys, exc):
    raise_in_qpe(monkeypatch, exc)
    csv = toy_csv(tmp_path / "v.csv")
    out = tmp_path / "report.json"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(out))
    assert main(["run", "--config", str(cfg_file)]) == 1
    assert not out.exists()
    assert "verification failure" in capsys.readouterr().out


def test_verify_subcommand_deterministic(tmp_path):
    out1, out2 = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
    assert main(["verify", "--sizes", "small", "--out", str(out1)]) == 0
    assert main(["verify", "--sizes", "small", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    names = {json.loads(line)["check"] for line in lines}
    # the propagation checks are always present
    assert "state_error_propagation" in names
    assert "tensor_power_propagation" in names
    assert all(json.loads(line)["pass"] for line in lines)


def raise_in_check(monkeypatch, exc):
    def broken():
        raise exc
    monkeypatch.setitem(checks.CHECKS, "small", [checks.check_truncation_monotone, broken])


@pytest.mark.parametrize("exc", [TypeError("unsupported operand"),
                                 ValueError("truth value of an array is ambiguous")],
                         ids=["TypeError", "ValueError"])
def test_verify_internal_error_exits_3_no_file(tmp_path, monkeypatch, capsys, exc):
    """A bug inside a check is neither a configuration error (2) nor a failed
    verification (1)."""
    raise_in_check(monkeypatch, exc)
    out = tmp_path / "checks.jsonl"
    assert main(["verify", "--sizes", "small", "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" in err and type(exc).__name__ in err


@pytest.mark.parametrize("exc", [spectral.SimulationError("budget violated"),
                                 OverflowError("value exceeds fixed-point range")],
                         ids=["SimulationError", "OverflowError"])
def test_verify_check_failure_exits_1(tmp_path, monkeypatch, capsys, exc):
    raise_in_check(monkeypatch, exc)
    out = tmp_path / "checks.jsonl"
    assert main(["verify", "--sizes", "small", "--out", str(out)]) == 1
    assert not out.exists()
    assert "verification failure" in capsys.readouterr().out


def test_verify_unknown_size_exits_2_before_running(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "run_checks", lambda size: ran.append(size) or [])
    out = tmp_path / "checks.jsonl"
    assert harness.verify_suite("large", str(out)) == 2
    assert ran == [] and not out.exists()


def test_float_serialization_17_digits():
    text = dump_json({"x": 1.0 / 3.0, "v": [1.5, 2]})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == 1.0 / 3.0  # bit-faithful round trip


def test_report_written_atomically(tmp_path):
    # a failed run must not leave a temp or partial file behind
    cfg_file = write_config(tmp_path / "run.cfg", input=str(tmp_path / "none.csv"),
                            output=str(tmp_path / "r.json"))
    main(["run", "--config", str(cfg_file)])
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".report-")]
    assert leftovers == []


def test_written_files_take_the_umask_mode(tmp_path):
    """A report and a check file are written at 0o666 less the umask, as
    ``open(path, "w")`` writes them, an overwritten file included."""
    csv = toy_csv(tmp_path / "v.csv")
    report, lines = tmp_path / "report.json", tmp_path / "checks.jsonl"
    cfg_file = write_config(tmp_path / "run.cfg", input=str(csv), output=str(report))
    mask = os.umask(0o022)
    try:
        for _ in range(2):
            assert main(["run", "--config", str(cfg_file)]) == 0
            assert main(["verify", "--sizes", "small", "--out", str(lines)]) == 0
            assert {report.stat().st_mode & 0o777, lines.stat().st_mode & 0o777} \
                == {0o644}
            report.chmod(0o600)
            lines.chmod(0o600)
    finally:
        os.umask(mask)


def test_cold_run_leaves_scipy_unimported(tmp_path):
    """``qlapeig`` runs on NumPy alone: an n = 4 run in a fresh interpreter
    never imports ``scipy``, which only the tests and a demo need."""
    rng = np.random.default_rng([301, 4])
    x = rng.standard_normal((4, 2))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(0.35, 0.55, size=(4, 1))
    vertices = tmp_path / "vertices.csv"
    vertices.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in x))
    config = write_config(tmp_path / "run.cfg", input=vertices, norm_case="general",
                          qpe_bits=10, qpe_shots=8192,
                          output=tmp_path / "report.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ("import sys\nfrom qlapeig.cli import main\n"
              f"code = main(['run', '--config', {str(config)!r}])\n"
              "print(code, 'scipy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]
