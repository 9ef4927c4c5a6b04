"""Guard on the benchmark's tracing contract: ``perfbench/tracer.py`` wraps
qlapeig functions and ``SimState`` methods by name, so renaming or deleting
one of them breaks traced benchmark runs.  Installing the tracer looks every
name up; the first test fails when one has gone, the second when a traced run
no longer yields every per-layer metric."""

import importlib.util
from pathlib import Path

import numpy as np

from qlapeig.sim import SimState

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer_mod = load_tracer()
    originals = {meth: SimState.__dict__[meth]
                 for meth in ("split_by", "predicate_mask", "project")}
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        for meth, fn in originals.items():
            assert SimState.__dict__[meth] is not fn, f"{meth} not wrapped"
    finally:
        tracer.uninstall()
    for meth, fn in originals.items():
        assert SimState.__dict__[meth] is fn


def test_traced_job_reports_every_metric(tmp_path):
    """One traced n=4 general-norm L run: ``layer_metrics`` must give every
    metric the benchmark declares, and the state probes must see amplitudes,
    so a change to what ``SimState`` or ``split_by`` hand back that breaks
    the probes fails here and not only in a traced benchmark run."""
    from qlapeig import harness

    tracer_mod = load_tracer()
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 2))
    x *= rng.uniform(0.35, 0.55, size=(4, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    csv = tmp_path / "v.csv"
    csv.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in x))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {csv}\ntarget = L\nnorm_case = general\nlambda = 0.5\n"
                   f"p = 6\nd = 1\nqpe_bits = 8\nqpe_shots = 1024\n"
                   f"output = {tmp_path / 'report.json'}\n")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        code = tracer.run_job("L-general-n4", lambda: harness.run(
            harness.RunConfig.from_file(str(cfg))))
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer_mod.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = tracer.overhead_s()
    assert set(metrics) == {name for name, _ in tracer_mod.METRICS}
    assert metrics["sim.state_cells_peak"] > 0
    assert metrics["sim.branches_peak"] > 0
    assert metrics["stateprep.builds"] == 2
