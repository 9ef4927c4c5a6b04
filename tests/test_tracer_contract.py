"""Guard on the benchmark's tracing contract: ``perfbench/tracer.py`` wraps
qlapeig functions and ``SimState`` methods by name, so renaming or deleting
one of them breaks traced benchmark runs.  Installing the tracer looks every
name up; this test fails when one has gone."""

import importlib.util
from pathlib import Path

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
