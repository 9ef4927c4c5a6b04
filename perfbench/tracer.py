"""Outside-in tracer: wraps qlapeig's public functions and ``SimState``
methods where the pipeline looks them up at call time, and records one span
per call.

Every module-level function is replaced in each qlapeig module that binds it
(``from .x import f`` copies included; ``full_pipeline``'s local imports read
the module attribute at call time) and in the ``checks.CHECKS`` suites, which
hold some check functions directly.  Methods are replaced on their class.

A span is ``[name, start, end, parent, job, counts]``: parent is the index of
the enclosing span (-1 at a job root) and counts come from the call's return
value or the state it acted on.  Spans stay in memory; ``layer_metrics``
turns them into per-layer self times and counts after the pass.

``Tracer.overhead_s`` estimates what tracing added to the pass: the number of
spans times the cost of one wrapper, measured on an empty call in the same
process, plus the time the count probes took.  Subtracting an untraced pass
from a traced one would mostly measure the machine's noise.
"""

import functools
import importlib
import json
import time

MODULES = ("arith", "blockenc", "checks", "cli", "graph", "harness", "sim",
           "spectral", "stateprep")
STATE_BYTES = 16  # complex128 amplitude


def _state_counts(state):
    return {"branches": len(state.branches),
            "cells": sum(v.size for v in state.branches.values())}


def _self_state(out, args):
    return _state_counts(args[0])


def _out_state(out, args):
    return _state_counts(out)


def _split_counts(out, args):
    return {"branches": len(out), "cells": sum(v.size for v in out.values())}


def _amp_counts(out, args):
    stats = out[1]
    return {"iterations": stats.iterations, "residual": stats.residual}


def _encoding_counts(out, args):
    enc = getattr(out, "encoding", out)
    if enc.backend == "dense":
        return {"dense_dim": enc.unitary.shape[0]}
    return None


def _query_counts(out, args):
    return {"queries": out.meta.get("query_count") or 0}


def _check_counts(out, args):
    return {"trials": out["trials"], "violations": out["violations"]}


def _text_bytes(out, args):
    return {"bytes": len(out.encode())}


# (span name, module, attribute, self-time metric, counts probe).  The
# attribute is a function of the module or "Class.method".
TARGETS = [
    ("graph.from_vectors", "graph", "VertexSet.from_vectors", "graph.s", None),
    ("graph.build_weight_matrix", "graph", "build_weight_matrix", "graph.s", None),
    ("graph.build_taylor_weight_matrix", "graph", "build_taylor_weight_matrix",
     "graph.s", None),
    ("graph.build_laplacians", "graph", "build_laplacians", "graph.s", None),
    ("graph.build_graph", "graph", "build_graph", "graph.s", None),
    ("graph.classical_eigensolve", "graph", "classical_eigensolve", "graph.s", None),
    ("graph.load_vertices_csv", "graph", "load_vertices_csv", "graph.s", None),
    ("graph.graph_matrices_to_json", "graph", "graph_matrices_to_json", "graph.s",
     None),

    ("sim.split_by", "sim", "SimState.split_by", "sim.split_by_s", _split_counts),
    ("sim.predicate_mask", "sim", "SimState.predicate_mask", "sim.predicate_mask_s",
     _self_state),
    ("sim.apply_dense", "sim", "SimState.apply_dense", "sim.apply_dense_s",
     _self_state),
    ("sim.apply_label_map", "sim", "SimState.apply_label_map",
     "sim.apply_label_map_s", _self_state),
    ("sim.reflect_about", "sim", "SimState.reflect_about", "sim.reflect_about_s",
     _self_state),
    ("sim.partial_trace", "sim", "partial_trace", "sim.partial_trace_s",
     _self_state),
    ("sim.copy", "sim", "SimState.copy", "sim.other_s", _out_state),
    ("sim.apply_branch_dense", "sim", "SimState.apply_branch_dense", "sim.other_s",
     _self_state),
    ("sim.project", "sim", "SimState.project", "sim.other_s", _self_state),
    ("sim.marginal", "sim", "SimState.marginal", "sim.other_s", None),
    ("sim.dense_vector", "sim", "SimState.dense_vector", "sim.other_s", None),
    ("sim.sample_measurement", "sim", "sample_measurement", "sim.other_s", None),
    ("sim.operator_norm_distance", "sim", "operator_norm_distance", "sim.other_s",
     None),

    ("arith.multiply_labels", "arith", "multiply_labels", "arith.s", None),
    ("arith.exp_neg_lambda_label", "arith", "exp_neg_lambda_label", "arith.s", None),
    ("arith.rotation_matrix", "arith", "rotation_matrix", "arith.s", None),

    ("stateprep.build_phi_state", "stateprep", "build_phi_state", "stateprep.self_s",
     None),
    ("stateprep.build_psi_state", "stateprep", "build_psi_state", "stateprep.self_s",
     None),
    ("stateprep.build_degree_state", "stateprep", "build_degree_state",
     "stateprep.self_s", None),
    ("stateprep.amplitude_amplification", "stateprep", "amplitude_amplification",
     "stateprep.amp_s", _amp_counts),
    ("stateprep.apply_R_U", "stateprep", "apply_R_U", "stateprep.self_s", None),
    ("stateprep.distance_estimation", "stateprep", "distance_estimation",
     "stateprep.self_s", None),
    ("stateprep.inner_product_estimation", "stateprep", "inner_product_estimation",
     "stateprep.self_s", None),
    ("stateprep.coefficient_unitary", "stateprep", "coefficient_unitary",
     "stateprep.self_s", None),
    ("stateprep.completion_unitary", "stateprep", "completion_unitary",
     "stateprep.self_s", None),
    ("stateprep.sphere_perturb", "stateprep", "sphere_perturb", "stateprep.self_s",
     None),

    ("blockenc.identity_mixture_encoding", "blockenc", "identity_mixture_encoding",
     "blockenc.identity_mixture_s", _encoding_counts),
    ("blockenc.purified_density_encoding", "blockenc", "purified_density_encoding",
     "blockenc.purified_encoding_s", _encoding_counts),
    ("blockenc.lcu_combine", "blockenc", "lcu_combine", "blockenc.lcu_combine_s",
     _encoding_counts),
    ("blockenc.sandwich_negative_power", "blockenc", "sandwich_negative_power",
     "blockenc.sandwich_s", None),
    ("blockenc.encoding_report", "blockenc", "encoding_report", "blockenc.report_s",
     None),
    ("blockenc.encode_calL", "blockenc", "encode_calL", "blockenc.other_s",
     _encoding_counts),
    ("blockenc.encode_barL_unit_norm", "blockenc", "encode_barL_unit_norm",
     "blockenc.other_s", _encoding_counts),
    ("blockenc.encode_W_over_n", "blockenc", "encode_W_over_n", "blockenc.other_s",
     _encoding_counts),
    ("blockenc.make_signed_pair", "blockenc", "make_signed_pair", "blockenc.other_s",
     None),
    ("blockenc.dilate", "blockenc", "dilate", "blockenc.other_s", _encoding_counts),
    ("blockenc.verify_block_encoding", "blockenc", "verify_block_encoding",
     "blockenc.other_s", None),
    ("blockenc.taylor_consistent_reference", "blockenc",
     "taylor_consistent_reference", "blockenc.other_s", None),
    ("blockenc.w_consistent_reference", "blockenc", "w_consistent_reference",
     "blockenc.other_s", None),
    ("blockenc.block", "blockenc", "BlockEncoding.block", "blockenc.other_s", None),

    ("spectral.full_pipeline", "spectral", "full_pipeline", "spectral.other_s", None),
    ("spectral.simulate_hamiltonian", "spectral", "simulate_hamiltonian",
     "spectral.simulate_s", _query_counts),
    ("spectral.run_qpe", "spectral", "run_qpe", "spectral.qpe_s", None),
    ("spectral.extract_d_smallest", "spectral", "extract_d_smallest",
     "spectral.extract_s", None),
    ("spectral.recover_Lr_eigenvectors", "spectral", "recover_Lr_eigenvectors",
     "spectral.recover_s", None),

    ("harness.run", "harness", "run", "harness.other_s", None),
    ("harness.verify_suite", "harness", "verify_suite", "harness.other_s", None),
    ("harness.from_file", "harness", "RunConfig.from_file", "harness.config_s", None),
    ("harness.load_vertices", "harness", "load_vertices", "harness.other_s", None),
    ("harness.dump_json", "harness", "dump_json", "harness.report_s", _text_bytes),
    ("harness.write_atomic", "harness", "write_atomic", "harness.report_s", None),
]

BUDGET_CHECKS = ("check_state_error_propagation", "check_tensor_power_propagation",
                 "check_phi_budget", "check_psi_budget", "check_degree_budget",
                 "check_lcu_parameter_law", "check_exp_gate_bound")
IDENTITY_CHECKS = ("check_rho0_identity", "check_rho1_identity",
                   "check_degree_identity", "check_purified_encoding_exactness",
                   "check_laplacian_annihilator", "check_cross_path",
                   "check_truncation_monotone")
TARGETS += [(f"checks.{f}", "checks", f, "checks.budget_s", _check_counts)
            for f in BUDGET_CHECKS]
TARGETS += [(f"checks.{f}", "checks", f, "checks.identity_s", _check_counts)
            for f in IDENTITY_CHECKS]

SELF_METRIC = {name: metric for name, _, _, metric, _ in TARGETS}
INCLUSIVE = {"stateprep.phi_s": "stateprep.build_phi_state",
             "stateprep.psi_s": "stateprep.build_psi_state",
             "stateprep.degree_s": "stateprep.build_degree_state"}
LABEL_OPS = ("arith.multiply_labels", "arith.exp_neg_lambda_label")
BUILDS = tuple(INCLUSIVE.values())

# every per-layer metric a traced pass reports, in output order
METRICS = [
    ("graph.s", "s"),
    ("sim.split_by_s", "s"), ("sim.predicate_mask_s", "s"),
    ("sim.apply_dense_s", "s"), ("sim.apply_label_map_s", "s"),
    ("sim.reflect_about_s", "s"), ("sim.partial_trace_s", "s"),
    ("sim.other_s", "s"), ("sim.branches_peak", "count"),
    ("sim.state_cells_peak", "count"), ("sim.state_mb_peak", "MB"),
    ("arith.label_ops", "count"), ("arith.s", "s"),
    ("stateprep.phi_s", "s"), ("stateprep.psi_s", "s"),
    ("stateprep.degree_s", "s"), ("stateprep.self_s", "s"),
    ("stateprep.builds", "count"), ("stateprep.amp_s", "s"),
    ("stateprep.amp_iterations", "count"), ("stateprep.amp_residual_max", "ratio"),
    ("blockenc.identity_mixture_s", "s"), ("blockenc.purified_encoding_s", "s"),
    ("blockenc.lcu_combine_s", "s"), ("blockenc.sandwich_s", "s"),
    ("blockenc.report_s", "s"), ("blockenc.other_s", "s"),
    ("blockenc.dense_unitary_dim_max", "count"), ("blockenc.dense_unitary_mb", "MB"),
    ("spectral.simulate_s", "s"), ("spectral.queries", "count"),
    ("spectral.qpe_s", "s"), ("spectral.extract_s", "s"),
    ("spectral.recover_s", "s"), ("spectral.other_s", "s"),
    ("checks.budget_s", "s"), ("checks.identity_s", "s"),
    ("checks.trials", "count"), ("checks.violations", "count"),
    ("harness.config_s", "s"), ("harness.report_s", "s"),
    ("harness.report_bytes", "count"), ("harness.other_s", "s"),
    ("trace.job_s", "s"), ("trace.spans", "count"), ("trace.overhead_s", "s"),
]
# metrics that must repeat exactly between passes of the same jobs
COUNT_METRICS = tuple(name for name, unit in METRICS if unit != "s")


class Tracer:
    """Span recorder; ``install`` patches qlapeig, ``uninstall`` restores it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.job = None
        self.probe_s = 0.0
        self._undo = []

    def span(self, name, probe=None):
        """Decorator recording one span per call of the wrapped function."""
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                       self.job, None]
                self.stack.append(len(self.spans))
                self.spans.append(rec)
                rec[1] = self.clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = self.clock()
                    self.stack.pop()
                if probe is not None:
                    t = self.clock()
                    rec[5] = probe(out, args)
                    self.probe_s += self.clock() - t
                return out
            return traced
        return wrap

    def overhead_s(self):
        """Estimated time tracing added: spans x wrapper cost + probe time."""
        return len(self.spans) * span_cost() + self.probe_s

    def run_job(self, job_id, fn, *args):
        """Run one job under a root span named ``job``."""
        self.job = job_id
        try:
            return self.span("job")(fn)(*args)
        finally:
            self.job = None

    def install(self):
        mods = {m: importlib.import_module(f"qlapeig.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module("qlapeig")
        for name, home, attr, _, probe in TARGETS:
            owner = mods[home]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.span(name, probe)(raw.__func__))
                else:
                    new = self.span(name, probe)(raw)
                self._set(cls, meth, new)
                continue
            orig = getattr(owner, attr)
            new = self.span(name, probe)(orig)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, new)
            for suite in mods["checks"].CHECKS.values():
                for i, fn in enumerate(suite):
                    if fn is orig:
                        self._undo.append((suite, i, fn))
                        suite[i] = new

    def _set(self, obj, key, new):
        self._undo.append((obj, key, obj.__dict__[key]))
        setattr(obj, key, new)

    def uninstall(self):
        for obj, key, old in reversed(self._undo):
            if isinstance(obj, list):
                obj[key] = old
            else:
                setattr(obj, key, old)
        self._undo = []

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, job, counts."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def span_cost(calls=20000, repeats=5):
    """Seconds a wrapper adds to one call: the best of ``repeats`` loops of
    ``calls`` calls to an empty function, wrapped minus bare."""
    def empty():
        return None

    def best(fn):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    wrapped = Tracer().span("calibrate")(empty)
    return max(best(wrapped) - best(empty), 0.0) / calls


def self_times(spans):
    """Per-span self time: duration minus the time of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, *_), c in zip(spans, child)]


def layer_metrics(spans):
    """Per-layer metric values from a traced pass (trace.overhead_s aside)."""
    out = {name: 0 if unit == "count" else 0.0 for name, unit in METRICS}
    del out["trace.overhead_s"]
    for (name, start, end, parent, job, counts), own in zip(spans, self_times(spans)):
        metric = SELF_METRIC.get(name)
        if metric:
            out[metric] += own
        if name == "job":
            out["trace.job_s"] += end - start
        if name in BUILDS:
            out["stateprep.builds"] += 1
        if name in LABEL_OPS:
            out["arith.label_ops"] += 1
        if not counts:
            continue
        if "cells" in counts:
            out["sim.branches_peak"] = max(out["sim.branches_peak"], counts["branches"])
            out["sim.state_cells_peak"] = max(out["sim.state_cells_peak"],
                                              counts["cells"])
        if "iterations" in counts:
            out["stateprep.amp_iterations"] += counts["iterations"]
            out["stateprep.amp_residual_max"] = max(
                out["stateprep.amp_residual_max"], counts["residual"])
        if "dense_dim" in counts:
            out["blockenc.dense_unitary_dim_max"] = max(
                out["blockenc.dense_unitary_dim_max"], counts["dense_dim"])
        if "queries" in counts:
            out["spectral.queries"] += counts["queries"]
        if "trials" in counts:
            out["checks.trials"] += counts["trials"]
            out["checks.violations"] += counts["violations"]
        if "bytes" in counts:
            out["harness.report_bytes"] += counts["bytes"]
    for metric, name in INCLUSIVE.items():
        out[metric] = sum((end - start for n, start, end, *_ in spans if n == name),
                          0.0)
    out["sim.state_mb_peak"] = out["sim.state_cells_peak"] * STATE_BYTES / 2 ** 20
    dim = out["blockenc.dense_unitary_dim_max"]
    out["blockenc.dense_unitary_mb"] = dim * dim * STATE_BYTES / 2 ** 20
    out["trace.spans"] = len(spans)
    return out
