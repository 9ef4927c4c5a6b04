"""Batch harness: flat key=value run configuration, report persistence with
deterministic byte-identical serialization, and the machine-readable
verification suite."""

from __future__ import annotations

import os
import tempfile
import traceback
from dataclasses import dataclass, fields

import numpy as np

from .checks import CHECKS, run_checks
from .graph import (GraphError, KernelParams, VertexSet, graph_matrices_to_json,
                    load_vertices_csv, load_vertices_json)
from .sim import SimError
from .spectral import PipelineConfig, encode_target, full_pipeline
from .stateprep import EstimatorConfig, PrepConfig

__all__ = ["RunConfig", "run", "verify_suite", "dump_json", "ConfigError"]


class ConfigError(GraphError):
    """Malformed run configuration."""


@dataclass
class RunConfig:
    """Every field has a default; unknown keys in a config file are errors.

    input:            vertex CSV or JSON path ("" means not set); the number of
                      vertices is a power of two, at least 2, and zero
                      columns widen the dimension to one
    target:           L | Ls | Lr | W
    lambda_:          Gaussian kernel width (key "lambda" in files)
    p:                Taylor truncation order
    d:                number of nonzero eigenpairs to extract (at least 1)
    norm_case:        auto | unit | general
    estimator_mode:   exact | noisy
    eps_d:            distance-estimator precision (noisy mode), positive and
                      finite
    delta1:           probability that one noisy distance estimate fails,
                      its error then landing in (eps_d, 3 eps_d] (noisy
                      mode), in [0, 1/2]
    qpe_bits, qpe_shots, seed: phase-estimation settings (bits and shots at
                      least 1)
    fixed_point_bits, exp_gate_order: arithmetic widths
    sim_path:         oracle_exponential | lcu_taylor
    sim_eps:          simulation error budget, in (0, 1)
    output:           report path
    """

    input: str = ""
    target: str = "L"
    lambda_: float = 0.5
    p: int = 4
    d: int = 1
    norm_case: str = "auto"
    estimator_mode: str = "exact"
    eps_d: float = 1e-6
    delta1: float = 0.05
    qpe_bits: int = 8
    qpe_shots: int = 4096
    seed: int = 7
    fixed_point_bits: int = 44
    exp_gate_order: int = 24
    sim_path: str = "oracle_exponential"
    sim_eps: float = 1e-6
    output: str = "report.json"

    _ALIASES = {"lambda": "lambda_"}

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        cfg = cls()
        known = {f.name for f in fields(cls)}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, val = (part.strip() for part in line.split("=", 1))
                key = cls._ALIASES.get(key, key)
                if key not in known or key.startswith("_"):
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                current = getattr(cfg, key)
                try:
                    if isinstance(current, int):
                        parsed = int(val)
                    elif isinstance(current, float):
                        parsed = float(val)
                    else:
                        parsed = val
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
                setattr(cfg, key, parsed)
        return cfg

    def pipeline_config(self) -> PipelineConfig:
        est = EstimatorConfig(mode=self.estimator_mode, eps_d=self.eps_d,
                              delta1=self.delta1, seed=self.seed)
        prep = PrepConfig(bits=self.fixed_point_bits,
                          exp_order=self.exp_gate_order, seed=self.seed)
        return PipelineConfig(
            target=self.target, d=self.d, norm_case=self.norm_case,
            estimator=est, prep=prep, sim_path=self.sim_path,
            sim_eps=self.sim_eps, qpe_bits=self.qpe_bits,
            qpe_shots=self.qpe_shots, seed=self.seed)


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats

def _format(value, out):
    if isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(value):
            if i:
                out.append(",")
            out.append(f'"{key}":')
            _format(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds == {float}:
            text = ",".join(map("%.17g".__mod__, value))
            if "n" not in text:  # no nan or inf, which print quoted
                out.append(f"[{text}]")
                return
        elif kinds == {int}:
            out.append(f"[{','.join(map(str, value))}]")
            return
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _format(item, out)
        out.append("]")
    elif isinstance(value, (bool, np.bool_)) or value is None:
        out.append("true" if value else ("null" if value is None else "false"))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        out.append(f"{v:.17g}" if np.isfinite(v) else f'"{v!r}"')
    else:
        escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'"{escaped}"')


def dump_json(obj) -> str:
    out = []
    _format(obj, out)
    return "".join(out)


def write_atomic(path: str, text: str):
    """Write ``text`` to ``path`` through a temporary file and a rename, at
    the mode ``open(path, "w")`` would give a new file (0o666 less the
    umask), not the 0o600 of ``mkstemp``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as fh:
            mask = os.umask(0o022)  # the umask is read by setting it
            os.umask(mask)
            os.fchmod(fd, 0o666 & ~mask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# entry points

def load_vertices(path: str) -> VertexSet:
    if path.endswith(".json"):
        return load_vertices_json(path)
    return load_vertices_csv(path)


def run(config: RunConfig, verify_only: bool = False,
        dump_state: str = "") -> int:
    """Execute the pipeline per config.  Returns the process exit code:
    0 ok, 1 verification failure (a failed check, or a ``SimError`` or
    fixed-point ``OverflowError`` raised by a stage), 2 I/O or configuration
    error, 3 internal error (any other exception: its traceback goes to
    stderr and no report is written)."""
    try:
        if not config.input:
            raise ConfigError("config is missing the input path")
        vs = load_vertices(config.input)
        kp = KernelParams(config.lambda_, config.p)
    except (OSError, GraphError, ValueError) as exc:
        print(f"error: {exc}")
        return 2

    try:
        pcfg = config.pipeline_config()
        if verify_only:
            report, weight_build = _verify_only_report(vs, kp, pcfg)
            ok = (all(c["pass"] for c in report["checks"])
                  and all(r["pass"] for r in report["encoding_verifications"]))
        else:
            result, report = full_pipeline(vs, kp, pcfg)
            weight_build = result.weight_build
            ok = all(r["pass"] for r in report["encoding_verifications"])
            report["verify_only"] = False
        if dump_state:
            write_atomic(dump_state, dump_json(_state_dump(weight_build.state)))
        write_atomic(config.output, dump_json(report))
    except (OSError, GraphError) as exc:
        print(f"error: {exc}")
        return 2
    except (SimError, OverflowError) as exc:  # tagged with their stage
        print(f"verification failure: {type(exc).__name__}: {exc}")
        return 1
    except Exception:
        traceback.print_exc()
        return 3
    return 0 if ok else 1


def _verify_only_report(vs, kp, pcfg):
    """The run's graph model and block-encoding stages with their
    verification records, plus the generic invariant battery; simulation and
    phase estimation skipped.  Returns the report and the weight-state build
    the encodings used."""
    enc = encode_target(vs, kp, pcfg)
    report = enc.header
    report["verify_only"] = True
    report["graph_matrices"] = graph_matrices_to_json(enc.gm)
    report["encoding_verifications"] = enc.verifications
    report["checks"] = run_checks("small")
    return report, enc.combination.components["weight_build"]


def _state_dump(state) -> dict:
    """Debug dump of the weight-preparation state: labels plus amplitudes."""
    branches = []
    for labels, vec in sorted(state.branches.items()):
        branches.append({
            "labels": list(labels),
            "shape": list(vec.shape),
            "re": [float(x) for x in vec.real.ravel()],
            "im": [float(x) for x in vec.imag.ravel()],
        })
    return {
        "registers": [[r.name, r.qubits, r.kind] for r in state.layout.registers],
        "branches": branches,
    }


def verify_suite(size: str = "small", out_path: str | None = None) -> int:
    """Run the invariant battery; one JSON line per check.  Returns the
    process exit code: 0 every check passes, 1 verification failure (a failed
    check, or a ``SimError`` or fixed-point ``OverflowError`` raised by one),
    2 unknown suite size or I/O error, 3 internal error (any other exception:
    its traceback goes to stderr and nothing is written)."""
    if size not in CHECKS:
        print(f"error: unknown suite size {size!r}")
        return 2
    try:
        results = run_checks(size)
    except (SimError, OverflowError) as exc:
        print(f"verification failure: {type(exc).__name__}: {exc}")
        return 1
    except Exception:
        traceback.print_exc()
        return 3
    lines = "\n".join(dump_json(r) for r in results) + "\n"
    if out_path:
        try:
            write_atomic(out_path, lines)
        except OSError as exc:
            print(f"error: {exc}")
            return 2
    else:
        print(lines, end="")
    return 0 if all(r["pass"] for r in results) else 1
