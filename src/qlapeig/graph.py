"""Classical graph model: Gaussian weight matrices, Taylor-truncated variants,
degree/Laplacian matrices, and the reference dense eigensolver.

A ``VertexSet`` is the input contract of every pipeline: a power-of-two
number of vertices, at least 2, whose dimension is widened with zero columns
to a power of two, at least 2.

Everything here is exact 64-bit linear algebra.  All quantum constructions in
the other modules are checked against the matrices produced here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphError",
    "DegenerateGraphError",
    "VertexSet",
    "resolve_norm_case",
    "KernelParams",
    "GraphMatrices",
    "SpectralReference",
    "build_weight_matrix",
    "build_taylor_weight_matrix",
    "build_laplacians",
    "classical_eigensolve",
    "truncation_error_report",
    "load_vertices_csv",
    "load_vertices_json",
    "graph_matrices_to_json",
]


class GraphError(ValueError):
    """Invalid graph-model input."""


class DegenerateGraphError(GraphError):
    """A vertex has zero degree; the degree matrix is not invertible."""


def _next_pow2(k: int) -> int:
    return 1 << max(0, (k - 1).bit_length())


@dataclass(frozen=True)
class VertexSet:
    """The n input vectors in R^m: what every pipeline accepts.

    The circuits read vertex i into log2 n index qubits and its entries into
    log2 m data qubits, so n and m are powers of two, at least 2.  The vertex
    count is taken as given; ``from_vectors`` widens any other dimension with
    zero columns, which changes no norm, distance or inner product.
    """

    vertices: np.ndarray          # (n, m) float64
    norms: np.ndarray             # (n,)
    n: int
    m: int

    def __post_init__(self):
        for what, k in (("vertex count", self.n), ("dimension", self.m)):
            if k < 2 or k & (k - 1):
                raise GraphError(f"the {what} must be a power of two, at least 2; "
                                 f"got {k}")

    @classmethod
    def from_vectors(cls, vectors) -> "VertexSet":
        try:
            arr = np.atleast_2d(np.asarray(vectors, dtype=float))
        except (TypeError, ValueError) as exc:
            raise GraphError(f"vertices must be rows of numbers: {exc}") from exc
        if arr.ndim != 2:
            raise GraphError("vertices must form a 2-d array")
        if not np.all(np.isfinite(arr)):
            raise GraphError("non-finite vertex entry")
        n, m_in = arr.shape
        if m_in < 1:
            raise GraphError("vertices need dimension m >= 1")
        m = max(2, _next_pow2(m_in))
        full = np.zeros((n, m))
        full[:, :m_in] = arr
        norms = np.linalg.norm(full, axis=1)
        return cls(full, norms, n, m)

    def validate(self) -> None:
        ref = np.linalg.norm(self.vertices, axis=1)
        scale = np.maximum(ref, 1.0)
        if np.any(np.abs(self.norms - ref) > 1e-12 * scale):
            raise GraphError("stored norms disagree with vertex data")

    def unit_norms(self, tol: float = 1e-8) -> bool:
        return bool(np.all(np.abs(self.norms - 1.0) <= tol))


def resolve_norm_case(vs: VertexSet, norm_case: str) -> str:
    """The weight pipeline to run: ``unit`` or ``general`` as given, and for
    ``auto`` ``unit`` exactly when every norm is 1 within 1e-8."""
    if norm_case == "auto":
        return "unit" if vs.unit_norms(1e-8) else "general"
    if norm_case not in ("unit", "general"):
        raise GraphError(f"unknown norm case {norm_case!r}; "
                         "expected auto, unit or general")
    return norm_case


@dataclass(frozen=True)
class KernelParams:
    """Gaussian kernel width and Taylor truncation order, with the derived
    coefficient tables a_k = (2*lam)^k / k! and their exp(-2*lam)-absorbed
    variants."""

    lam: float
    p: int
    coeffs_a: np.ndarray = field(init=False)
    coeffs_a_tilde: np.ndarray = field(init=False)
    a_sum: float = field(init=False)
    a_tilde_sum: float = field(init=False)

    def __post_init__(self):
        if not (0 < self.lam < math.inf):
            raise GraphError("kernel width must be positive and finite")
        if self.p < 0 or self.p != int(self.p):
            raise GraphError("truncation order must be a nonnegative integer")
        ks = np.arange(self.p + 1)
        a = np.array([(2.0 * self.lam) ** k / math.factorial(k) for k in ks])
        object.__setattr__(self, "coeffs_a", a)
        object.__setattr__(self, "coeffs_a_tilde", math.exp(-2.0 * self.lam) * a)
        object.__setattr__(self, "a_sum", float(a.sum()))
        object.__setattr__(self, "a_tilde_sum", float((math.exp(-2.0 * self.lam) * a).sum()))


@dataclass
class GraphMatrices:
    """All exact graph matrices for one vertex set / kernel choice."""

    W: np.ndarray
    W_p: np.ndarray
    taylor_diag: np.ndarray       # un-zeroed diagonal of the truncated kernel
    D: np.ndarray
    L: np.ndarray
    L_s: np.ndarray
    L_r: np.ndarray
    trace_D: float


@dataclass
class SpectralReference:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray      # orthonormal columns, sign-fixed
    d: int


def build_weight_matrix(vs: VertexSet, kp: KernelParams) -> np.ndarray:
    """Exact Gaussian weights w_ij = exp(-lam * ||x_i - x_j||^2), zero diagonal."""
    vs.validate()
    x = vs.vertices
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    w = np.exp(-kp.lam * d2)
    np.fill_diagonal(w, 0.0)
    return w


def build_taylor_weight_matrix(
    vs: VertexSet, kp: KernelParams, absorbed: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Order-p Taylor weights.

    Entry (i, j) is exp(-lam(||x_i||^2 + ||x_j||^2)) * sum_k a_k (x_i . x_j)^k
    with the diagonal forced to zero.  The un-zeroed diagonal values (needed by
    the block-encoding identities) are returned separately.

    With ``absorbed=True`` the a~_k coefficients are used and the norm prefactor
    is dropped; for unit-norm inputs this equals the direct form.
    """
    vs.validate()
    x = vs.vertices
    gram = x @ x.T
    if absorbed:
        coeffs = kp.coeffs_a_tilde
        pref = np.ones((vs.n, vs.n))
    else:
        coeffs = kp.coeffs_a
        sq = np.sum(x * x, axis=1)
        pref = np.exp(-kp.lam * (sq[:, None] + sq[None, :]))
    series = np.zeros_like(gram)
    for k in range(kp.p, -1, -1):
        series = series * gram + coeffs[k]
    wp = pref * series
    diag = np.diag(wp).copy()
    np.fill_diagonal(wp, 0.0)
    return wp, diag


def build_laplacians(w_like: np.ndarray) -> GraphMatrices:
    """Degree matrix, Laplacian, and both normalized Laplacians of a weight
    matrix.  Raises DegenerateGraphError when some degree is zero."""
    w = np.asarray(w_like, dtype=float)
    if w.shape[0] != w.shape[1]:
        raise GraphError("weight matrix must be square")
    if not np.allclose(w, w.T, atol=1e-12):
        raise GraphError("weight matrix must be symmetric")
    if np.any(np.abs(np.diag(w)) > 0):
        raise GraphError("weight matrix must have zero diagonal")
    if np.any(w < -1e-15):
        raise GraphError("weights must be nonnegative")
    deg = w.sum(axis=1)
    if np.any(deg <= 0):
        raise DegenerateGraphError("zero-degree vertex; graph is not fully connected")
    d_mat = np.diag(deg)
    lap = d_mat - w
    inv_sqrt = 1.0 / np.sqrt(deg)
    l_s = lap * inv_sqrt[:, None] * inv_sqrt[None, :]
    l_r = lap / deg[:, None]
    return GraphMatrices(
        W=w, W_p=w, taylor_diag=np.ones(len(deg)), D=d_mat, L=lap,
        L_s=l_s, L_r=l_r, trace_D=float(deg.sum()),
    )


def build_graph(vs: VertexSet, kp: KernelParams, truncated: bool = False) -> GraphMatrices:
    """Convenience wrapper: weight matrices plus Laplacians in one call.

    With ``truncated=True`` the Laplacians are built from the order-p weights,
    otherwise from the exact Gaussian weights.  Both weight matrices are filled
    in either way.
    """
    w = build_weight_matrix(vs, kp)
    wp, diag = build_taylor_weight_matrix(vs, kp)
    gm = build_laplacians(wp if truncated else w)
    gm.W, gm.W_p, gm.taylor_diag = w, wp, diag
    return gm


def classical_eigensolve(mat: np.ndarray, d: int) -> SpectralReference:
    """The d smallest nonzero eigenpairs of a symmetric matrix, ascending.
    An eigenvalue counts as zero within 1e-9 of the largest magnitude (or 1).

    Eigenvectors are unit-norm with the first component of magnitude above
    1e-8 made positive, so that comparisons are reproducible.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise GraphError("matrix must be symmetric")
    vals, vecs = np.linalg.eigh(mat)
    scale = max(1.0, float(np.max(np.abs(vals))))
    keep = np.abs(vals) > 1e-9 * scale
    vals, vecs = vals[keep], vecs[:, keep]
    if d > len(vals):
        raise GraphError(f"requested {d} nonzero eigenpairs, only {len(vals)} exist")
    order = np.argsort(vals)[:d]
    vals, vecs = vals[order], vecs[:, order]
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > 1e-8)[0]
        if len(nz) and col[nz[0]] < 0:
            vecs[:, j] = -col
    return SpectralReference(vals, vecs, d)


def truncation_error_report(vs: VertexSet, kp: KernelParams) -> dict:
    """Entrywise Lagrange-remainder bound for |W - W_p| together with the
    measured error, over the off-diagonal vertex pairs."""
    w = build_weight_matrix(vs, kp)
    wp, _ = build_taylor_weight_matrix(vs, kp)
    x = vs.vertices
    gram = np.abs(x @ x.T)
    np.fill_diagonal(gram, 0.0)
    u = 2.0 * kp.lam * float(gram.max())
    remainder = u ** (kp.p + 1) / math.factorial(kp.p + 1) * math.exp(u)
    sq = np.sum(x * x, axis=1)
    pref = np.exp(-kp.lam * (sq[:, None] + sq[None, :]))
    bound = remainder * pref
    measured = np.abs(w - wp)
    np.fill_diagonal(bound, np.inf)
    ok = bool(np.all(measured <= bound + 1e-15))
    return {
        "bound": bound,
        "measured": measured,
        "max_measured": float(measured.max()),
        "max_bound": float(remainder),
        "within_bound": ok,
    }


# ---------------------------------------------------------------------------
# external interfaces: vertex-set ingestion and matrix serialization

def load_vertices_csv(path) -> VertexSet:
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            row = [c for c in row if c.strip() != ""]
            if row:
                rows.append([float(c) for c in row])
    if not rows:
        raise GraphError(f"no vertices in {path}")
    return VertexSet.from_vectors(rows)


def load_vertices_json(path) -> VertexSet:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "vertices" not in data:
        raise GraphError("JSON input must be an object with a 'vertices' key")
    return VertexSet.from_vectors(data["vertices"])


def graph_matrices_to_json(gm: GraphMatrices) -> dict:
    """Row-major JSON-ready dict of every matrix."""
    out = {}
    for name in ("W", "W_p", "D", "L", "L_s", "L_r"):
        out[name] = [list(map(float, row)) for row in getattr(gm, name)]
    out["taylor_diag"] = list(map(float, gm.taylor_diag))
    out["trace_D"] = float(gm.trace_D)
    return out
