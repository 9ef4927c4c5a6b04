"""Graph-model tests: every matrix construction against scalar-loop oracles."""

import math

import numpy as np
import pytest

from qlapeig.graph import (DegenerateGraphError, GraphError, KernelParams,
                           VertexSet, build_graph, build_laplacians,
                           build_taylor_weight_matrix, build_weight_matrix,
                           classical_eigensolve, graph_matrices_to_json,
                           load_vertices_csv, load_vertices_json,
                           truncation_error_report)


def make_vs(rng, n, m, lo=0.5, hi=1.5):
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(lo, hi, size=(n, 1))
    return VertexSet.from_vectors(x)


def test_weight_two_points_closed_form():
    vs = VertexSet.from_vectors([[1.0, 0.0], [0.0, 1.0]])
    kp = KernelParams(0.5, 4)
    w = build_weight_matrix(vs, kp)
    assert w[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert w[0, 0] == 0.0 and w[1, 1] == 0.0


def test_weight_matrix_scalar_loop_oracle():
    rng = np.random.default_rng(11)
    vs = make_vs(rng, 4, 2)
    kp = KernelParams(0.7, 2)
    w = build_weight_matrix(vs, kp)
    # independent scalar-loop evaluation, no matrix library
    for i in range(4):
        for j in range(4):
            if i == j:
                expect = 0.0
            else:
                d2 = sum((vs.vertices[i][k] - vs.vertices[j][k]) ** 2
                         for k in range(2))
                expect = math.exp(-0.7 * d2)
            assert w[i, j] == pytest.approx(expect, abs=1e-14)
    assert np.allclose(w, w.T)
    assert np.all(w >= 0) and np.all(w <= 1)


def test_taylor_weight_order_zero_and_orthogonal():
    vs = VertexSet.from_vectors([[1.0, 0.0], [0.0, 2.0]])
    kp0 = KernelParams(0.5, 0)
    wp, diag = build_taylor_weight_matrix(vs, kp0)
    pref = math.exp(-0.5 * (1.0 + 4.0))
    assert wp[0, 1] == pytest.approx(pref, abs=1e-15)
    # orthogonal vertices: every order collapses to the k=0 term
    for p in (1, 3, 7):
        wp_p, _ = build_taylor_weight_matrix(vs, KernelParams(0.5, p))
        assert wp_p[0, 1] == pytest.approx(pref, abs=1e-15)


def test_taylor_converges_to_exact():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    vs = VertexSet.from_vectors(x)
    w = build_weight_matrix(vs, KernelParams(0.5, 0))
    wp, _ = build_taylor_weight_matrix(vs, KernelParams(0.5, 30))
    assert np.max(np.abs(w - wp)) < 1e-10


def test_taylor_monotone_and_absorbed_equivalence():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 2))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    vs = VertexSet.from_vectors(x)
    w = build_weight_matrix(vs, KernelParams(0.5, 0))
    errs = []
    for p in (0, 1, 2, 4, 8, 16):
        kp = KernelParams(0.5, p)
        wp, _ = build_taylor_weight_matrix(vs, kp)
        wpa, _ = build_taylor_weight_matrix(vs, kp, absorbed=True)
        assert np.max(np.abs(wp - wpa)) < 1e-14  # unit norms absorb exp(-2 lam)
        errs.append(np.max(np.abs(w - wp)))
    assert all(errs[i + 1] <= errs[i] + 1e-15 for i in range(len(errs) - 1))


def test_laplacian_two_vertex_closed_form():
    c = math.exp(-1.0)
    gm = build_laplacians(np.array([[0.0, c], [c, 0.0]]))
    assert np.allclose(gm.L, [[c, -c], [-c, c]])
    vals = np.linalg.eigvalsh(gm.L)
    assert vals == pytest.approx([0.0, 2 * c], abs=1e-12)


def test_laplacian_invariants():
    rng = np.random.default_rng(3)
    vs = make_vs(rng, 8, 3)
    kp = KernelParams(0.5, 4)
    gm = build_graph(vs, kp)
    n = vs.n
    assert np.allclose(gm.L @ np.ones(n), 0.0, atol=1e-10)
    assert abs(np.trace(gm.L) - np.trace(gm.D)) < 1e-10
    vals = np.linalg.eigvalsh(gm.L)
    assert vals[0] > -1e-10
    assert np.sum(np.abs(vals) < 1e-9 * max(1, vals[-1])) == 1  # kernel is 1-dim
    # L_r and L_s share eigenvalues (similarity transform check)
    vals_s = np.sort(np.linalg.eigvalsh(gm.L_s))
    vals_r = np.sort(np.linalg.eigvals(gm.L_r).real)
    assert np.allclose(vals_s, vals_r, atol=1e-9)


def test_zero_degree_rejected():
    w = np.zeros((2, 2))
    with pytest.raises(DegenerateGraphError):
        build_laplacians(w)


def test_eigensolve_two_vertex():
    c = 0.37
    lap = np.array([[c, -c], [-c, c]])
    ref = classical_eigensolve(lap, 1)
    assert ref.eigenvalues[0] == pytest.approx(2 * c, abs=1e-12)
    assert ref.eigenvectors[:, 0] == pytest.approx(
        np.array([1.0, -1.0]) / math.sqrt(2), abs=1e-12)
    ident = classical_eigensolve(np.eye(3), 1)
    assert ident.eigenvalues[0] == pytest.approx(1.0)


def test_eigensolve_power_iteration_oracle():
    rng = np.random.default_rng(21)
    vs = make_vs(rng, 8, 2, 0.8, 1.2)
    gm = build_graph(vs, KernelParams(0.5, 4))
    ref = classical_eigensolve(gm.L, 3)

    # independent oracle: power iteration with deflation on mu I - L
    mu = float(np.trace(gm.L)) + 1.0
    b = mu * np.eye(8) - gm.L
    found = []
    mat = b.copy()
    for _ in range(5):
        v = np.ones(8) / math.sqrt(8)
        for _ in range(20000):
            v2 = mat @ v
            v2 /= np.linalg.norm(v2)
            if np.linalg.norm(v2 - v) < 1e-14:
                v = v2
                break
            v = v2
        lam = float(v @ mat @ v)
        found.append((mu - lam, v.copy()))
        mat = mat - lam * np.outer(v, v)
    vals = sorted(x for x, _ in found)[1:4]  # drop the zero mode
    assert np.allclose(vals, ref.eigenvalues, atol=1e-8)


def test_eigensolve_range_error():
    c = 0.4
    lap = np.array([[c, -c], [-c, c]])
    with pytest.raises(GraphError):
        classical_eigensolve(lap, 2)


def test_eigensolve_sign_convention():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4))
    m = m + m.T
    ref = classical_eigensolve(m, 3)
    for j in range(3):
        col = ref.eigenvectors[:, j]
        nz = np.nonzero(np.abs(col) > 1e-8)[0]
        assert col[nz[0]] > 0


def test_truncation_report_bound_holds():
    rng = np.random.default_rng(9)
    vs = make_vs(rng, 4, 2, 0.5, 1.0)
    for p in (0, 2, 5, 12):
        rep = truncation_error_report(vs, KernelParams(0.5, p))
        assert rep["within_bound"]
    rep = truncation_error_report(vs, KernelParams(0.5, 25))
    assert rep["max_bound"] < 1e-12 and rep["max_measured"] < 1e-12


def test_truncation_orthogonal_exact_at_order_zero():
    vs = VertexSet.from_vectors([[1.0, 0.0], [0.0, 1.0]])
    rep = truncation_error_report(vs, KernelParams(0.5, 0))
    assert rep["max_measured"] == 0.0


def test_lambda_must_be_positive():
    with pytest.raises(GraphError):
        KernelParams(0.0, 2)
    with pytest.raises(GraphError):
        KernelParams(-1.0, 2)


def test_kernel_params_tables():
    kp = KernelParams(0.5, 3)
    assert kp.coeffs_a[0] == 1.0
    assert np.allclose(kp.coeffs_a_tilde, math.exp(-1.0) * kp.coeffs_a)
    assert kp.a_sum == pytest.approx(float(np.sum(kp.coeffs_a)))
    assert kp.a_tilde_sum == pytest.approx(float(np.sum(kp.coeffs_a_tilde)))


def test_vertexset_padding_and_validation():
    vs = VertexSet.from_vectors([[1.0], [2.0], [3.0], [4.0]])
    assert vs.n == 4 and vs.m == 2  # dimension pads to >= 2
    assert np.array_equal(vs.vertices[:, 1], np.zeros(4))
    with pytest.raises(GraphError, match="vertex count .* got 3"):
        VertexSet.from_vectors([[1.0], [2.0], [3.0]])
    with pytest.raises(GraphError):
        VertexSet.from_vectors([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(GraphError):
        VertexSet.from_vectors([[1.0, 0.0]])


def test_io_roundtrip(tmp_path):
    csv_path = tmp_path / "v.csv"
    csv_path.write_text("1.0,0.0\n0.0,1.0\n")
    vs = load_vertices_csv(csv_path)
    assert vs.n == 2 and vs.m == 2

    json_path = tmp_path / "v.json"
    json_path.write_text('{"vertices": [[1.0, 0.0], [0.0, 1.0]]}')
    vs2 = load_vertices_json(json_path)
    assert np.allclose(vs.vertices, vs2.vertices)

    gm = build_graph(vs, KernelParams(0.5, 2))
    blob = graph_matrices_to_json(gm)
    assert blob["trace_D"] == pytest.approx(gm.trace_D)
    assert blob["W"][0][1] == pytest.approx(gm.W[0, 1])


@pytest.mark.parametrize("n,m", [(3, 2), (1, 2), (4, 3), (4, 1)])
def test_vertexset_direct_construction_checks_the_contract(n, m):
    """Direct construction is held to the contract ``from_vectors`` meets:
    a vertex count and dimension that are powers of two, at least 2."""
    x = np.ones((n, m))
    with pytest.raises(GraphError, match="power of two"):
        VertexSet(x, np.linalg.norm(x, axis=1), n, m)
