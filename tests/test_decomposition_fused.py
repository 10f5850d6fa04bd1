"""The one-sweep operator pair and the decomposition that reads it.

The oracle for the split pair is the piecewise split assembly, built here
from the individual remainder kernels (one pair sweep each) with the s-mean
routed through the dense eps-weighted curved single layer; the oracle for
the direct pair is the one-matrix punctured trapezoids plus the same local
corrections.  The fused sweep must reproduce both to roundoff.
"""

import numpy as np
import pytest

from slenderlap import analysis as an
from slenderlap import operators as op
from slenderlap import spectral
from slenderlap.spectral import FourierSymbol, GridFunction, apply_symbol


def _right_mul_smean(mat, n_s, n_t):
    """mat @ P_mean (column s-averaging)."""
    avg = mat.reshape(-1, n_s, n_t).mean(axis=1)
    return np.repeat(avg[:, None, :], n_s, axis=1).reshape(mat.shape)


def _piecewise(grid):
    """The split S_h and D_h, one dense piece at a time, scaled by J/eps."""
    n_s, n_t = grid.n_s, grid.n_theta
    d_psi = grid.flat_jacobian() / grid.epsilon
    s_mat = op.dense_spectral(grid, "m_S") - op.dense_tail(grid, "S")
    s_mat += op.dense_RS_kernel(grid, 1) + op.dense_RS_kernel(grid, 2)
    s_mat -= _right_mul_smean(s_mat, n_s, n_t)
    s_mat += _right_mul_smean(op.dense_single_layer_direct(grid, weight="eps"),
                              n_s, n_t)
    s_mat *= d_psi[None, :]
    d_mat = op.dense_spectral(grid, "m_D") - op.dense_tail(grid, "D")
    d_mat += op.dense_RD_kernel(grid, 1)
    d_mat *= d_psi[None, :]
    return {"S": s_mat, "D": d_mat}


@pytest.mark.parametrize("grid_name", ["perturbed_grid_small", "trefoil_grid"])
def test_fused_matches_piecewise(grid_name, request):
    grid = request.getfixturevalue(grid_name)
    fused = dict(zip("SD", op.assemble_pair(grid, "split")))
    pair = an.decomposition_operators(grid)
    for name, ref in _piecewise(grid).items():
        rel = np.max(np.abs(fused[name] - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-13, (name, rel)
    # the decomposition's pair is (S_h, B), B = (1/2 I - D_h) E of the same D_h
    e = np.kron(np.eye(grid.n_s), np.ones((grid.n_theta, 1)))
    b_ref = 0.5 * e - fused["D"] @ e
    assert pair[0].shape == (grid.n_nodes, grid.n_nodes)
    assert np.array_equal(pair[0], fused["S"])
    assert pair[1].shape == (grid.n_nodes, grid.n_s)
    assert np.max(np.abs(pair[1] - b_ref)) <= 1e-14 * np.max(np.abs(b_ref))


@pytest.mark.parametrize("grid_name", ["perturbed_grid_small", "trefoil_grid"])
def test_direct_pair_matches_one_matrix_sweeps(grid_name, request):
    grid = request.getfixturevalue(grid_name)
    s_ref = op.dense_single_layer_direct(grid)
    d_ref = op.dense_double_layer_direct(grid)
    s_diag, ring = op._local_weights(grid)
    s_ref[np.diag_indices(grid.n_nodes)] += s_diag
    n_s, n_t = grid.n_s, grid.n_theta
    for i in range(n_s):  # ring[i] is the (n_t, n_t) diagonal block at s_i
        d_ref[i * n_t:(i + 1) * n_t, i * n_t:(i + 1) * n_t] += ring[i]
    for name, got, ref in zip("SD", op.assemble_pair(grid, "direct"),
                              (s_ref, d_ref)):
        rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-13, (name, rel)


@pytest.mark.parametrize("grid_name", ["perturbed_grid_small", "trefoil_grid"])
def test_decomposition_identity(grid_name, request):
    grid = request.getfixturevalue(grid_name)
    s = grid.s_nodes
    v = GridFunction(np.cos(2 * np.pi * s) + 0.2 * np.sin(4 * np.pi * s))
    rep = an.decompose_dtn(grid, v)
    assert rep["relative_mismatch"] <= 1e-12


def test_mean_in_s_term_matches_dense_route(perturbed_grid_small):
    """The term against S_h @ w_mean, S_h assembled again: the solver's is
    factored in place."""
    grid = perturbed_grid_small
    solver = an.SlenderBodySolver(grid, "split")
    # data with an s-mean, so that the routed density has one too
    v = GridFunction(1.0 + np.cos(2 * np.pi * grid.s_nodes)
                     + 0.3 * np.sin(6 * np.pi * grid.s_nodes))
    rep = an.decompose_dtn(grid, v, solver=solver)
    w = solver.dtn(v).w
    w_mean_surface = np.tile(w.values.mean(axis=0), (grid.n_s, 1))
    s_h = op.assemble_first_kind(grid, "split")[0]
    dense = s_h @ w_mean_surface.reshape(-1)
    integ = op.theta_integral(grid, dense, grid.epsilon)
    ref = -apply_symbol(FourierSymbol("m_S_inv", grid.epsilon).table(grid.n_s),
                        integ)
    term = rep["terms"]["mean_in_s"]
    assert np.max(np.abs(ref)) > 1e-8
    assert np.max(np.abs(term - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert rep["relative_mismatch"] <= 1e-12


def test_decompose_builds_each_table_once(perturbed_grid_small):
    grid = perturbed_grid_small
    spectral._table.cache_clear()
    solver = an.SlenderBodySolver(grid, "split")
    assert spectral._table.cache_info().misses == 2  # m_S, m_D
    v = GridFunction(np.cos(2 * np.pi * grid.s_nodes))
    for _ in range(2):
        an.decompose_dtn(grid, v, solver=solver)
    # m_S and m_D come from the memo the assembly filled; m_S_inv and
    # m_eps_inv are built by the first decomposition only
    assert spectral._table.cache_info().misses == 4
    tab = FourierSymbol("m_S", grid.epsilon).table(grid.n_s, grid.n_theta)
    with pytest.raises(ValueError, match="read-only"):
        tab[1, 1] = 0.0


@pytest.mark.parametrize("grid_name", ["perturbed_grid_small", "trefoil_grid"])
def test_direct_operators_decompose(grid_name, request):
    """The decomposition rearranges whatever S_h and D_h were solved with,
    so it closes on the direct backend too."""
    grid = request.getfixturevalue(grid_name)
    solver = an.SlenderBodySolver(grid, "direct")
    v = GridFunction(np.cos(2 * np.pi * grid.s_nodes))
    rep = an.decompose_dtn(grid, v, solver=solver)
    assert rep["relative_mismatch"] <= 1e-12
