"""The one-sweep decomposition operators against the piecewise build.

The piecewise side is assembled here from the individual remainder
kernels, one pair sweep each, with the s-mean routed through the dense
curved single layer; the fused sweep must reproduce it to roundoff.
"""

import numpy as np
import pytest

from slenderlap import analysis as an
from slenderlap import geometry as geo
from slenderlap import operators as op
from slenderlap.grid import make_grid
from slenderlap.spectral import GridFunction

TREFOIL = {"cos": [[0, 0, 0], [0, 1, 0], [0, -2, 0], [0, 0, 0]],
           "sin": [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, -1]]}


def _piecewise(grid):
    n_s, n_t = grid.n_s, grid.n_theta
    rs = -op.dense_tail(grid, "S")
    for which in (1, 2, 3):
        rs += op.dense_RS_kernel(grid, which)
    s_mat = op.dense_spectral(grid, "m_S") + rs
    s_mat -= op._right_mul_smean(s_mat, n_s, n_t)
    s_mat += op._right_mul_smean(op.dense_single_layer_direct(grid), n_s, n_t)
    rd = -op.dense_tail(grid, "D")
    for which in (1, 2):
        rd += op.dense_RD_kernel(grid, which)
    d_mat = op.dense_spectral(grid, "m_D") + rd
    return {"S": s_mat, "D": d_mat, "R_S": rs, "R_D": rd}


@pytest.fixture(scope="module")
def trefoil_grid():
    cl = geo.build_centerline(TREFOIL)
    fr = geo.build_frame(cl, 128)
    assert abs(fr.kappa3) > 2.0  # the twisted-frame case
    spec = geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=1.0 / 64.0)
    return make_grid(spec, 64, 8)


@pytest.fixture(scope="module")
def perturbed_grid_small(perturbed_spec64):
    return make_grid(perturbed_spec64, 64, 8)


@pytest.mark.parametrize("grid_name", ["perturbed_grid_small", "trefoil_grid"])
def test_fused_matches_piecewise(grid_name, request):
    grid = request.getfixturevalue(grid_name)
    s_op, d_op = an.decomposition_operators(grid)
    fused = {"S": s_op.matrix, "D": d_op.matrix,
             "R_S": s_op.parts["R_S"], "R_D": d_op.parts["R_D"]}
    for name, ref in _piecewise(grid).items():
        rel = np.max(np.abs(fused[name] - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-13, (name, rel)


@pytest.mark.parametrize("grid_name", ["perturbed_grid_small", "trefoil_grid"])
def test_s_mean_part_is_mean_of_curved_single_layer(grid_name, request):
    grid = request.getfixturevalue(grid_name)
    s_op, _ = an.decomposition_operators(grid)
    g_j = op.dense_single_layer_direct(grid)
    ref = g_j.reshape(-1, grid.n_s, grid.n_theta).mean(axis=1)
    rel = np.max(np.abs(s_op.parts["S_mean"] - ref)) / np.max(np.abs(ref))
    assert rel <= 1e-13


def test_mean_in_s_term_matches_dense_route(perturbed_grid_small):
    grid = perturbed_grid_small
    s_op, d_op = an.decomposition_operators(grid)
    solver = an.SlenderBodySolver(grid, "split-decomp", (s_op, d_op))
    # data with an s-mean, so that the routed density has one too
    v = GridFunction(1.0 + np.cos(2 * np.pi * grid.s_nodes)
                     + 0.3 * np.sin(6 * np.pi * grid.s_nodes))
    rep = an.decompose_dtn(grid, v, solver=solver)
    w = solver.dtn(v).w
    w_mean_surface = np.tile(w.s_mean(), (grid.n_s, 1))
    dense = op.dense_single_layer_direct(grid) @ w_mean_surface.reshape(-1)
    integ = op.theta_integral(grid, dense.reshape(w.values.shape), "eps")
    ref = -op.apply_m_S_inv_P0(grid, integ).values
    term = rep["terms"]["mean_in_s"]
    assert np.max(np.abs(ref)) > 1e-8
    assert np.max(np.abs(term - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert rep["relative_mismatch"] <= 1e-12
