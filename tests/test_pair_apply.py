"""Matrix-free pair applies against their dense oracles.

operators.apply_pairs sums a pair kernel against densities one row chunk at
a time; the dense remainder matrices (one pair sweep each) stay as its
oracle.  Every fused apply the scaling studies use must reproduce them to
roundoff, on the perturbed circle and on the twisted-frame trefoil.
operators.apply_pair applies S_h and D_h of either backend the same way,
with assemble_S's and assemble_D's matrices as its oracle.
"""

import math
import tracemalloc

import numpy as np
import pytest

from slenderlap import analysis as an
from slenderlap import geometry as geo
from slenderlap import kernels as kn
from slenderlap import operators as op
from slenderlap import solver as sv
from slenderlap.grid import make_grid

GRIDS = ["perturbed_grid_small", "trefoil_grid"]
ORACLES = {
    "G": lambda g: op.dense_single_layer_direct(g, weight="eps"),
    "RS1": lambda g: op.dense_RS_kernel(g, 1),
    "RS2": lambda g: op.dense_RS_kernel(g, 2),
    "RS3": lambda g: op.dense_RS_kernel(g, 3),
    "RS2+RS3": lambda g: op.dense_RS_kernel(g, 2) + op.dense_RS_kernel(g, 3),
    "RD": lambda g: (-op.dense_tail(g, "D") + op.dense_RD_kernel(g, 1)
                     + op.dense_RD_kernel(g, 2)),
}


def _density(grid):
    return np.random.default_rng(7).standard_normal((grid.n_s, grid.n_theta))


def _rel(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


def _check_apply(name, grid):
    phi = _density(grid)
    want = (ORACLES[name](grid) @ phi.reshape(-1)).reshape(phi.shape)
    got = op.apply_pairs(grid, name, phi)
    assert got.shape == phi.shape
    assert _rel(got, want) <= 1e-13, (name, _rel(got, want))


def _check_two_columns(grid):
    phi = _density(grid)
    cols = np.stack([phi, -grid.epsilon * grid.khat * phi], axis=-1)
    got = op.apply_pairs(grid, "G", cols)
    assert got.shape == cols.shape
    for k, mat in enumerate((op.dense_single_layer_direct(grid, weight="eps"),
                             op.dense_RS_kernel(grid, 3))):
        want = (mat @ phi.reshape(-1)).reshape(phi.shape)
        assert _rel(got[..., k], want) <= 1e-13, (k, _rel(got[..., k], want))


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_apply_matches_dense_oracle(name, grid_name, request):
    _check_apply(name, request.getfixturevalue(grid_name))


@pytest.mark.parametrize("grid_name", GRIDS)
def test_two_column_single_layer_apply(grid_name, request):
    """G at weight eps and R_S3 (G on -eps khat phi) in one sweep."""
    _check_two_columns(request.getfixturevalue(grid_name))


@pytest.mark.parametrize("grid_name", GRIDS)
def test_lower_strip_applies_on_many_strips(grid_name, request, monkeypatch):
    """G, RS3 and RS2+RS3 take the lower strips, which are three at the
    fixture grids; with 2^10 pairs a strip there are 58, so the mirrored
    sums of many strips are folded, and the oracles still hold."""
    grid = request.getfixturevalue(grid_name)
    monkeypatch.setattr(kn, "STRIP_PAIRS", 1 << 10)
    assert len(list(kn.lower_strips(grid.n_nodes, grid.n_theta))) > 16
    for name in ("G", "RS3", "RS2+RS3"):
        _check_apply(name, grid)
    _check_two_columns(grid)


def test_density_shapes_are_checked(perturbed_grid_small):
    """A density that is not (n_s, n_theta) (nor (n_s, n_theta, k) for
    apply_pairs) is refused by name, not reshaped: the transposed
    (n_theta, n_s) one too."""
    grid = perturbed_grid_small
    phi = _density(grid)
    for bad in (phi.T, phi.reshape(-1), phi[:-1], phi[..., None, None]):
        with pytest.raises(ValueError, match=r"x shape .* \(n_s, n_theta\)"):
            op.apply_pairs(grid, "RS1", bad)
        with pytest.raises(ValueError, match=r"phi shape .* \(n_s, n_theta\)"):
            op.apply_pair(grid, "split", bad, phi)
        with pytest.raises(ValueError, match=r"psi shape .* \(n_s, n_theta\)"):
            op.apply_pair(grid, "direct", phi, bad)
    with pytest.raises(ValueError, match="phi shape"):
        op.apply_pair(grid, "split", phi[..., None], phi)


def test_non_finite_densities_are_refused(perturbed_grid_small, monkeypatch):
    """One NaN or inf in a density would make every output of its sweep
    NaN: apply_pairs and apply_pair refuse it by name, before any sweep."""
    grid = perturbed_grid_small
    phi = _density(grid)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(kn.PairGeometry, "sweep", no_sweep)
    for value in (np.nan, np.inf, -np.inf):
        bad = phi.copy()
        bad[5, 3] = value
        msg = r"holds non-finite values \(NaN or inf\)$"
        for x in (bad, np.stack([phi, bad], axis=-1)):
            with pytest.raises(ValueError, match="^x " + msg):
                op.apply_pairs(grid, "G", x)
        with pytest.raises(ValueError, match="^phi " + msg):
            op.apply_pair(grid, "split", bad, phi)
        with pytest.raises(ValueError, match="^psi " + msg):
            op.apply_pair(grid, "direct", phi, bad)


def test_unknown_pair_kernel(perturbed_grid_small):
    with pytest.raises(ValueError):
        op.apply_pairs(perturbed_grid_small, "RS4", _density(perturbed_grid_small))


def test_apply_only_study_runs_above_the_dense_cap():
    """RS-holder-group at eps 1/512 is a 512 x 16 grid, N = 8,192."""
    study = an.make_study("RS-holder-group", epsilons=[1.0 / 128.0, 1.0 / 512.0])
    values = dict(zip(study.epsilons, an.run_scaling_study(study)["values"]))
    assert study.grid_ns(1.0 / 512.0) * study.n_theta > op.DENSE_NODE_CAP
    assert np.isfinite(values[1.0 / 512.0]) and values[1.0 / 512.0] > 0.0
    # lower order in eps: target slope 2 - alpha, so 4x smaller eps gives
    # well over 4x smaller
    assert values[1.0 / 512.0] < values[1.0 / 128.0] / 4.0


def _band_limited(grid):
    s, th = grid.s_nodes[:, None], grid.theta_nodes[None, :]
    return (np.cos(2 * np.pi * s) * (1 + 0.5 * np.cos(th))
            + 0.3 * np.sin(4 * np.pi * s) * np.sin(th))


@pytest.mark.parametrize("density", ["random", "band_limited"])
@pytest.mark.parametrize("grid_name", ["circle_grid_small"] + GRIDS)
@pytest.mark.parametrize("backend", ["direct", "split"])
def test_pair_apply_matches_assembled_pair(backend, grid_name, density,
                                           request):
    grid = request.getfixturevalue(grid_name)
    if density == "random":
        phi = _density(grid)
        psi = np.random.default_rng(8).standard_normal(phi.shape)
    else:
        phi = _band_limited(grid)
        psi = np.roll(phi, 3, axis=0) * (1.0 + grid.khat)
    got = op.apply_pair(grid, backend, phi, psi)
    for name, op_h, x, y in zip("SD", (op.assemble_S(grid, backend),
                                       op.assemble_D(grid, backend)),
                                (phi, psi), got):
        want = (op_h @ x.reshape(-1)).reshape(x.shape)
        assert y.shape == x.shape
        assert _rel(y, want) <= 1e-13, (name, _rel(y, want))


@pytest.mark.parametrize("preset, eps, n_s, near_rings", [
    ("trefoil", 1.0 / 64.0, 256, 1), ("circle", 1.0 / 16.0, 128, 3)])
@pytest.mark.parametrize("backend", ["direct", "split"])
def test_pair_apply_double_layer_on_many_strips(backend, preset, eps, n_s,
                                                near_rings):
    """apply_pair's K_D comes from 1/|R|^3 against [m, q.m], q the position
    less the strip's mean, and from R . m exactly at the ring offsets
    0 < |j| with j h_s < eps h_theta.  At 256x16 on the trefoil there are
    141 strips, the first of them 16 rings long, and one such offset each
    way (aspect 0.64); on the circle at eps 1/16, three (aspect 0.32),
    where the GEMMs alone were 1.2e-13 off.  D_h matches the assembled one,
    which takes R's components, to 1e-14 (measured 1.6e-15 to 2.8e-15)."""
    cl = geo.build_centerline({"preset": preset})
    spec = geo.SurfaceSpec(centerline=cl, frame=geo.build_frame(cl, 128),
                           epsilon=eps)
    grid = make_grid(spec, n_s, 16)
    assert math.floor(2 * math.pi * eps * n_s / 16) == near_rings
    strips = list(kn.lower_strips(grid.n_nodes, grid.n_theta))
    assert strips[0] == (0, 16 * grid.n_theta)
    assert preset != "trefoil" or len(strips) == 141
    phi = _density(grid)
    psi = np.random.default_rng(8).standard_normal(phi.shape)
    got = op.apply_pair(grid, backend, phi, psi)[1]
    want = (op.assemble_D(grid, backend) @ psi.reshape(-1)).reshape(psi.shape)
    assert _rel(got, want) <= 1e-14, _rel(got, want)


@pytest.mark.parametrize("grid_name", ["circle_grid_small"] + GRIDS)
@pytest.mark.parametrize("backend", ["direct", "split"])
def test_greens_residual_matrix_free_matches_assembled(backend, grid_name,
                                                       request):
    grid = request.getfixturevalue(grid_name)
    charges = [(1.0, 0.0), (-0.5, 0.3)]
    got, scale = sv.greens_identity_residual(grid, charges, backend)
    # the dense route: the same residual from the assembled S_h and D_h
    s_h, d_h = op.assemble_S(grid, backend), op.assemble_D(grid, backend)
    v, w = (x.reshape(-1) for x in sv.point_charge_data(grid, charges))
    lhs = 0.5 * v - d_h @ v
    want = float(np.max(np.abs(lhs - s_h @ w)))
    want_scale = float(np.max(np.abs(lhs)))
    assert abs(got - want) <= 1e-12 * want, (got, want)
    assert abs(scale - want_scale) <= 1e-12 * want_scale


def test_pair_apply_unknown_backend(perturbed_grid_small):
    phi = _density(perturbed_grid_small)
    with pytest.raises(ValueError):
        op.apply_pair(perturbed_grid_small, "split-decomp", phi, phi)


def test_greens_residual_runs_above_the_dense_cap(circle_cl, circle_frame):
    """512 x 16 nodes: one dense operator would take 537 MB."""
    spec = geo.SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                           epsilon=1.0 / 128.0)
    grid = make_grid(spec, 512, 16)
    assert grid.n_nodes == 8192 > op.DENSE_NODE_CAP
    tracemalloc.start()
    try:
        resid, _ = sv.greens_identity_residual(grid, [(1.0, 0.0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(resid) and resid > 0.0
    assert peak < 64e6, peak
