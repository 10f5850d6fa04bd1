"""Layer-operator assembly: backends, jump relation, remainders, symmetry."""

import math
import tracemalloc

import numpy as np
import pytest

from slenderlap import geometry as geo
from slenderlap import operators as op
from slenderlap.grid import make_grid
from slenderlap.spectral import FourierSymbol, GridFunction


def band_limited(grid):
    s, th = grid.s_nodes, grid.theta_nodes
    vals = (np.cos(2 * np.pi * s)[:, None] * (1 + 0.5 * np.cos(th))[None, :]
            + 0.3 * np.sin(4 * np.pi * s)[:, None] * np.sin(th)[None, :])
    return GridFunction(vals / np.max(np.abs(vals)))


def _apply(mat, f):
    """An assembled N x N operator applied to a surface GridFunction."""
    return (mat @ f.values.reshape(-1)).reshape(f.values.shape)


def test_linearity(circle_grid_small, rng):
    s_h = op.assemble_S(circle_grid_small, "direct")
    f = GridFunction(rng.standard_normal(
        (circle_grid_small.n_s, circle_grid_small.n_theta)))
    g = GridFunction(rng.standard_normal(f.values.shape))
    lhs = _apply(s_h, GridFunction(2.0 * f.values - 3.0 * g.values))
    rhs = 2.0 * _apply(s_h, f) - 3.0 * _apply(s_h, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_jump_relation_constant_density(circle_cl, circle_frame):
    """D[1] = -1/2 on the surface.

    The split backend hits it to ~1e-4.  The direct backend's corrected rule
    (punctured trapezoid plus the theta-ring and curvature weights) hits it
    to ~5e-5 at 128x16, and its error shrinks under metric-proportional
    refinement (64x8 -> 128x16 keeps the aspect h_s/(eps h_theta)).
    """
    spec = geo.SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                           epsilon=1.0 / 64.0)
    devs = {}
    for (n_s, n_t) in ((64, 8), (128, 16)):
        g = make_grid(spec, n_s, n_t)
        ones = GridFunction(np.ones((g.n_s, g.n_theta)))
        for be in ("direct", "split"):
            out = _apply(op.assemble_D(g, be), ones)
            devs[(be, n_s, n_t)] = float(np.max(np.abs(out + 0.5)))
    assert devs[("direct", 128, 16)] < 1e-3
    assert devs[("direct", 128, 16)] < devs[("direct", 64, 8)]
    assert devs[("split", 128, 16)] < 1e-3


def test_backend_agreement_S(circle_grid):
    """Relative (to the input sup) discrepancy of the S backends."""
    phi = band_limited(circle_grid)
    a = _apply(op.assemble_S(circle_grid, "direct"), phi)
    b = _apply(op.assemble_S(circle_grid, "split"), phi)
    rel = np.max(np.abs(a - b)) / np.max(np.abs(phi.values))
    assert rel <= 5e-3


def test_backend_agreement_improves(circle_cl, circle_frame):
    spec = geo.SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                           epsilon=1.0 / 64.0)
    rels = []
    for n_s in (64, 128):
        g = make_grid(spec, n_s, 16)
        phi = band_limited(g)
        a = _apply(op.assemble_S(g, "direct"), phi)
        b = _apply(op.assemble_S(g, "split"), phi)
        rels.append(np.max(np.abs(a - b)) / np.max(np.abs(phi.values)))
    assert rels[1] < rels[0]


def test_straight_symbol_recovery(circle_spec64):
    """Punctured trapezoid of the straight kernel (with images) reproduces
    m_S(k, l) within 1e-4 once both directions are resolved proportionally
    (at n_s = 256 alone the s-quadrature error is still ~2e-4)."""
    n_s, n_t = 1024, 512
    eps = circle_spec64.epsilon
    hs, ht = 1.0 / n_s, 2.0 * math.pi / n_t
    sh = np.arange(n_s) * hs
    sh = np.where(sh > 0.5, sh - 1.0, sh)
    th = np.arange(n_t) * ht
    th = np.where(th > math.pi, th - 2 * math.pi, th)
    SH, TH = np.meshgrid(sh, th, indexing="ij")
    c2 = (2.0 * eps * np.sin(0.5 * TH)) ** 2
    t = np.zeros_like(SH)
    for m in range(-op.TAIL_IMAGES, op.TAIL_IMAGES + 1):
        r = np.sqrt((SH + m) ** 2 + c2)
        if m == 0:
            r[0, 0] = np.inf
        t += 1.0 / (4 * math.pi * r)
    # symbol of the discrete convolution = DFT of the kernel template
    for (k, ell) in ((1, 0), (1, 1), (3, 2)):
        coeff = float(np.sum(t * np.cos(2 * np.pi * k * SH)
                             * np.cos(ell * TH)) * hs * ht * eps)
        assert abs(coeff - FourierSymbol("m_S", eps).evaluate(k, ell)) < 1e-4, (k, ell)


def test_RS_identity_sum(circle_grid_small):
    """Discrete kernel identity: punctured trapezoid of G J over one period
    equals the central straight part plus R_S1 + R_S2 + R_S3."""
    g = circle_grid_small
    phi = band_limited(g)
    direct = (op.dense_single_layer_direct(g)
              @ phi.values.reshape(-1)).reshape(phi.values.shape)
    mat = op.dense_straight_central(g, "S")
    mat = mat + op.dense_RS_kernel(g, 1) + op.dense_RS_kernel(g, 2) \
        + op.dense_RS_kernel(g, 3)
    recon = (mat @ phi.values.reshape(-1)).reshape(phi.values.shape)
    assert np.max(np.abs(direct - recon)) < 1e-12


def test_RD_identity_sum(circle_grid_small):
    g = circle_grid_small
    psi = band_limited(g)
    direct = (op.dense_double_layer_direct(g)
              @ psi.values.reshape(-1)).reshape(psi.values.shape)
    mat = op.dense_straight_central(g, "D")
    mat = mat + op.dense_RD_kernel(g, 1) + op.dense_RD_kernel(g, 2)
    recon = (mat @ psi.values.reshape(-1)).reshape(psi.values.shape)
    assert np.max(np.abs(direct - recon)) < 1e-12


def test_epstein_zeta_unit_square():
    """Z(1, 1) = 4 zeta(1/2) beta(1/2) (Dirichlet beta), and Z_aa = Z/2."""
    mpmath = pytest.importorskip("mpmath")
    want = float(4 * mpmath.zeta(0.5) * mpmath.dirichlet(0.5, [0, 1, 0, -1]))
    z, z_aa = op.epstein_zeta(1.0, 1.0)
    assert abs(z - want) < 1e-13
    assert abs(z_aa - 0.5 * want) < 1e-13


@pytest.mark.parametrize("a,b", [(0.3, 1.0), (1.0, 0.3), (0.02, 0.0031)])
def test_epstein_zeta_symmetry_and_homogeneity(a, b):
    z, z_aa = op.epstein_zeta(a, b)
    z_sw, z_bb = op.epstein_zeta(b, a)
    assert abs(z - z_sw) <= 1e-13 * abs(z)
    # the Chowla-Selberg series Poisson-summed along the longer spacing
    slow, _ = op._epstein_series(np.array(max(a, b)), np.array(min(a, b)))
    assert abs(slow - z) <= 1e-12 * abs(z)
    # degree -1: Z(t a, t b) = Z(a, b)/t, so Z_aa + Z_bb = Z
    assert abs(op.epstein_zeta(3 * a, 3 * b)[0] - z / 3) <= 1e-13 * abs(z)
    assert abs(z_aa + z_bb - z) <= 1e-13 * abs(z)
    h = 1e-5 * a
    dz = (op.epstein_zeta(a + h, b)[0] - op.epstein_zeta(a - h, b)[0]) / (2 * h)
    assert abs(-a * dz - z_aa) <= 1e-7 * abs(z)


@pytest.mark.parametrize("c_over_a", [0.3, 1.0, 3.0])
def test_straight_dlp_line_sum_brute_force(c_over_a):
    """Poisson form of a sum_m Kbar_D(m a, theta) against the image sum."""
    eps, theta = 1.0 / 64.0, 2.0 * math.pi * 3 / 16
    c = 2.0 * eps * math.sin(0.5 * theta)
    a = c / c_over_a
    m = np.arange(-200000, 200001)
    kbar = (-2.0 * eps * math.sin(0.5 * theta) ** 2
            / (4 * math.pi * ((m * a) ** 2 + c ** 2) ** 1.5))
    # far tail beyond |m| = M, integrated: 2 int_{(M+1/2)a}^inf x^-3 dx
    x_far = (m[-1] + 0.5) * a
    tail = -2.0 * eps * math.sin(0.5 * theta) ** 2 / (4 * math.pi) / x_far ** 2
    brute = a * np.sum(kbar) + tail
    got = op.straight_dlp_line_sum(a, theta, eps)
    assert abs(got - brute) <= 1e-10 * abs(brute)


def _line_sum_by_masks(a, theta, epsilon):
    """straight_dlp_line_sum as it was first written: every term j over the
    whole array, masked to the entries with j x < BESSEL_CUTOFF."""
    from scipy.special import k1
    a, theta = np.broadcast_arrays(np.asarray(a, float),
                                   np.asarray(theta, float))
    c = 2.0 * epsilon * np.abs(np.sin(0.5 * theta))
    x = 2.0 * math.pi * c / a
    alias = np.zeros_like(x)
    j = 1
    while True:
        live = j * x < op.BESSEL_CUTOFF
        if not np.any(live):
            break
        alias[live] += j * k1(j * x[live])
        j += 1
    return -(2.0 * epsilon * np.sin(0.5 * theta) ** 2 / (4 * math.pi)) * (
        2.0 / c ** 2 + (8.0 * math.pi / (a * c)) * alias)


@pytest.mark.parametrize("grid_name", ["circle_grid", "circle_grid_small",
                                       "perturbed_grid", "trefoil_grid"])
def test_straight_dlp_line_sum_equals_the_masked_loop(grid_name, request):
    """One k1 call per distinct x and term gives the same bits, on the
    (node, theta offset) arrays the direct backend's ring weights use."""
    g = request.getfixturevalue(grid_name)
    a = (1.0 - g.epsilon * g.khat.reshape(-1, 1)) / g.n_s
    theta = 2.0 * math.pi * np.arange(1, g.n_theta)[None, :] / g.n_theta
    for eps in (g.epsilon, 1.0 / 1024.0):
        got = op.straight_dlp_line_sum(a, theta, eps)
        assert got.shape == (g.n_nodes, g.n_theta - 1)
        assert np.array_equal(got, _line_sum_by_masks(a, theta, eps))
    # one value, and an x that repeats across a broadcast
    assert op.straight_dlp_line_sum(0.01, 0.3, 0.02) == _line_sum_by_masks(
        0.01, 0.3, 0.02)
    a_rep = np.repeat(a[:8], 3, axis=1)
    assert np.array_equal(op.straight_dlp_line_sum(a_rep, 1.1, 0.01),
                          _line_sum_by_masks(a_rep, 1.1, 0.01))


def test_Dprime_constant_injectivity(circle_grid):
    """(1/2 I + D') applied to constants is bounded away from zero."""
    dp = op.assemble_Dprime(circle_grid, "split")
    ones = GridFunction(np.ones((circle_grid.n_s, circle_grid.n_theta)))
    out = 0.5 * ones.values + _apply(dp, ones)
    assert np.min(np.abs(out)) > 0.05


def test_Dprime_correction_bounded(circle_grid):
    corr = op.dense_centerline_correction(circle_grid)
    # kernel 1/|x - X(s')| <= 1/eps; row sums bounded by (1/eps) * area
    area = float(np.sum(circle_grid.flat_jacobian()) * circle_grid.node_weight)
    bound = area / circle_grid.epsilon
    assert np.max(np.abs(corr).sum(axis=1)) <= bound * (1 + 1e-12)


def test_Dprime_condition_finite(circle_grid_small):
    from slenderlap.solver import _cond_estimate, _lu
    dp = op.assemble_Dprime(circle_grid_small, "split")
    a = 0.5 * np.eye(circle_grid_small.n_nodes) + dp
    cond = _cond_estimate(_lu(a), len(a))
    assert np.isfinite(cond)
    assert cond < 1e4


# the first-kind system: D_h reduced to B inside the pair sweep -------------

@pytest.fixture(scope="module")
def trefoil_grid_128():
    cl = geo.build_centerline({"preset": "trefoil"})
    spec = geo.SurfaceSpec(centerline=cl, frame=geo.build_frame(cl, 128),
                           epsilon=1.0 / 64.0)
    return make_grid(spec, 128, 16)


FIRST_KIND_GRIDS = ["circle_grid_small", "perturbed_grid_small", "trefoil_grid",
                    "circle_grid", "perturbed_grid", "trefoil_grid_128"]


@pytest.mark.parametrize("grid_name", FIRST_KIND_GRIDS)
@pytest.mark.parametrize("backend", ["direct", "split"])
def test_first_kind_B_is_the_reduced_dense_D(backend, grid_name, request):
    """assemble_first_kind's (A, B, |A| column sums): A times J is
    assemble_S's S_h bit for bit (the same sweep), B is (1/2 I - D_h) E,
    each theta-block of assemble_D's columns summed, to 1e-15 of max|B|
    (its mirrored block sums add up in strip order), and the sums are those
    of |A| to 1e-14."""
    grid = request.getfixturevalue(grid_name)
    n_s, n_t = grid.n_s, grid.n_theta
    s_h, d_h = op.assemble_S(grid, backend), op.assemble_D(grid, backend)
    b_ref = -d_h.reshape(-1, n_s, n_t).sum(axis=2)
    diag = np.arange(n_s)
    b_ref.reshape(n_s, n_t, n_s)[diag, :, diag] += 0.5
    a_got, b_got, col = op.assemble_first_kind(grid, backend)
    assert b_got.shape == (grid.n_nodes, n_s)
    assert np.array_equal(a_got * grid.flat_jacobian(), s_h)
    assert np.max(np.abs(b_got - b_ref)) <= 1e-15 * np.max(np.abs(b_ref))
    assert np.max(np.abs(col - np.abs(a_got).sum(axis=0))) \
        <= 1e-14 * np.max(col)


@pytest.mark.parametrize("grid_name", FIRST_KIND_GRIDS)
@pytest.mark.parametrize("backend", ["direct", "split"])
def test_first_kind_matrix_is_symmetric_after_the_jacobian(backend, grid_name,
                                                           request):
    """A = S_h diag(1/J) is exactly symmetric: each lower strip's entries
    are written once and mirrored, and split's templates are even to the
    last bit.  The solver reads S_h back from one triangle of A once it has
    factored it in place."""
    grid = request.getfixturevalue(grid_name)
    a = op.assemble_first_kind(grid, backend)[0]
    assert np.array_equal(a, a.T)


@pytest.mark.parametrize("grid_name", ["perturbed_grid_small", "trefoil_grid"])
@pytest.mark.parametrize("backend", ["direct", "split"])
def test_double_layer_alone_is_the_pair_D(backend, grid_name, request):
    """assemble_D's lower strips give the full rows' K_J (the one-matrix
    dense_double_layer_direct) plus the backend's correction, to 1e-14 of
    max|D_h|, and D' is D_h plus the centerline correction bit for bit."""
    grid = request.getfixturevalue(grid_name)
    d_h = op.assemble_D(grid, backend)
    ref = op.dense_double_layer_direct(grid)
    if backend == "split":
        t_d = op._split_templates(grid)[1]
        ref += (op._circulant_from_template(t_d)
                * (grid.flat_jacobian() / grid.epsilon))
    else:
        ring = op._local_weights(grid)[1]
        n_t = grid.n_theta
        for i, block in enumerate(ring):  # the (n_t, n_t) block at s_i
            ref[i * n_t:(i + 1) * n_t, i * n_t:(i + 1) * n_t] += block
    assert np.max(np.abs(d_h - ref)) <= 1e-14 * np.max(np.abs(d_h))
    assert np.array_equal(op.assemble_Dprime(grid, backend),
                          d_h + op.dense_centerline_correction(grid))


def test_single_layer_alone_holds_one_dense_matrix(circle_grid):
    """assemble_S is assemble_first_kind's A times J, in A's array, and
    builds no N x N D_h: its tracemalloc peak is S_h plus the sweep's
    scratch and B (1.33 N x N arrays measured at 128x16, on the full rows
    and on the lower strips alike; 2.27 when it took S_h from a sweep that
    wrote D_h out too)."""
    tracemalloc.start()
    try:
        op.assemble_S(circle_grid, "split")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * circle_grid.n_nodes ** 2 * 8


def test_theta_integral_and_extensions(circle_grid_small, rng):
    g = circle_grid_small
    prof = rng.standard_normal(g.n_theta)
    ext = np.tile(prof, (g.n_s, 1))  # the profile, constant in s
    integ = op.theta_integral(g, ext, g.epsilon)
    want = np.sum(prof) * g.epsilon * 2 * math.pi / g.n_theta
    assert np.max(np.abs(integ - want)) < 1e-14
    # N rows with trailing columns, and a surface weight: the Q of the solver
    cols = rng.standard_normal((g.n_nodes, 3))
    q = op.theta_integral(g, cols, g.jacobian)
    want = (cols.reshape(g.n_s, g.n_theta, 3) * g.jacobian[..., None]).sum(axis=1)
    assert q.shape == (g.n_s, 3)
    assert np.max(np.abs(q - want * 2 * math.pi / g.n_theta)) < 1e-14


def test_mean_in_s_split_runs(perturbed_grid):
    h = 1.0 + np.cos(perturbed_grid.theta_nodes)
    h_eps, h_plus = op.mean_in_s_split(perturbed_grid, h)
    assert h_eps.shape == (perturbed_grid.n_s,)
    assert abs(np.mean(h_eps)) < 1e-12  # zero mode projected out
    assert abs(np.mean(h_plus)) < 1e-12
    assert np.max(np.abs(h_eps)) > 0
    assert np.max(np.abs(h_plus)) > 0


def test_dense_cap():
    class FakeGrid:
        n_nodes = op.DENSE_NODE_CAP * 2
    with pytest.raises(op.AssemblyError):
        op._check_dense_cap(FakeGrid())


def test_RD_output_derivative_bounded_under_refinement(perturbed_cl,
                                                       perturbed_frame):
    """Smoothing of the double-layer remainder: sup |d_s (R_D psi)| stays
    bounded under grid refinement at fixed eps for a Hoelder-rough psi."""
    from slenderlap.grid import spectral_s_derivative
    spec = geo.SurfaceSpec(centerline=perturbed_cl, frame=perturbed_frame,
                           epsilon=1.0 / 64.0)
    sups = []
    for n_s in (64, 128):
        g = make_grid(spec, n_s, 16)
        # rough density: |sin(pi s)|^{0.6} profile has bounded C^{0,1/2} norm
        rough = np.abs(np.sin(np.pi * g.s_nodes)) ** 0.6
        psi = GridFunction(np.tile(rough[:, None], (1, g.n_theta))
                           * (1.0 + 0.3 * np.cos(g.theta_nodes))[None, :])
        rd = (-op.dense_tail(g, "D") + op.dense_RD_kernel(g, 1)
              + op.dense_RD_kernel(g, 2))
        out = (rd @ psi.values.reshape(-1)).reshape(psi.values.shape)
        sups.append(float(np.max(np.abs(spectral_s_derivative(out)))))
    assert sups[1] < 2.0 * sups[0]


def test_split_D_spectral_part_theta_independent(circle_grid_small):
    # theta-independent input reaches only the m_D(k, 0) column of the
    # split operator's symbol table, so its straight part has no theta content
    g = circle_grid_small
    tab = FourierSymbol("m_D", g.epsilon).table(g.n_s, g.n_theta)
    assert tab.shape == (g.n_s, g.n_theta)
    ev = np.repeat(np.cos(2 * np.pi * g.s_nodes)[:, None], g.n_theta, axis=1)
    out = np.real(np.fft.ifft2(tab * np.fft.fft2(ev)))
    assert np.max(np.abs(out)) > 0.1
    assert np.max(np.abs(out - out[:, :1])) < 1e-13
