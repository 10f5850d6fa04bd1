"""Kernel evaluations, displacement-vector inequalities, integral scalings."""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from slenderlap import geometry as geo
from slenderlap import kernels as kn
from slenderlap import operators as op
from slenderlap.geometry import surface_point
from slenderlap.grid import make_grid, periodic_rep_s, periodic_rep_theta

FOURPI = kn.FOURPI


# scalar kernel oracles: one (target, offset) pair at a time, from the exact
# surface points, for the vectorized pair sweeps to be checked against ------

class SingularPointError(ValueError):
    """Kernel requested on the diagonal (zero offset)."""


@dataclass
class KernelPoint:
    """One (target, offset) pair with cached geometry for scalar evaluation."""

    s: float
    theta: float
    s_hat: float
    theta_hat: float
    spec: object

    def __post_init__(self):
        self.s_hat = float(periodic_rep_s(self.s_hat))
        self.theta_hat = float(periodic_rep_theta(self.theta_hat))
        spec = self.spec
        self.x, self.n_x, _ = surface_point(spec, self.s, self.theta)
        self.x_src, self.n_src, _ = surface_point(
            spec, (self.s - self.s_hat) % 1.0, self.theta - self.theta_hat)
        e_t, e_n1, e_n2, _, _ = spec.frame_at(np.array([self.s]))
        self.e_t = e_t[0]
        e_r_t = (math.cos(self.theta) * e_n1[0] + math.sin(self.theta) * e_n2[0])
        self.R = self.x - self.x_src
        self.R_t = self.s_hat * self.e_t + spec.epsilon * (e_r_t - self.n_src)
        self.abs_Rbar = math.hypot(self.s_hat,
                                   2.0 * spec.epsilon * math.sin(self.theta_hat / 2.0))

    @property
    def is_diagonal(self):
        return self.s_hat == 0.0 and self.theta_hat == 0.0


def kernel_G(p):
    """(1/4pi)/|x - x'| at a KernelPoint."""
    if p.is_diagonal:
        raise SingularPointError("G at zero offset")
    return 1.0 / (FOURPI * np.linalg.norm(p.R))


def kernel_KD(p):
    """(1/4pi)(x - x').n_{x'} / |x - x'|^3, n outward from the tube."""
    if p.is_diagonal:
        raise SingularPointError("K_D at zero offset")
    r = np.linalg.norm(p.R)
    return float(np.dot(p.R, p.n_src)) / (FOURPI * r ** 3)


def kernel_KD_straight(p):
    if p.is_diagonal:
        raise SingularPointError("K_D-bar at zero offset")
    num = -2.0 * p.spec.epsilon * math.sin(p.theta_hat / 2.0) ** 2
    return num / (FOURPI * p.abs_Rbar ** 3)


def kernel_Rt_pieces(p):
    """(1/|R|, 1/|R_t|, 1/|R-bar|) for assembling the remainder kernels."""
    if p.is_diagonal:
        raise SingularPointError("R_t pieces at zero offset")
    return (1.0 / np.linalg.norm(p.R), 1.0 / np.linalg.norm(p.R_t),
            1.0 / p.abs_Rbar)


def kp(spec, s, theta, s_hat, theta_hat):
    return KernelPoint(s=s, theta=theta, s_hat=s_hat, theta_hat=theta_hat,
                          spec=spec)


def test_kernel_G_symmetry(circle_spec64):
    p = kp(circle_spec64, 0.30, 1.2, 0.17, 0.8)
    q = kp(circle_spec64, 0.30 - 0.17, 1.2 - 0.8, -0.17, -0.8)
    assert abs(kernel_G(p) - kernel_G(q)) < 1e-14


def test_kernel_G_antipodal_circle(circle_spec64):
    # antipodal centerline points on the circle: |x - x'| ~ diameter 1/pi
    p = kp(circle_spec64, 0.0, 0.0, 0.5, 0.0)
    val = kernel_G(p)
    assert abs(val - 0.25) < 0.25 * 8 * circle_spec64.epsilon


def test_kernel_singular_point(circle_spec64):
    p = kp(circle_spec64, 0.1, 0.3, 0.0, 0.0)
    with pytest.raises(SingularPointError):
        kernel_G(p)
    with pytest.raises(SingularPointError):
        kernel_KD(p)
    with pytest.raises(SingularPointError):
        kernel_Rt_pieces(p)


def test_straight_KD_identity(circle_spec64):
    # K_D-bar = -2 eps sin^2(theta-hat/2) / (4 pi |R-bar|^3), with
    # R-bar . n-bar_{x'} = -2 eps sin^2(theta-hat/2) exactly
    eps = circle_spec64.epsilon
    p = kp(circle_spec64, 0.2, 0.9, 0.05, 1.3)
    num = -2.0 * eps * math.sin(p.theta_hat / 2) ** 2
    assert abs(kernel_KD_straight(p) - num / (4 * math.pi * p.abs_Rbar ** 3)) \
        < 1e-16


def test_KD_minus_straight_bounded(circle_grid):
    """|K_D - K_D-bar| <= C / |R| with finite empirical C on the grid."""
    pg = kn.PairGeometry(circle_grid)
    nrm = pg.NRM.T
    worst = 0.0
    for lo, hi in pg.chunks():
        f = pg.fields(lo, hi, need=("invR", "Rinv3", "absRbar", "that",
                                    "diag"))
        mask = ~f["diag"]
        kd = sum(q * n for q, n in zip(f["Rinv3"], nrm)) / kn.FOURPI
        with np.errstate(divide="ignore", invalid="ignore"):
            kd_bar = (-2.0 * circle_grid.epsilon * np.sin(0.5 * f["that"]) ** 2
                      / (kn.FOURPI * f["absRbar"] ** 3))
            ratio = np.abs(kd - kd_bar) / f["invR"]
        worst = max(worst, float(np.max(ratio[mask])))
    assert np.isfinite(worst)
    assert worst < 10.0


def test_G_minus_straight_bounded(perturbed_grid):
    """sup |G - G-bar| finite and stable as the puncture radius shrinks."""
    pg = kn.PairGeometry(perturbed_grid)
    sups = {1: 0.0, 4: 0.0}
    for lo, hi in pg.chunks():
        f = pg.fields(lo, hi, need=("absR", "absRbar", "shat", "that"))
        dist = np.sqrt(f["shat"] ** 2
                       + (perturbed_grid.epsilon * f["that"]) ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = np.abs(1.0 / f["absR"] - 1.0 / f["absRbar"]) / kn.FOURPI
        for mult in sups:
            mask = dist > mult * perturbed_grid.epsilon / 4.0
            if np.any(mask):
                sups[mult] = max(sups[mult], float(np.max(diff[mask])))
    assert np.isfinite(sups[1])
    # sup taken closer to the diagonal stays comparable: bounded difference
    assert sups[1] <= 1.5 * sups[4] + 1.0


def test_Rt_pieces_ordering(perturbed_spec64):
    p = kp(perturbed_spec64, 0.37, 2.0, 0.04, 0.7)
    inv_r, inv_rt, inv_rbar = kernel_Rt_pieces(p)
    assert inv_r > 0 and inv_rt > 0 and inv_rbar > 0
    vals = np.array([inv_r, inv_rt, inv_rbar])
    assert np.max(vals) / np.min(vals) < 5.0


def test_Rt_to_Rbar_epsilon_consistency(perturbed_cl, perturbed_frame):
    # |R_t| -> |R-bar| pointwise with difference O(eps) at fixed offsets
    diffs = []
    for eps in (1.0 / 64, 1.0 / 128):
        spec = geo.SurfaceSpec(centerline=perturbed_cl, frame=perturbed_frame,
                               epsilon=eps)
        p = kp(spec, 0.3, 1.0, 0.08, 1.1)
        diffs.append(abs(1.0 / np.linalg.norm(p.R_t) - 1.0 / p.abs_Rbar))
    assert diffs[1] < 0.75 * diffs[0]


def test_Rt_squared_slope_in_shat(perturbed_spec64):
    # theta-hat = 0, small s-hat: |R_t|^2 - |R-bar|^2 = O(eps s-hat^2)
    vals = []
    shats = (0.02, 0.01, 0.005)
    for sh in shats:
        p = kp(perturbed_spec64, 0.3, 1.0, sh, 0.0)
        vals.append(abs(np.dot(p.R_t, p.R_t) - p.abs_Rbar ** 2))
    slope = np.polyfit(np.log(shats), np.log(vals), 1)[0]
    assert slope > 1.8


def test_geometric_inequalities_circle(circle_grid):
    rep = kn.check_geometric_inequalities(circle_grid)
    assert rep["flat2cyl1_violations"] == 0
    assert rep["xest2_c_min"] > 0.0
    assert rep["flat2cyl2_c_min"] >= 0.2
    assert np.isfinite(rep["xest1_c_sup"])
    assert rep["pass"]


def test_geometric_inequalities_perturbed(perturbed_grid):
    rep = kn.check_geometric_inequalities(perturbed_grid)
    assert rep["flat2cyl1_violations"] == 0
    assert rep["pass"]


def test_oddness_cancellation(circle_grid):
    # odd-power punctured sums vanish to O(h)
    h = 1.0 / circle_grid.n_s
    for (n, m) in ((1, 0), (0, 1), (2, 1), (1, 2)):
        val = kn.oddness_residual(circle_grid, n, m)
        scale = kn.basic_integral(circle_grid, 2, 0.0)  # same singularity class
        assert abs(val) < 5.0 * h * max(scale, 1.0), (n, m, val)


def test_basic_integral_scaling(circle_cl, circle_frame):
    """Weakly singular integral int |R|^{alpha-k} eps: slope 2-k+alpha."""
    epss = [2.0 ** -k for k in (4, 5, 6, 7, 8)]
    # slope target is 2 - k + alpha (within +-0.3); O(eps) for k - alpha <= 1
    for (k_pow, alpha, lo, hi) in ((2, 0.5, 0.2, 0.8), (2, 0.25, -0.05, 0.55),
                                   (1, 0.0, 0.7, 1.3)):
        vals = []
        for eps in epss:
            spec = geo.SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                                   epsilon=eps)
            g = make_grid(spec, 128, 16)
            vals.append(kn.basic_integral(g, k_pow, alpha))
        slope = np.polyfit(np.log(epss), np.log(vals), 1)[0]
        assert lo <= slope <= hi, (k_pow, alpha, slope)


def test_basic_integral_straight_vs_curved(circle_grid):
    curved = kn.basic_integral(circle_grid, 2, 0.5)
    straight = kn.basic_integral(circle_grid, 2, 0.5, use_straight=True)
    assert 0.2 < curved / straight < 5.0


def test_geometric_inequalities_circle_eps128(circle_cl, circle_frame):
    spec = geo.SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                           epsilon=1.0 / 128.0)
    rep = kn.check_geometric_inequalities(make_grid(spec, 128, 16))
    assert rep["pass"]


def test_pair_fields_build_only_what_is_asked(trefoil_grid):
    """fields builds the names asked for (and what Rinv3 is made with), and
    a name it does not build, such as the dropped "Rn" and "absRt", is a
    ValueError naming it, not an empty field set."""
    pg = kn.PairGeometry(trefoil_grid)
    assert set(pg.fields(0, 8, need=("absR",))) == {"absR"}
    assert set(pg.fields(0, 8, need=("invRt",))) == {"invRt"}
    assert set(pg.fields(0, 8, need=("Rinv3",))) == {"Rinv3", "invR", "invR3"}
    for name in ("Rn", "absRt"):
        with pytest.raises(ValueError, match=f"unknown pair fields.*'{name}'"):
            pg.fields(0, 8, need=("invR", name))


def _inverse(r):
    """1/r, 0 where r is 0 (the self-pair)."""
    return np.divide(1.0, r, out=np.zeros_like(r), where=r > 0.0)


def test_pair_fields_gather_offsets(trefoil_grid):
    """Gathered offsets equal the periodic node differences, and the
    componentwise 1/|R|, R/|R|^3 and 1/|R_t| equal their vector forms, 0 at
    the self-pair."""
    g = trefoil_grid
    pg = kn.PairGeometry(g)
    s = np.repeat(g.s_nodes, g.n_theta)
    th = np.tile(g.theta_nodes, g.n_s)
    for lo in range(0, g.n_nodes, 37):  # chunks that split s-rows
        hi = min(lo + 37, g.n_nodes)
        f = pg.fields(lo, hi, need=("shat", "that", "absRbar", "invR",
                                    "Rinv3", "invRt"))
        shat = periodic_rep_s(s[lo:hi, None] - s[None, :])
        that = periodic_rep_theta(th[lo:hi, None] - th[None, :])
        assert np.array_equal(f["shat"], shat)
        assert np.allclose(f["that"], that, rtol=0, atol=1e-14)
        rbar = np.sqrt(shat ** 2 + (2 * g.epsilon * np.sin(0.5 * that)) ** 2)
        assert np.allclose(f["absRbar"], rbar, rtol=1e-14, atol=0)
        diff = pg.P[lo:hi, None, :] - pg.P[None, :, :]
        inv_r = _inverse(np.linalg.norm(diff, axis=2))
        assert np.allclose(f["invR"], inv_r, rtol=1e-14, atol=0)
        for k in range(3):
            assert np.allclose(f["Rinv3"][k], diff[:, :, k] * inv_r ** 3,
                               rtol=1e-14, atol=0)
        e_t = g.e_t[np.arange(lo, hi) // g.n_theta]
        rt = (shat[:, :, None] * e_t[:, None, :] + g.epsilon
              * (pg.NRM[lo:hi, None, :] - pg.NRM[None, :, :]))
        assert np.allclose(f["invRt"], _inverse(np.linalg.norm(rt, axis=2)),
                           rtol=1e-14, atol=0)


def _rt_by_components(pg, lo, hi):
    """|R_t| at rows [lo, hi), one component at a time:
    R_t = (s-hat e_t(s) + eps e_r(s, theta)) - eps n_src."""
    g = pg.grid
    shat = pg._templates["shat"][(pg.i_s[lo:hi, None] - np.arange(g.n_s))
                                 % g.n_s, 0]
    e_t = g.e_t[pg.i_s[lo:hi]]
    eps_n = (g.epsilon * pg.NRM.T).reshape(3, g.n_s, g.n_theta)
    rt2 = 0.0
    for k in range(3):
        near = shat * e_t[:, k, None] + g.epsilon * pg.NRM[lo:hi, k, None]
        rt2 = rt2 + (near[:, :, None] - eps_n[k]) ** 2
    return np.sqrt(rt2).reshape(hi - lo, -1)


@pytest.fixture(scope="module")
def circle_grid_eps16(circle_cl, circle_frame):
    """The circle at eps 1/16, the largest eps of the studies."""
    spec = geo.SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                           epsilon=1.0 / 16.0)
    return make_grid(spec, 128, 16)


@pytest.mark.parametrize("grid_name", ["circle_grid_eps16", "perturbed_grid",
                                       "trefoil_grid"])
def test_rt_from_its_gemm_matches_the_component_form(grid_name, request):
    """1/|R_t|, built by one GEMM per target ring and by components where
    |s-hat| <= eps, is the component form's to 2e-15 relative off the
    self-pair (measured 6.7e-16; the GEMM alone read up to 8.1e-15 on the
    circle), in chunks that split rings; the self-pair reads 0, and no
    RuntimeWarning is raised on the way."""
    g = request.getfixturevalue(grid_name)
    pg = kn.PairGeometry(g)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lo in range(0, g.n_nodes, 37):
            hi = min(lo + 37, g.n_nodes)
            got = pg.fields(lo, hi, need=("invRt",))["invRt"]
            self_pair = np.arange(hi - lo), np.arange(lo, hi)
            assert np.all(got[self_pair] == 0.0)
            got[self_pair] = np.nan
            rel = np.abs(got * _rt_by_components(pg, lo, hi) - 1.0)
            worst = max(worst, np.nanmax(rel))
    assert worst <= 2e-15, worst


# the pair-kernel table against the scalar oracles ----------------------------

def _oracle_entries(p, khat_src):
    """(value, scale) of each table kernel at one pair, from the oracles.

    The values carry 1/4pi and no weight eps; a kernel's scale is the size of
    the terms it combines, since differences like K_D - K_D-bar cancel."""
    eps = p.spec.epsilon
    inv_r, inv_rt, inv_rbar = kernel_Rt_pieces(p)
    kd, kd_bar = kernel_KD(p), kernel_KD_straight(p)
    g, kd_size = inv_r / FOURPI, inv_r ** 2 / FOURPI  # |R . n| <= |R|
    return {
        "G": (kernel_G(p), g),
        "KD": (kd, kd_size),
        "RS1": ((inv_r - inv_rt) / FOURPI, max(inv_r, inv_rt) / FOURPI),
        "RS2": ((inv_rt - inv_rbar) / FOURPI, max(inv_rt, inv_rbar) / FOURPI),
        "RS3": (-eps * khat_src * g, eps * abs(khat_src) * g),
        "RD1": (kd - kd_bar, kd_size + abs(kd_bar)),
        "RD2": (-eps * khat_src * kd, eps * abs(khat_src) * kd_size),
    }


@pytest.mark.parametrize("grid_name", ["perturbed_grid_small", "trefoil_grid"])
def test_pair_kernels_match_scalar_oracles(grid_name, request):
    """50 seeded off-diagonal entries of each dense pair kernel (weight eps)
    equal the scalar oracles to 1e-12 of their terms' size, and every
    self-pair entry is exactly 0."""
    g = request.getfixturevalue(grid_name)
    mats = {"G": op.dense_single_layer_direct(g, weight="eps"),
            "KD": op.dense_double_layer_direct(g, weight="eps"),
            **{f"RS{j}": op.dense_RS_kernel(g, j) for j in (1, 2, 3)},
            **{f"RD{j}": op.dense_RD_kernel(g, j) for j in (1, 2)}}
    s = np.repeat(g.s_nodes, g.n_theta)
    th = np.tile(g.theta_nodes, g.n_s)
    rng = np.random.default_rng(2024)
    tgt = rng.integers(0, g.n_nodes, 50)
    src = (tgt + rng.integers(1, g.n_nodes, 50)) % g.n_nodes
    src[:8] = (tgt[:8] + np.array([1, -1, 2, 7, 8, -8, 9, -9])) % g.n_nodes
    weight = g.epsilon * g.node_weight
    for i, a in zip(tgt, src):
        p = kp(g.spec, s[i], th[i], s[i] - s[a], th[i] - th[a])
        for name, (want, scale) in _oracle_entries(
                p, g.khat.reshape(-1)[a]).items():
            got = mats[name][i, a] / weight
            assert abs(got - want) <= 1e-12 * scale, (name, i, a, got, want)
    for name, mat in mats.items():
        assert np.all(np.diag(mat) == 0.0), name


KERNEL_NAMES = ("G", "KD", "RS1", "RS2", "RS3", "RD1", "RD2", "RD")


@pytest.mark.parametrize("grid_name", ["perturbed_grid_small", "trefoil_grid"])
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_pair_kernel_rows_are_punctured(name, grid_name, request):
    """A kernel's rows, evaluated outside any sweep, are finite and exactly 0
    at the self-pair: the fields they are built from drop it."""
    g = request.getfixturevalue(grid_name)
    fn, need, templates = op._pair_kernel(g, name)
    pg = kn.PairGeometry(g, templates=templates)
    lo, hi = 37, 74  # a chunk that splits s-rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = fn(pg.fields(lo, hi, need))
    assert rows.shape == (hi - lo, g.n_nodes)
    assert np.all(np.isfinite(rows)), name
    assert np.all(rows[np.arange(hi - lo), np.arange(lo, hi)] == 0.0), name
