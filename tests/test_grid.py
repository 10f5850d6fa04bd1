"""Grid quadrature and discrete Hoelder norm tests."""

import math

import numpy as np
import pytest

from slenderlap import grid as gr
from slenderlap.spectral import GridFunction


def test_trapezoid_mode_exactness(circle_grid_small):
    # the grid's rule, node weight on the tensor nodes, integrates every
    # mode below the Nyquist mode exactly
    g = circle_grid_small
    for k in (-31, -3, 0, 1, 7):
        for ell in (-3, 0, 2):
            vals = (np.exp(2j * np.pi * k * g.s_nodes)[:, None]
                    * np.exp(1j * ell * g.theta_nodes)[None, :])
            val = complex(np.sum(vals) * g.node_weight)
            want = 2.0 * math.pi if (k == 0 and ell == 0) else 0.0
            assert abs(val - want) < 1e-13


def test_punctured_trapezoid_counting(circle_grid_small):
    # the punctured row sum drops the target node and nothing else: the
    # kernel 1 (|R|^0) sums to eps 2 pi (1 - 1/N)
    from slenderlap.kernels import basic_integral
    g = circle_grid_small
    val = basic_integral(g, 0, 0.0, target=(3, 2))
    want = g.epsilon * 2.0 * math.pi * (1.0 - 1.0 / g.n_nodes)
    assert abs(val - want) < 1e-12 * g.epsilon


def test_punctured_trapezoid_against_spectral_oracle(circle_grid):
    """Weakly singular 1/|R-bar| integrates to within O(h log h) of the
    value implied by the m_S symbol (spectral oracle)."""
    from slenderlap import operators as op
    from slenderlap.spectral import FourierSymbol
    g = circle_grid
    # trapezoid of the periodized straight kernel applied to a pure mode
    mat = op.dense_straight_central(g, "S") + op.dense_tail(g, "S")
    mode = (np.cos(2 * np.pi * g.s_nodes)[:, None]
            * np.cos(g.theta_nodes)[None, :]).reshape(-1)
    coeff = float(mode @ (mat @ mode) / (mode @ mode))
    exact = FourierSymbol("m_S", g.epsilon).evaluate(1, 1)
    h = 1.0 / g.n_s
    assert abs(coeff - exact) < 5.0 * h * abs(math.log(h))


def test_holder_seminorm_constant():
    f = GridFunction(np.ones(64))
    assert gr.holder_seminorm(f, 0.5, 0.0) == 0.0
    g = GridFunction(np.ones((32, 8)))
    assert gr.holder_seminorm(g, 0.5, 0.01) == 0.0


def test_holder_seminorm_lipschitz_cosine():
    n = 256
    s = np.arange(n) / n
    f = GridFunction(np.cos(2 * np.pi * s))
    sem = gr.holder_seminorm(f, 1.0, 0.0)
    assert abs(sem - 2 * math.pi) / (2 * math.pi) < 0.02


def test_holder_seminorm_metric_scaling():
    # f = cos(theta) on the surface: seminorm grows like eps^-alpha
    n_s, n_t = 32, 16
    th = 2 * math.pi * np.arange(n_t) / n_t
    f = GridFunction(np.tile(np.cos(th), (n_s, 1)))
    alpha = 0.5
    s1 = gr.holder_seminorm(f, alpha, 1.0 / 32)
    s2 = gr.holder_seminorm(f, alpha, 1.0 / 128)
    assert abs(s2 / s1 - 4.0 ** alpha) < 0.05


def test_holder_seminorm_triangle(rng):
    n = 128
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    alpha = 0.3
    sa = gr.holder_seminorm(GridFunction(a), alpha, 0.0)
    sb = gr.holder_seminorm(GridFunction(b), alpha, 0.0)
    sab = gr.holder_seminorm(GridFunction(a + b), alpha, 0.0)
    assert sab <= sa + sb + 1e-12


def _holder_all_pairs(vals, alpha, epsilon):
    """Brute-force maximum over every node pair."""
    vals = vals.reshape(vals.shape[0], -1)
    n_s, n_t = vals.shape
    i_s, i_t = np.divmod(np.arange(vals.size), n_t)
    ds = gr.periodic_rep_s((i_s[:, None] - i_s[None, :]) / n_s)
    dt = gr.periodic_rep_theta(2 * math.pi * (i_t[:, None] - i_t[None, :]) / n_t)
    dist = np.sqrt(ds ** 2 + (epsilon * dt) ** 2)
    dv = np.abs(vals.reshape(-1)[:, None] - vals.reshape(-1)[None, :])
    mask = dist > 0
    return float(np.max(dv[mask] / dist[mask] ** alpha))


@pytest.mark.parametrize("shape,epsilon,kind", [
    ((512,), 0.0, "noise"), ((1024,), 0.0, "smooth"),
    ((64, 16), 1.0 / 64, "noise"), ((128, 16), 1.0 / 64, "smooth"),
    ((256, 8), 1.0 / 128, "smooth"), ((64, 16), 0.0, "smooth")])
@pytest.mark.parametrize("alpha", [0.25, 1.0])
def test_holder_seminorm_matches_all_pairs(shape, epsilon, kind, alpha, rng):
    if kind == "noise":
        vals = rng.standard_normal(shape)
    else:
        s = np.arange(shape[0]) / shape[0]
        vals = np.cos(2 * np.pi * s) + 0.3 * np.sin(6 * np.pi * s)
        if len(shape) == 2:
            th = 2 * math.pi * np.arange(shape[1]) / shape[1]
            vals = vals[:, None] * (1.0 + 0.5 * np.cos(th))[None, :]
    want = _holder_all_pairs(vals, alpha, epsilon)
    got = gr.holder_seminorm(GridFunction(vals), alpha, epsilon)
    assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("shape,epsilon", [((16384,), 0.0),
                                           ((1024, 16), 1.0 / 256)])
def test_holder_seminorm_sees_a_spike_on_large_grids(shape, epsilon):
    """A unit spike's seminorm is h_s^-alpha, past any pair-count cap."""
    vals = np.zeros(shape)
    vals[(0,) * len(shape)] = 1.0
    want = shape[0] ** 0.25  # nearest neighbour along s, h_s < eps h_theta
    got = gr.holder_seminorm(GridFunction(vals), 0.25, epsilon)
    assert abs(got - want) <= 1e-14 * want


def _holder_by_distance(f, alpha, epsilon):
    """The seminorm as it was first written: every offset, in order of
    increasing distance, until osc/d^alpha cannot beat the best ratio."""
    vals = np.asarray(f, float)
    vals = vals.reshape(vals.shape[0], -1)
    n_s, n_t = vals.shape
    v = vals.reshape(-1)
    ds, dt = gr.offset_templates(n_s, n_t)
    dist = np.sqrt(ds[:, None] ** 2 + (epsilon * dt[None, :]) ** 2).reshape(-1)
    offs = np.argsort(dist, kind="stable")
    offs = offs[dist[offs] > 0]
    scale = dist[offs] ** alpha
    osc = float(np.max(v) - np.min(v))
    i_s, i_t = np.arange(n_s), np.arange(n_t)
    batch = max(1, (1 << 16) // v.size)
    best = 0.0
    for lo in range(0, offs.size, batch):
        if osc / scale[lo] <= best:
            break
        o_s, o_t = np.divmod(offs[lo:lo + batch], n_t)
        src = (((i_s - o_s[:, None]) % n_s)[:, :, None] * n_t
               + ((i_t - o_t[:, None]) % n_t)[:, None, :])
        dv = np.max(np.abs(v - v[src.reshape(src.shape[0], -1)]), axis=1)
        best = max(best, float(np.max(dv / scale[lo:lo + batch])))
    return best


def _holder_data(kind, shape, rng):
    """smooth, band-limited (modes 1-16 at 1/k^2, as the studies' density),
    random, or a unit spike; on an s-circle or an (n_s, n_theta) surface."""
    s = np.arange(shape[0]) / shape[0]
    th = 2 * math.pi * np.arange(shape[-1]) / shape[-1]
    if kind == "spike":
        vals = np.zeros(shape)
        vals[(shape[0] // 3,) + (5,) * (len(shape) - 1)] = 1.0
        return vals
    if kind == "random":
        return rng.standard_normal(shape)
    if kind == "smooth":
        vals = np.cos(2 * math.pi * s) + 0.3 * np.sin(6 * math.pi * s)
        ring = 1.0 + 0.5 * np.cos(th)
    else:
        k = np.arange(1, 17)
        a, b = rng.standard_normal((2, 16)) / k ** 2
        phase = 2 * math.pi * np.outer(s, k)
        vals = np.cos(phase) @ a + np.sin(phase) @ b
        ring = 1.0 + 0.2 * np.cos(th) + 0.1 * np.sin(2 * th)
    return vals if len(shape) == 1 else vals[:, None] * ring


_KINDS = ("smooth", "band", "random", "spike")
_EPS = (0.0, 1 / 16, 1 / 64, 1 / 256, 1 / 1024)


@pytest.mark.parametrize("shape,kind,epsilon", [
    *(((128, 16), k, e) for k in _KINDS for e in _EPS),
    *(((256, 16), k, e) for k in _KINDS for e in (1 / 16, 1 / 1024)),
    *(((1024, 16), k, e) for k in ("random", "spike") for e in (0.0, 1 / 1024)),
    ((1024, 16), "smooth", 0.0),
    *(((128,), k, e) for k in _KINDS for e in (0.0, 1 / 64)),
    *(((4096,), k, 0.0) for k in _KINDS)])
def test_holder_seminorm_equals_the_distance_ordered_sweep(shape, kind, epsilon,
                                                           rng):
    """One offset of each pair o, -o, visited by bound, gives the same bits."""
    vals = _holder_data(kind, shape, rng)
    assert gr.holder_seminorm(vals, 0.25, epsilon) == _holder_by_distance(
        vals, 0.25, epsilon)


def test_holder_seminorm_monotone_in_alpha(rng):
    # oscillation <= 1, distances <= 1/2 < 1: seminorm nondecreasing in alpha
    n = 64
    k = np.fft.fftfreq(n, 1.0 / n)
    spec = np.exp(-np.abs(k)) * (rng.standard_normal(n)
                                 + 1j * rng.standard_normal(n))
    vals = np.real(np.fft.ifft(spec))
    vals = 0.5 * vals / np.max(np.abs(vals))
    f = GridFunction(vals)
    sems = [gr.holder_seminorm(f, a, 0.0) for a in (0.2, 0.4, 0.6, 0.8)]
    assert all(y >= x - 1e-12 for x, y in zip(sems, sems[1:]))


def test_spectral_derivative_exact():
    n = 64
    s = np.arange(n) / n
    f = np.sin(2 * np.pi * 3 * s)
    fp = gr.spectral_s_derivative(f)
    assert np.max(np.abs(fp - 6 * np.pi * np.cos(2 * np.pi * 3 * s))) < 1e-10


def test_periodic_representatives():
    assert gr.periodic_rep_s(0.75) == -0.25
    assert gr.periodic_rep_s(0.5) == 0.5  # tie toward positive
    assert gr.periodic_rep_theta(1.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    assert gr.periodic_rep_theta(math.pi) == math.pi


def test_grid_invariants(circle_grid):
    g = circle_grid
    assert g.node_weight == pytest.approx((1 / g.n_s) * (2 * math.pi / g.n_theta))
    # J = eps (1 - eps khat) > 0 everywhere
    assert np.all(g.jacobian > 0)
    # theta-integral of J is 2 pi eps exactly
    dtheta = 2 * math.pi / g.n_theta
    tot = np.sum(g.jacobian, axis=1) * dtheta
    assert np.max(np.abs(tot - 2 * math.pi * g.epsilon)) < 1e-14


def test_holder_norm_refuses_non_finite_data(circle_grid_small):
    """A NaN would make the norm NaN, silently: it is a ValueError."""
    g = circle_grid_small
    f = np.cos(2.0 * np.pi * g.s_nodes)[:, None] + np.sin(g.theta_nodes)
    assert math.isfinite(gr.holder_norm(f, 0.25, g.epsilon))
    for value in (np.nan, np.inf, -np.inf):
        for bad in (f.copy(), f[:, 0].copy()):
            bad.flat[3] = value
            with pytest.raises(ValueError,
                               match="^f holds non-finite values"):
                gr.holder_norm(bad, 0.25, g.epsilon)
