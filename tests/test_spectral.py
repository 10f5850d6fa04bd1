"""Transforms and straight-cylinder symbols against independent oracles.

The double-layer symbol is checked against a brute-force quadrature of the
straight kernel with image sums; the quadrature's diagonal-puncture bias is
cancelled by comparing differences against the exactly known (0, 0) value.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from slenderlap import specfun as sf
from slenderlap import spectral as sp


def _value(name, eps, k, ell=0):
    return sp.FourierSymbol(name, eps).evaluate(k, ell)


def k0_cos_quadrature(z, ell):
    """int_0^{2pi} cos(l t) K_0(z sin(t/2)) dt by adaptive quadrature."""

    def integrand(t):
        return math.cos(ell * t) * sf.bessel_K(0, z * math.sin(0.5 * t))

    val, err = quad(integrand, 0.0, 2.0 * math.pi, limit=400,
                    points=[0.0, math.pi, 2.0 * math.pi], epsabs=1e-12,
                    epsrel=1e-12)
    return val


def brute_force_mD(eps, k, ell, n_s=1024, n_t=256, images=15):
    """Punctured-trapezoid Rayleigh coefficient of the straight D kernel."""
    hs, ht = 1.0 / n_s, 2.0 * math.pi / n_t
    sh = (np.arange(n_s * (2 * images + 1)) - n_s * (2 * images + 1) // 2) * hs
    th = (np.arange(n_t) - n_t // 2) * ht
    acc = 0.0 + 0.0j
    for lo in range(0, sh.size, 4096):
        shc = sh[lo:lo + 4096][:, None]
        r2 = shc ** 2 + 4.0 * eps ** 2 * np.sin(th / 2) ** 2
        r2 = np.where(r2 == 0, np.inf, r2)
        ker = (-2.0 * eps * np.sin(th / 2) ** 2) / (4 * math.pi * np.sqrt(r2) ** 3)
        acc += np.sum(ker * np.exp(-2j * math.pi * k * shc)
                      * np.exp(-1j * ell * th)[None, :])
    return (acc * hs * ht * eps).real


def test_bessel_cos_identity():
    # int cos(l t) K_0(z sin(t/2)) dt = 2 pi I_l(z/2) K_l(z/2)
    for z in (0.2, 2.0, 20.0):
        for ell in range(0, 9):
            lhs = k0_cos_quadrature(z, ell)
            rhs = (2.0 * math.pi * sf.bessel_I(ell, z / 2)
                   * math.exp(-z / 2) * sf.bessel_K_scaled(ell, z / 2))
            assert abs(lhs - rhs) <= 1e-8, (z, ell)


def test_bessel_sin_orthogonality():
    for z in (0.5, 3.0):
        for ell in (1, 3):
            def integrand(t):
                return math.sin(ell * t) * sf.bessel_K(0, z * math.sin(0.5 * t))
            val, _ = quad(integrand, 0.0, 2.0 * math.pi, limit=400,
                          points=[0.0, math.pi, 2.0 * math.pi], epsabs=1e-12)
            assert abs(val) <= 1e-10


def test_symbol_m_S_against_quadrature():
    # 2 pi eps |k| = 1 <-> z = 2 in the K_0 integral identity
    eps, k = 1.0 / (2.0 * math.pi), 1
    direct = (eps / (2.0 * math.pi)) * k0_cos_quadrature(2.0, 0)
    assert abs(_value("m_S", eps, k, 0) - direct) <= 1e-8


def test_symbol_m_S_zero_k_limit():
    eps = 0.01
    for ell in (1, 2, 5):
        limit = _value("m_S", eps, 0, ell)
        assert abs(limit - eps / (2 * ell)) < 1e-15
        # small-argument product: evaluate I_l K_l at z = 1e-6
        z = 1e-6
        prod = sf.bessel_I(ell, z) * sf.bessel_K(ell, z)
        assert abs(eps * prod - limit) < 1e-6 * limit


def test_symbol_m_S_undefined_mode():
    with pytest.raises(sp.UndefinedModeError):
        _value("m_S", 0.01, 0, 0)
    with pytest.raises(sp.UndefinedModeError):
        sp.FourierSymbol("m_S_inv", 0.01).evaluate(0)


def test_symbol_m_D_brute_force_oracle():
    """Corrected l != 0 coefficient against the kernel quadrature.

    The brute sum carries a k-independent puncture bias, cancelled by
    differencing against the (0, 0) mode whose exact value is -1/2.
    """
    eps = 1.0 / 32.0
    bias = brute_force_mD(eps, 0, 0) - (-0.5)
    for (k, ell) in ((1, 0), (1, 1), (2, 1), (1, 2)):
        brute = brute_force_mD(eps, k, ell) - bias
        assert abs(brute - _value("m_D", eps, k, ell)) <= 5e-6, (k, ell)


def test_symbol_m_D_zero_mode_values():
    eps = 0.01
    assert _value("m_D", eps, 0, 0) == -0.5
    assert _value("m_D", eps, 0, 3) == 0.0
    # continuity: k -> 0 limits approach the k = 0 values
    assert abs(_value("m_D", 1e-9, 1, 0) - (-0.5)) < 1e-6
    assert abs(_value("m_D", 1e-9, 1, 1)) < 1e-6


def test_symbol_m_D_bounded():
    for eps in (1e-3, 1e-2, 1e-1):
        for k in (0, 1, 5, 50, 1000):
            for ell in (0, 1, 4, 8):
                assert abs(_value("m_D", eps, k, ell)) <= 1.0


def test_growth_sandwich():
    # 4 pi^2 eps |k| <= m_eps_inv(k) <= 4 pi^2 eps |k| + 2 pi
    for eps in (1e-3, 1e-2, 1e-1):
        ks = np.unique(np.geomspace(1, 1e4, 120).astype(int))
        for k in ks:
            val = _value("m_eps_inv", eps, int(k))
            lin = 4.0 * math.pi ** 2 * eps * k
            assert lin <= val <= lin + 2.0 * math.pi


def test_low_k_log_growth():
    # m_eps_inv(k) ~ 1/|log(eps k)| for eps k <= 0.1
    vals = []
    for eps in (1e-4, 1e-3):
        for k in (1, 3, 10, 30):
            if eps * k <= 0.1:
                vals.append(_value("m_eps_inv", eps, k)
                            * abs(math.log(eps * k)))
    assert 1.0 < min(vals) and max(vals) < 50.0


def test_symbol_evenness():
    eps = 0.02
    for k in (1, 3):
        for ell in (0, 2):
            assert _value("m_S", eps, k, ell) == _value("m_S", eps, -k, ell)
            assert _value("m_S", eps, k, ell) == _value("m_S", eps, k, -ell)
            assert _value("m_D", eps, k, ell) == _value("m_D", eps, -k, -ell)
    assert _value("m_eps_inv", eps, 5) == _value("m_eps_inv", eps, -5)


def test_reciprocity_and_mS_inv():
    eps = 0.015
    for k in (1, 2, 17):
        assert abs(_value("m_eps", eps, k) * _value("m_eps_inv", eps, k)
                   - 1.0) < 1e-12
        assert abs(_value("m_S_inv", eps, k) * _value("m_S", eps, k, 0)
                   - 1.0) < 1e-12


@pytest.mark.parametrize("name", sp.SYMBOLS)
@pytest.mark.parametrize("n_s, n_t", [(64, 8), (128, None)])
def test_table_matches_evaluate_at_every_mode(name, n_s, n_t):
    sym = sp.FourierSymbol(name, 1.0 / 64.0)
    ells = sp.theta_modes(n_t) if n_t else [0]
    tab = sym.table(n_s, n_t).reshape(n_s, len(ells))
    undefined = set()
    for i, k in enumerate(sp.s_modes(n_s)):
        for j, ell in enumerate(ells):
            try:
                want = sym.evaluate(k, ell)
            except sp.UndefinedModeError:
                assert tab[i, j] == 0.0, (k, ell)
                undefined.add((int(k), int(ell)))
                continue
            assert tab[i, j] == want, (k, ell)
    expected = {"m_S": {(0, 0)}, "m_S_inv": {(0, int(ell)) for ell in ells}}
    assert undefined == expected.get(name, set())


@pytest.mark.parametrize("eps", [1.0 / 16.0, 1.0 / 128.0])
def test_m_S_m_D_tables_against_mpmath(eps):
    tab_s = sp.FourierSymbol("m_S", eps).table(256, 16)
    tab_d = sp.FourierSymbol("m_D", eps).table(256, 16)
    with mp.workdps(40):
        for k in (1, 5, 64, 128):
            w = 2 * mp.pi * mp.mpf(eps) * k
            for ell in (0, 1, 3, 8):
                i_l = mp.besseli(ell, w)
                m_s = eps * i_l * mp.besselk(ell, w)
                # 0.5 - (w/2) I (K + K) cancels, so m_D is held absolutely
                m_d = 0.5 - w / 2 * i_l * (mp.besselk(ell - 1, w)
                                           + mp.besselk(ell + 1, w))
                assert abs(tab_s[k, ell] / m_s - 1) < 1e-13, (k, ell)
                assert abs(tab_d[k, ell] - m_d) < 1e-14, (k, ell)


def test_m_S_inv_finite_past_arg_cap():
    eps = 1e-2
    xi = 2.0 * sf.ARG_CAP / (2.0 * math.pi * eps) + 0.5  # real xi, w > ARG_CAP
    val = sp.FourierSymbol("m_S_inv", eps).evaluate(xi)
    assert np.isfinite(val)
    # high-frequency limit 1/(eps I_0 K_0) -> 2 w/eps = 4 pi |xi|
    assert abs(val / (4.0 * math.pi * xi) - 1.0) < 1e-5


def test_apply_reciprocal_symbols(rng):
    eps = 1.0 / 64.0
    vals = rng.standard_normal(128)
    vals -= vals.mean()
    tab_inv = sp.FourierSymbol("m_eps_inv", eps).table(128)
    tab = sp.FourierSymbol("m_eps", eps).table(128)
    out = sp.apply_symbol(tab, sp.apply_symbol(tab_inv, vals))
    assert np.max(np.abs(out - vals)) < 1e-12


def test_apply_diagonal_action():
    eps = 1.0 / 64.0
    n_s, n_t = 64, 16
    s = np.arange(n_s) / n_s
    th = 2 * np.pi * np.arange(n_t) / n_t
    f = np.cos(2 * np.pi * s)[:, None] * np.cos(th)[None, :]
    out = sp.apply_symbol(sp.FourierSymbol("m_S", eps).table(n_s, n_t), f)
    want = _value("m_S", eps, 1, 1) * f
    assert np.max(np.abs(out - want)) < 1e-13
    # eigenfunction of the 1D DtN symbol
    g = np.cos(2 * np.pi * 3 * s)
    out = sp.apply_symbol(sp.FourierSymbol("m_eps_inv", eps).table(n_s), g)
    assert np.max(np.abs(out - _value("m_eps_inv", eps, 3) * g)) < 1e-12


def test_apply_real_output(rng):
    f = rng.standard_normal((32, 8))
    out = sp.apply_symbol(sp.FourierSymbol("m_D", 0.01).table(32, 8), f)
    assert np.isrealobj(out)


def test_symbol_dense_matrix_matches_fft(rng):
    eps = 0.02
    tab = sp.FourierSymbol("m_D", eps).table(32, 8)
    mat = sp.symbol_dense_matrix(tab)
    f = rng.standard_normal((32, 8))
    via_mat = (mat @ f.reshape(-1)).reshape(32, 8)
    via_fft = np.real(np.fft.ifft2(tab * np.fft.fft2(f)))
    assert np.max(np.abs(via_mat - via_fft)) < 1e-12
    assert np.array_equal(sp.apply_symbol(tab, f), via_fft)


@pytest.mark.parametrize("shape", [(8,), (8, 4), (4, 1), (1, 4), (16, 8)])
def test_circulant_rows_match_index_gather(shape, rng):
    t = rng.standard_normal(shape)
    t2 = t[:, None] if t.ndim == 1 else t
    n_s, n_t = t2.shape
    ids = (np.arange(n_s)[:, None] - np.arange(n_s)[None, :]) % n_s
    idt = (np.arange(n_t)[:, None] - np.arange(n_t)[None, :]) % n_t
    ref = t2[ids[:, None, :, None], idt[None, :, None, :]].reshape(
        n_s * n_t, n_s * n_t)
    full = sp.circulant_from_template(t)  # a fresh array, not a view of t
    assert np.array_equal(full, ref) and not np.shares_memory(full, t)
    windows, n = sp.offset_windows(t), n_s * n_t
    for lo in range(n):  # every row range, whole s-rows or not, over all
        for hi in range(lo + 1, n + 1):  # columns or a lower strip's [0, hi)
            for cols in (n, hi):
                out = np.full((hi - lo, cols), np.nan)
                assert sp.circulant_rows(windows, lo, hi, out) is out
                assert np.array_equal(out, ref[lo:hi, :cols]), (lo, hi)


def test_finite_diff_symbol_bounds():
    for name in ("m_S_inv", "m_eps_inv", "m_eps"):
        rep = sp.finite_diff_symbol_bounds(name, 1e-2)
        for key, val in rep.items():
            assert np.isfinite(val), (name, key)
            assert val < 100.0, (name, key, val)
