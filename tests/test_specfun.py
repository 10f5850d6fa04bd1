"""Bessel module tests against independent oracles.

Oracles used here (implemented in this file, independent of the package):
  - truncated ascending series in extended precision (mpmath) for I;
  - Steed/Thompson-Barnett continued fraction (CF2) for K at moderate z;
  - identity-based checks (Wronskian, recurrence) that need no reference.
Expected values were computed with these oracles and frozen below.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from slenderlap import specfun as sf

mp.mp.dps = 50


def i_series_oracle(nu, z, nterms=80):
    """Truncated ascending series in 50-digit arithmetic."""
    half = mp.mpf(z) / 2
    t = mp.mpf(1)
    for j in range(1, nu + 1):
        t *= half / j
    s = t
    for m in range(1, nterms):
        t *= (half * half) / (m * (m + nu))
        s += t
    return s


def cf2_k01_oracle(x):
    """K_0(x), K_1(x) by the Steed CF2 algorithm (mu = 0), x >= 2."""
    EPS = mp.mpf(10) ** -40
    b = 2 * (1 + mp.mpf(x))
    d = 1 / b
    h = delh = d
    q1, q2 = mp.mpf(0), mp.mpf(1)
    a1 = mp.mpf(0.25)
    q = c = a1
    a = -a1
    s = 1 + q * delh
    for i in range(2, 10000):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2
        d = 1 / (b + a * d)
        delh = (b * d - 1) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < EPS:
            break
    h = a1 * h
    rk0 = mp.sqrt(mp.pi / (2 * x)) * mp.exp(-x) / s
    rk1 = rk0 * (x + mp.mpf(0.5) - h) / x
    return rk0, rk1


# values frozen from the oracles above
I1_AT_1 = 0.56515910399248502721
K0_AT_10 = 1.7780062316167651811e-05
K1_AT_10 = 1.8648773453825584597e-05
K1_OVER_K0_AT_1 = 1.429625398260401758


def test_oracles_reproduce_frozen_values():
    assert abs(float(i_series_oracle(1, 1)) - I1_AT_1) < 1e-16
    k0, k1 = cf2_k01_oracle(10)
    assert abs(float(k0) - K0_AT_10) < 1e-19
    assert abs(float(k1) - K1_AT_10) < 1e-19


def test_bessel_I_trivial_values():
    assert sf.bessel_I(0, 0.0) == 1.0
    assert sf.bessel_I(3, 0.0) == 0.0


def test_bessel_I_series_oracle():
    assert abs(sf.bessel_I(1, 1.0) / I1_AT_1 - 1.0) < 1e-12


def test_bessel_I_against_oracle_grid():
    for nu in (0, 1, 2, 7, 16, 64):
        for z in (1e-6, 0.3, 1.0, 4.0, 50.0, 700.0):
            ref = i_series_oracle(nu, z, nterms=1200)
            if ref < mp.mpf(10) ** -290:  # below double range, both underflow
                continue
            got = sf.bessel_I(nu, z)
            assert abs(got / float(ref) - 1.0) < 1e-12, (nu, z)


def test_bessel_K_continued_fraction_oracle():
    assert abs(sf.bessel_K(1, 10.0) / K1_AT_10 - 1.0) < 1e-12
    assert abs(sf.bessel_K(0, 10.0) / K0_AT_10 - 1.0) < 1e-12


def test_bessel_K_small_z_log_limit():
    # K_0(z) + ln(z/2) + gamma -> 0 as z -> 0
    for z in (1e-3, 1e-5, 1e-8):
        val = sf.bessel_K(0, z) + math.log(z / 2.0) + sf.EULER_GAMMA
        assert abs(val) < 1e-5 * max(1.0, abs(math.log(z)))
    assert abs(sf.bessel_K(0, 1e-8) + math.log(0.5e-8) + sf.EULER_GAMMA) < 1e-14


def test_wronskian_identity_forced_pair():
    # K_0(1), K_1(1) must satisfy the Wronskian with the I values to 1e-13
    assert sf.wronskian_residual(0, 1.0) < 1e-13


def test_wronskian_sweep():
    zs = np.geomspace(1e-4, 600.0, 200)
    worst = 0.0
    for z in zs:
        for j in range(17):
            worst = max(worst, sf.wronskian_residual(j, float(z)))
    assert worst <= 1e-12


def test_recurrence_consistency():
    for z in (1e-3, 0.7, 5.0, 80.0, 600.0):
        ks = sf.bessel_K_seq_scaled(18, z)
        for nu in range(1, 17):
            rel = abs(ks[nu + 1] / (ks[nu - 1] + 2.0 * nu / z * ks[nu]) - 1.0)
            assert rel < 1e-10


@pytest.mark.parametrize("z", [1e-3, 0.05, 0.7, 2.0, 2.5, 10.0, 50.0, 200.0,
                               600.0])
def test_sequences_against_mpmath(z):
    # the I_l and e^z K_l sequences every m_S / m_D table row is built from
    i_seq = sf.bessel_I_seq(16, z)
    k_seq = sf.bessel_K_seq_scaled(16, z)
    for nu in range(17):
        i_ref = mp.besseli(nu, z)
        k_ref = mp.besselk(nu, z) * mp.exp(z)
        assert abs(i_seq[nu] / i_ref - 1) < 1e-13, (nu, z)
        assert abs(k_seq[nu] / k_ref - 1) < 1e-13, (nu, z)


def test_ratio_K1K0():
    assert abs(sf.bessel_ratio_K1K0(1.0) / K1_OVER_K0_AT_1 - 1.0) < 1e-12
    # consistency with the component functions
    direct = sf.bessel_K(1, 1.0) / sf.bessel_K(0, 1.0)
    assert abs(sf.bessel_ratio_K1K0(1.0) / direct - 1.0) < 1e-13


def test_ratio_K1K0_large_z_envelope():
    # |K1/K0 - 1 - 1/(2z)| <= c/z^2: empirical sup of z^2 * |.| finite
    zs = np.geomspace(1.0, 1e4, 300)
    sup = max(abs(sf.bessel_ratio_K1K0(float(z)) - 1.0 - 0.5 / z) * z * z for z in zs)
    assert np.isfinite(sup)
    assert sup < 2.0  # empirically ~0.375 at z=1


def test_ratio_K1K0_small_z_envelope():
    # c1/|log z| < z K1/K0 < c2/|log z| on (0, 1); the lower constant
    # degenerates as z -> 1- (|log z| -> 0), so assert positivity on the grid
    zs = np.geomspace(1e-8, 0.99, 200)
    vals = [float(z) * sf.bessel_ratio_K1K0(float(z)) * abs(math.log(float(z)))
            for z in zs]
    assert min(vals) > 0.0
    assert max(vals) < 20.0
    # away from the right endpoint the constants are O(1)
    core = [v for z, v in zip(zs, vals) if z < 0.5]
    assert min(core) > 0.3


def test_I_ratio_envelopes():
    zs = np.geomspace(1.0, 1e4, 200)
    sup_hi = max(abs(sf.bessel_ratio_I1I0(float(z)) - 1.0 + 0.5 / z) * z * z
                 for z in zs)
    assert sup_hi < 2.0
    zs_lo = np.geomspace(1e-4, 0.99, 200)
    sup_lo = max(abs(sf.bessel_ratio_I1I0(float(z)) - 0.5 * float(z)) / float(z) ** 3
                 for z in zs_lo)
    assert np.isfinite(sup_lo)
    assert sup_lo < 1.0


def test_monotonicity():
    zs = np.linspace(0.1, 30.0, 120)
    i_vals = [sf.bessel_I(0, float(z)) for z in zs]
    k_vals = [sf.bessel_K(0, float(z)) for z in zs]
    assert all(b > a for a, b in zip(i_vals, i_vals[1:]))
    assert all(b < a for a, b in zip(k_vals, k_vals[1:]))
    assert all(v > 0 for v in i_vals + k_vals)


def test_domain_errors():
    with pytest.raises(sf.BesselDomainError):
        sf.bessel_I(0, -1.0)
    with pytest.raises(sf.BesselDomainError):
        sf.bessel_K(0, 0.0)
    with pytest.raises(sf.BesselDomainError):
        sf.bessel_K(1, -3.0)
    with pytest.raises(sf.BesselDomainError):
        sf.bessel_ratio_K1K0(0.0)


def test_overflow_errors_carry_offender():
    with pytest.raises(sf.BesselOverflowError) as exc:
        sf.bessel_K(12, 1e4)
    assert exc.value.z == 1e4
    with pytest.raises(sf.BesselOverflowError):
        sf.bessel_I(65, 1.0)
    # K_64 at tiny z overflows in the recurrence and must be reported
    with pytest.raises(sf.BesselOverflowError):
        sf.bessel_K(64, 1e-8)


def test_scaled_variants_match_unscaled():
    for z in (0.5, 3.0, 40.0):
        assert abs(sf.bessel_I_scaled(2, z) * math.exp(z) / sf.bessel_I(2, z) - 1) < 1e-13
        assert abs(sf.bessel_K_scaled(2, z) * math.exp(-z) / sf.bessel_K(2, z) - 1) < 1e-13


def test_check_suite_runs_and_is_finite():
    rep = sf.check_suite(kmax_order=8, n_z=40)
    assert rep["wronskian_sup"] <= 1e-12
    assert rep["recurrence_sup"] < 1e-10
    for key, val in rep.items():
        assert np.isfinite(val), key
