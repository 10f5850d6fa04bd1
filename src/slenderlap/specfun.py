r"""Modified Bessel functions I_nu, K_nu for integer order and real argument.

Only what the straight-cylinder symbols need: integer orders nu >= 0, real
z > 0, plus exponentially scaled variants e^{-z} I_nu(z) and e^{z} K_nu(z)
so that ratios and products stay in range at large argument.

Algorithms
----------
I_nu(z):  ascending series sum_m (z/2)^{nu+2m} / (m! (nu+m)!).  All terms are
          positive, so there is no cancellation; terms are accumulated and
          summed with math.fsum.
K_0, K_1: ascending series with logarithmic term for z <= 2 (DLMF 10.31.2);
          for z > 2, trapezoidal quadrature of the integral representation
          K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt (DLMF 10.32.9),
          evaluated in the scaled form exp(-2 z sinh^2(t/2)).  The integrand
          is analytic and even in t, so the trapezoid rule converges
          geometrically; step and cutoff are chosen for ~1e-15 relative error.
K_nu:     upward recurrence K_{nu+1} = K_{nu-1} + (2 nu / z) K_nu, which is
          stable in the increasing direction.

Order is capped at 64 and argument at 700: beyond that the caller gets an
error, never a silently inaccurate value.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992

ORDER_CAP = 64
ARG_CAP = 700.0

_SERIES_CUTOFF = 2.0  # switch point between K series and K quadrature


class BesselDomainError(ValueError):
    """Argument outside the supported domain (z < 0, or z <= 0 for K)."""


class BesselOverflowError(OverflowError):
    """Result not representable, or (order, z) beyond the supported caps."""

    def __init__(self, order, z, detail="value overflows double precision"):
        self.order = order
        self.z = z
        super().__init__(f"K/I overflow at order={order}, z={z}: {detail}")


def _check_order_arg(order, z, fn):
    if order < 0 or int(order) != order:
        raise BesselDomainError(f"{fn}: order must be a nonnegative integer, got {order}")
    if order > ORDER_CAP:
        raise BesselOverflowError(order, z, f"order cap {ORDER_CAP} exceeded")
    if z > ARG_CAP:
        raise BesselOverflowError(order, z, f"argument cap {ARG_CAP} exceeded")


def _i_series(nu, z):
    """Ascending series for I_nu(z); exact to ~1e-15 relative for z <= 700."""
    if z == 0.0:
        return 1.0 if nu == 0 else 0.0
    half = 0.5 * z
    t = 1.0
    for j in range(1, nu + 1):
        t *= half / j
    if t == 0.0:  # (z/2)^nu underflows for large nu, tiny z
        return 0.0
    q = half * half
    terms = [t]
    m = 0
    while m < 5000:
        m += 1
        t *= q / (m * (m + nu))
        terms.append(t)
        if t < 1e-18 * terms[0] and m > half:
            break
    return math.fsum(terms)


def _k01_series(z):
    """(K_0, K_1) by ascending series, 0 < z <= 2."""
    half = 0.5 * z
    q = half * half
    lg = math.log(half)
    t = 1.0
    i0_terms = [t]
    k0_terms = []
    h = 0.0
    m = 0
    while True:
        m += 1
        t *= q / (m * m)
        h += 1.0 / m
        i0_terms.append(t)
        k0_terms.append(t * h)
        if t < 1e-20:
            break
    i0 = math.fsum(i0_terms)
    k0 = -(lg + EULER_GAMMA) * i0 + math.fsum(k0_terms)

    t = 1.0  # q^k / (k! (k+1)!)
    psi1 = -EULER_GAMMA
    psi2 = 1.0 - EULER_GAMMA
    s_terms = [t * (psi1 + psi2)]
    k = 0
    while True:
        k += 1
        t *= q / (k * (k + 1))
        psi1 += 1.0 / k
        psi2 += 1.0 / (k + 1)
        s_terms.append(t * (psi1 + psi2))
        if t < 1e-20:
            break
    k1 = 1.0 / z + lg * _i_series(1, z) - 0.25 * z * math.fsum(s_terms)
    return k0, k1


def _k01_scaled_quad(z):
    """(e^z K_0(z), e^z K_1(z)) by trapezoid on the cosh integral, z > 2."""
    h = min(1.0 / 32.0, 0.5 / math.sqrt(z))
    # truncate where z * 2 sinh^2(t/2) = 50, i.e. integrand ~ 2e-22
    t_max = 2.0 * math.asinh(math.sqrt(25.0 / z))
    n = int(t_max / h) + 2
    t = h * np.arange(n + 1)
    w = np.full(n + 1, h)
    w[0] = 0.5 * h
    expfac = np.exp(-2.0 * z * np.sinh(0.5 * t) ** 2)
    k0 = float(np.sum(w * expfac))
    k1 = float(np.sum(w * expfac * np.cosh(t)))
    return k0, k1


def _k01_scaled(z):
    """(e^z K_0, e^z K_1) for any z > 0."""
    if z <= _SERIES_CUTOFF:
        k0, k1 = _k01_series(z)
        ez = math.exp(z)
        return ez * k0, ez * k1
    return _k01_scaled_quad(z)


def bessel_I(order, z):
    """I_order(z) for integer order >= 0, z >= 0."""
    if z < 0.0:
        raise BesselDomainError(f"bessel_I: z must be >= 0, got {z}")
    _check_order_arg(order, z, "bessel_I")
    return _i_series(order, z)


def _i_scaled_quad(nu, z):
    """e^{-z} I_nu(z) by trapezoid on (1/pi) int_0^pi e^{z(cos t - 1)} cos(nu t) dt.

    Valid for any z > 0; used beyond the unscaled-representation cap.
    """
    n = int(max(512, 4.0 * math.pi * math.sqrt(z)))
    t = np.linspace(0.0, math.pi, n + 1)
    w = np.full(n + 1, math.pi / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    vals = np.exp(z * (np.cos(t) - 1.0)) * np.cos(nu * t)
    return float(np.sum(w * vals)) / math.pi


def bessel_I_scaled(order, z):
    """e^{-z} I_order(z); stays O(1/sqrt(z)) at large z.

    Unlike bessel_I, the scaled form has no argument cap: it exists so
    ratios and products stay representable at large z.
    """
    if z < 0.0:
        raise BesselDomainError(f"bessel_I_scaled: z must be >= 0, got {z}")
    if order < 0 or int(order) != order or order > ORDER_CAP:
        raise BesselDomainError(
            f"bessel_I_scaled: order must be an integer in [0, {ORDER_CAP}]")
    if z <= ARG_CAP:
        return _i_series(order, z) * math.exp(-z)
    return _i_scaled_quad(order, z)


def bessel_K_scaled(order, z):
    """e^{z} K_order(z) via series/quadrature plus upward recurrence.

    No argument cap (the scaled form is representable at any z); the order
    cap and recurrence overflow reporting still apply.
    """
    if z <= 0.0:
        raise BesselDomainError(f"bessel_K_scaled: z must be > 0, got {z}")
    if order < 0 or int(order) != order or order > ORDER_CAP:
        raise BesselDomainError(
            f"bessel_K_scaled: order must be an integer in [0, {ORDER_CAP}]")
    km, kc = _k01_scaled(z)
    if order == 0:
        return km
    for n in range(1, order):
        km, kc = kc, km + (2.0 * n / z) * kc
        if math.isinf(kc):
            raise BesselOverflowError(order, z)
    return kc


def bessel_K(order, z):
    """K_order(z) for integer order >= 0 and z > 0 (unscaled, capped)."""
    if z > 0.0:
        _check_order_arg(order, z, "bessel_K")
    val = bessel_K_scaled(order, z) * math.exp(-z)
    if math.isinf(val):
        raise BesselOverflowError(order, z)
    return val


def bessel_K_seq_scaled(order_max, z):
    """Array [e^z K_0(z), ..., e^z K_{order_max}(z)] by one recurrence pass."""
    if z <= 0.0:
        raise BesselDomainError(f"bessel_K_seq_scaled: z must be > 0, got {z}")
    _check_order_arg(order_max, z, "bessel_K_seq_scaled")
    out = np.empty(order_max + 1)
    km, kc = _k01_scaled(z)
    out[0] = km
    if order_max >= 1:
        out[1] = kc
    for n in range(1, order_max):
        km, kc = kc, km + (2.0 * n / z) * kc
        out[n + 1] = kc
    if not np.all(np.isfinite(out)):
        raise BesselOverflowError(order_max, z)
    return out


def bessel_I_seq(order_max, z):
    """Array [I_0(z), ..., I_{order_max}(z)] (per-order series; no recurrence)."""
    if z < 0.0:
        raise BesselDomainError(f"bessel_I_seq: z must be >= 0, got {z}")
    _check_order_arg(order_max, z, "bessel_I_seq")
    return np.array([_i_series(nu, z) for nu in range(order_max + 1)])


def bessel_ratio_K1K0(z):
    """K_1(z)/K_0(z), overflow-safe at large z via the scaled pair."""
    if z <= 0.0:
        raise BesselDomainError(f"bessel_ratio_K1K0: z must be > 0, got {z}")
    if z <= _SERIES_CUTOFF:
        k0, k1 = _k01_series(z)
    else:
        # scaled quadrature is valid well beyond ARG_CAP (the cap protects
        # only unscaled values); the ratio itself never overflows
        k0, k1 = _k01_scaled_quad(z)
    return k1 / k0


def bessel_ratio_I1I0(z):
    """I_1(z)/I_0(z); scaled internally so large z is safe."""
    if z < 0.0:
        raise BesselDomainError(f"bessel_ratio_I1I0: z must be >= 0, got {z}")
    if z == 0.0:
        return 0.0
    if z <= ARG_CAP:
        return _i_series(1, z) / _i_series(0, z)
    # large z: asymptotic-free evaluation via the same cosh-integral trick,
    # I_nu(z) = (1/pi) int_0^pi e^{z cos t} cos(nu t) dt
    t = np.linspace(0.0, math.pi, 2048)
    w = np.full(t.size, t[1] - t[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    e = np.exp(z * (np.cos(t) - 1.0))  # scaled by e^{-z}
    return float(np.sum(w * e * np.cos(t)) / np.sum(w * e))


def wronskian_residual(order, z):
    """|z (I_{j+1} K_j + I_j K_{j+1}) - 1| at j = order; identity check.

    Computed from scaled values so the I growth and K decay cancel exactly.
    """
    i_j = bessel_I(order, z) * math.exp(-z)
    i_j1 = bessel_I(order + 1, z) * math.exp(-z)
    ks = bessel_K_seq_scaled(order + 1, z)
    return abs(z * (i_j1 * ks[order] + i_j * ks[order + 1]) - 1.0)


def check_suite(kmax_order=16, n_z=200):
    """Run the invariant suite; returns a dict of empirical sups.

    Covers the Wronskian identity over a log z grid, the K recurrence
    consistency, and the large/small-argument ratio envelopes of the two
    kinds (finite empirical constants reported, never asserted here).
    """
    zs = np.geomspace(1e-4, 600.0, n_z)
    wron = 0.0
    for z in zs:
        z = float(z)
        try:
            ks = bessel_K_seq_scaled(kmax_order + 1, z)
        except BesselOverflowError:
            continue
        ez = math.exp(-z)
        iv = np.array([_i_series(j, z) * ez for j in range(kmax_order + 2)])
        for j in range(kmax_order + 1):
            wron = max(wron, abs(z * (iv[j + 1] * ks[j] + iv[j] * ks[j + 1])
                                 - 1.0))
    rec = 0.0
    for z in np.geomspace(1e-2, 600.0, 40):
        ks = bessel_K_seq_scaled(kmax_order + 1, float(z))
        for nu in range(1, kmax_order + 1):
            lhs = ks[nu + 1]
            rhs = ks[nu - 1] + (2.0 * nu / z) * ks[nu]
            rec = max(rec, abs(lhs / rhs - 1.0))

    zs_hi = np.geomspace(1.0, 1e4, 400)
    k_hi = max(abs(bessel_ratio_K1K0(float(z)) - 1.0 - 0.5 / z) * z * z for z in zs_hi)
    i_hi = max(abs(bessel_ratio_I1I0(float(z)) - 1.0 + 0.5 / z) * z * z for z in zs_hi)
    zs_lo = np.geomspace(1e-6, 0.999, 400)
    k_lo_vals = [float(z) * bessel_ratio_K1K0(float(z)) * abs(math.log(float(z)))
                 for z in zs_lo]
    i_lo = max(abs(bessel_ratio_I1I0(float(z)) - 0.5 * float(z)) / float(z) ** 3
               for z in zs_lo)
    return {
        "wronskian_sup": wron,
        "recurrence_sup": rec,
        "K_ratio_high_z2_sup": k_hi,
        "I_ratio_high_z2_sup": i_hi,
        "K_ratio_low_logz_min": min(k_lo_vals),
        "K_ratio_low_logz_max": max(k_lo_vals),
        "I_ratio_low_z3_sup": i_lo,
    }
