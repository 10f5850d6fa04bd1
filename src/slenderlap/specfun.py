r"""Modified Bessel functions I_nu, K_nu for integer order and real argument.

Only what the straight-cylinder symbols need: integer orders nu >= 0, real
z > 0, plus exponentially scaled variants e^{-z} I_nu(z) and e^{z} K_nu(z)
so that ratios and products stay in range at large argument.

Values come from scipy.special (`iv`, `ive`, `kve`, `i0e`, `i1e`, `k0e`,
`k1e`); this module adds the domain and range contract on top.  Unscaled K
is taken as e^{-z} kve rather than `kv`, which flushes K_nu(z) to zero
before the double range ends (K_0(700) ~ 4.7e-306).

Order is capped at 64 and argument at 700: beyond that the caller gets an
error, never a silently inaccurate value.  An infinite result raises
BesselOverflowError.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992

ORDER_CAP = 64
ARG_CAP = 700.0


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


def _check_scaled_order(order, fn):
    if order < 0 or int(order) != order or order > ORDER_CAP:
        raise BesselDomainError(
            f"{fn}: order must be an integer in [0, {ORDER_CAP}]")


def _finite(value, order, z):
    """value unchanged (a float for scalars); BesselOverflowError on inf."""
    if np.any(np.isinf(value)):
        raise BesselOverflowError(order, z)
    return float(value) if np.ndim(value) == 0 else value


def bessel_I(order, z):
    """I_order(z) for integer order >= 0, z >= 0."""
    if z < 0.0:
        raise BesselDomainError(f"bessel_I: z must be >= 0, got {z}")
    _check_order_arg(order, z, "bessel_I")
    return _finite(special.iv(order, z), order, z)


def bessel_I_scaled(order, z):
    """e^{-z} I_order(z); stays O(1/sqrt(z)) at large z.

    Unlike bessel_I, the scaled form has no argument cap: it exists so
    ratios and products stay representable at large z.
    """
    if z < 0.0:
        raise BesselDomainError(f"bessel_I_scaled: z must be >= 0, got {z}")
    _check_scaled_order(order, "bessel_I_scaled")
    return _finite(special.ive(order, z), order, z)


def bessel_K_scaled(order, z):
    """e^{z} K_order(z).

    No argument cap (the scaled form is representable at any z); the order
    cap and overflow reporting still apply.
    """
    if z <= 0.0:
        raise BesselDomainError(f"bessel_K_scaled: z must be > 0, got {z}")
    _check_scaled_order(order, "bessel_K_scaled")
    return _finite(special.kve(order, z), order, z)


def bessel_K(order, z):
    """K_order(z) for integer order >= 0 and z > 0 (unscaled, capped)."""
    if z > 0.0:
        _check_order_arg(order, z, "bessel_K")
    return _finite(bessel_K_scaled(order, z) * math.exp(-z), order, z)


def bessel_K_seq_scaled(order_max, z):
    """Array [e^z K_0(z), ..., e^z K_{order_max}(z)]."""
    if z <= 0.0:
        raise BesselDomainError(f"bessel_K_seq_scaled: z must be > 0, got {z}")
    _check_order_arg(order_max, z, "bessel_K_seq_scaled")
    return _finite(special.kve(np.arange(order_max + 1), z), order_max, z)


def bessel_I_seq(order_max, z):
    """Array [I_0(z), ..., I_{order_max}(z)]."""
    if z < 0.0:
        raise BesselDomainError(f"bessel_I_seq: z must be >= 0, got {z}")
    _check_order_arg(order_max, z, "bessel_I_seq")
    return _finite(special.iv(np.arange(order_max + 1), z), order_max, z)


def bessel_ratio_K1K0(z):
    """K_1(z)/K_0(z), overflow-safe at any z > 0 via the scaled pair."""
    if z <= 0.0:
        raise BesselDomainError(f"bessel_ratio_K1K0: z must be > 0, got {z}")
    return float(special.k1e(z) / special.k0e(z))


def bessel_ratio_I1I0(z):
    """I_1(z)/I_0(z); scaled internally so large z is safe."""
    if z < 0.0:
        raise BesselDomainError(f"bessel_ratio_I1I0: z must be >= 0, got {z}")
    return float(special.i1e(z) / special.i0e(z))


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
    wron = 0.0
    for z in np.geomspace(1e-4, 600.0, n_z):
        for j in range(kmax_order + 1):
            try:
                wron = max(wron, wronskian_residual(j, float(z)))
            except BesselOverflowError:
                continue
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
