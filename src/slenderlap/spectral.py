r"""Discrete Fourier transforms and exact straight-cylinder symbols.

Transform conventions (chosen so the symbols apply verbatim):

    fhat(k)    = (1/n_s)   sum_j f(s_j)        exp(-2 pi i k s_j)
    fhat(k, l) = (1/(n_s n_theta)) sum f(s_j, theta_m) exp(-2 pi i k s_j - i l theta_m)

with modes k in {-n_s/2, ..., n_s/2 - 1} and l in {-n_theta/2, ..., n_theta/2 - 1}.

Symbols on the straight periodic cylinder of radius eps (w = 2 pi eps |k|):

    m_S(k, l)     = eps I_|l|(w) K_|l|(w)                       single layer
    m_S^{-1}(k)   = 1 / (eps I_0(w) K_0(w))                     its inverse at l = 0
    m_D(k, 0)     = 1/2 - w I_0(w) K_1(w)                       double layer
    m_D(k, l!=0)  = 1/2 - (w/2) I_|l|(w) (K_|l|-1 + K_|l|+1)(w)
    m_eps^{-1}(k) = 4 pi^2 eps |k| K_1(w)/K_0(w)                slender DtN
    m_eps(k)      = 1 / m_eps^{-1}(k)                           slender NtD

All kernels are even in both offsets, so every symbol is real and even and
acts diagonally on complex exponentials; real input gives real output.

The l != 0 double-layer coefficient here is half the printed source value:
the printed ell != 0 branch is inconsistent with its own ell = 0 branch
under K_{-1} = K_1 and with direct quadrature of the kernel, both of which
this form satisfies (see tests).  The k = 0 values are the direct kernel
integrals: m_D(0, 0) = -1/2 (exterior jump relation) and m_D(0, l != 0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf


class UndefinedModeError(ValueError):
    """A symbol was requested at a mode where it has no finite value."""


@dataclass
class GridFunction:
    """Samples on the (s, theta) tensor grid or on the s-circle alone.

    values has shape (n_s, n_theta) for surface functions, (n_s,) for
    s-circle functions.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim not in (1, 2):
            raise ValueError("GridFunction expects 1D or 2D samples")
        for n in self.values.shape:
            if n & (n - 1) != 0:
                raise ValueError("grid sizes must be powers of two")

    @property
    def on_surface(self):
        return self.values.ndim == 2

    @property
    def n_s(self):
        return self.values.shape[0]

    @property
    def n_theta(self):
        return self.values.shape[1] if self.on_surface else None

    def hat(self):
        if self.on_surface:
            return np.fft.fft2(self.values) / self.values.size
        return np.fft.fft(self.values) / self.values.size

    @classmethod
    def from_hat(cls, fhat):
        if fhat.ndim == 2:
            return cls(np.fft.ifft2(fhat * fhat.size))
        return cls(np.fft.ifft(fhat * fhat.size))

    def s_mean(self):
        """Mean over s (a theta-profile for surface functions)."""
        return np.mean(self.values, axis=0)

    def project_zero_s_mean(self):
        return GridFunction(self.values - np.mean(self.values, axis=0,
                                                  keepdims=self.on_surface))


def s_modes(n_s):
    return np.fft.fftfreq(n_s, d=1.0 / n_s).astype(int)


def theta_modes(n_theta):
    return np.fft.fftfreq(n_theta, d=1.0 / n_theta).astype(int)


# symbol evaluation ---------------------------------------------------------

def _ik_products(epsilon, k, lmax):
    """I_l K_l and I_l (K_{l-1} + K_{l+1}) at w = 2 pi eps |k| for l <= lmax."""
    w = 2.0 * math.pi * epsilon * abs(k)
    iv = sf.bessel_I_seq(lmax + 1, w) * math.exp(-w)
    kv = sf.bessel_K_seq_scaled(lmax + 1, w)
    prod_ikk = iv[: lmax + 1] * kv[: lmax + 1]
    sum_kk = np.empty(lmax + 1)
    sum_kk[0] = 2.0 * kv[1] * iv[0]  # K_{-1} = K_1
    for ell in range(1, lmax + 1):
        sum_kk[ell] = iv[ell] * (kv[ell - 1] + kv[ell + 1])
    return w, prod_ikk, sum_kk


def symbol_m_S(epsilon, k, ell):
    ell = abs(int(ell))
    k = abs(int(k))
    if k == 0:
        if ell == 0:
            raise UndefinedModeError("m_S(0, 0) diverges; apply after P0")
        return epsilon / (2.0 * ell)
    w = 2.0 * math.pi * epsilon * k
    return epsilon * sf.bessel_I(ell, w) * math.exp(-w) * sf.bessel_K_scaled(ell, w)


def symbol_m_S_inv(epsilon, k):
    k = abs(int(k))
    if k == 0:
        raise UndefinedModeError("m_S^{-1}(0) is undefined; apply after P0")
    w = 2.0 * math.pi * epsilon * k
    return 1.0 / (epsilon * sf.bessel_I(0, w) * math.exp(-w) * sf.bessel_K_scaled(0, w))


def symbol_m_D(epsilon, k, ell):
    ell = abs(int(ell))
    k = abs(int(k))
    if k == 0:
        return -0.5 if ell == 0 else 0.0
    w = 2.0 * math.pi * epsilon * k
    iv = sf.bessel_I_seq(ell + 1, w) * math.exp(-w)
    kv = sf.bessel_K_seq_scaled(ell + 1, w)
    if ell == 0:
        return 0.5 - w * iv[0] * kv[1]
    return 0.5 - 0.5 * w * iv[ell] * (kv[ell - 1] + kv[ell + 1])


def symbol_m_eps_inv(epsilon, k):
    k = abs(int(k))
    if k == 0:
        return 0.0
    w = 2.0 * math.pi * epsilon * k
    return 4.0 * math.pi ** 2 * epsilon * k * sf.bessel_ratio_K1K0(w)


def symbol_m_eps(epsilon, k):
    k = abs(int(k))
    if k == 0:
        return 0.0  # annihilates the mean; defined on zero-mean data
    return 1.0 / symbol_m_eps_inv(epsilon, k)


@dataclass
class FourierSymbol:
    """Named (k, l) -> real symbol with table construction."""

    name: str
    epsilon: float

    _FUNCS = {
        "m_S": lambda eps, k, ell: symbol_m_S(eps, k, ell),
        "m_D": lambda eps, k, ell: symbol_m_D(eps, k, ell),
        "m_S_inv": lambda eps, k, ell: symbol_m_S_inv(eps, k),
        "m_eps_inv": lambda eps, k, ell: symbol_m_eps_inv(eps, k),
        "m_eps": lambda eps, k, ell: symbol_m_eps(eps, k),
    }

    def __post_init__(self):
        if self.name not in self._FUNCS:
            raise ValueError(f"unknown symbol '{self.name}'")

    def evaluate(self, k, ell=0):
        return self._FUNCS[self.name](self.epsilon, k, ell)

    def table(self, n_s, n_theta=None):
        """Symbol values on the discrete mode grid; undefined modes get 0.

        Each |mode| is evaluated once.  A zero at an undefined mode is only
        safe under a prior P0 projection; apply_straight_operator enforces
        that.
        """
        ks = s_modes(n_s)
        ells = [0] if n_theta is None else theta_modes(n_theta)
        out = np.empty((n_s, len(ells)))
        cache = {}
        for i, k in enumerate(ks):
            for j, ell in enumerate(ells):
                key = (abs(k), abs(ell))
                if key not in cache:
                    try:
                        cache[key] = self.evaluate(k, ell)
                    except UndefinedModeError:
                        cache[key] = 0.0
                out[i, j] = cache[key]
        return out.reshape(n_s) if n_theta is None else out


def apply_straight_operator(symbol, f, project_zero_s_mean=False):
    """Apply a diagonal symbol to a GridFunction through the FFT.

    If the symbol is undefined at a mode carrying data, the call fails
    unless project_zero_s_mean is set, in which case the s-mean is removed
    first (the P0 projection).
    """
    needs_p0 = symbol.name in ("m_S", "m_S_inv", "m_eps", "m_eps_inv")
    g = f
    if project_zero_s_mean:
        g = f.project_zero_s_mean()
    elif needs_p0:
        mean = np.mean(g.values, axis=0)
        scale = np.max(np.abs(g.values)) or 1.0
        if np.max(np.abs(np.atleast_1d(mean))) > 1e-12 * scale:
            # m_S and m_eps families have no finite value on s-mean data
            if symbol.name in ("m_S_inv", "m_eps", "m_eps_inv") or (
                    symbol.name == "m_S" and g.on_surface is False):
                raise UndefinedModeError(
                    f"{symbol.name} applied to data with nonzero s-mean; "
                    "set project_zero_s_mean or project beforehand")
            if symbol.name == "m_S" and g.on_surface:
                theta_mean = np.mean(mean)
                if abs(theta_mean) > 1e-12 * scale:
                    raise UndefinedModeError(
                        "m_S applied to data with nonzero (s, theta)-mean")
    fhat = g.hat()
    if g.on_surface:
        tab = symbol.table(g.n_s, g.n_theta)
    else:
        tab = symbol.table(g.n_s)
    out_hat = tab * fhat
    out = GridFunction.from_hat(out_hat)
    if np.isrealobj(f.values):
        out = GridFunction(np.real(out.values))
    return out


def offset_windows(t):
    """Window table of an offset template: one row of its circulant per window.

    The template t(ds) or t(ds, dt) is indexed by the periodic node-index
    offset between target and source, on row-major flattened samples.  The
    table holds t((-q) mod n_s, (i_t - j_t) mod n_t) at [i_t, q n_t + j_t],
    q < 2 n_s, so the circulant row of target (i_s, i_t) is the contiguous
    window [i_t, (n_s - i_s) n_t]: a row is a copy, not an index gather.
    """
    t2 = t[:, None] if t.ndim == 1 else t
    n_s, n_t = t2.shape
    q = (-np.arange(2 * n_s)) % n_s
    j = np.arange(n_t)
    stack = t2[q[None, :, None], (j[:, None, None] - j) % n_t]
    return np.lib.stride_tricks.sliding_window_view(
        stack.reshape(n_t, -1), n_s * n_t, axis=1)


def circulant_from_template(t, lo=0, hi=None):
    """Rows [lo, hi) of the dense matrix of a discrete convolution.

    The template is as in offset_windows.  lo and hi default to all rows and
    must hold whole s-rows (multiples of n_theta), so a row chunk is built
    without the full matrix.
    """
    n_s = t.shape[0]
    n_t = 1 if t.ndim == 1 else t.shape[1]
    hi = n_s * n_t if hi is None else hi
    if lo % n_t or hi % n_t:
        raise ValueError("row range must hold whole s-rows")
    i_s, i_t = np.divmod(np.arange(lo, hi), n_t)
    return offset_windows(t)[i_t, (n_s - i_s) * n_t]


def symbol_template(table):
    """Convolution template of a diagonal symbol: its inverse DFT (real)."""
    return np.real(np.fft.ifftn(table))


def symbol_dense_matrix(table):
    """Dense matrix of the diagonal-symbol operator on the tensor grid.

    The operator is a discrete convolution; its kernel template is the
    inverse transform of the symbol table.  Returns an (N, N) matrix acting
    on row-major flattened (n_s, n_theta) samples, or (n_s, n_s) for 1D.
    """
    return circulant_from_template(symbol_template(table))


# symbol derivative envelopes checked by finite differences ----------------

def _symbol_on_xi(name, epsilon, xi, ell=0):
    """Continuous-xi extension: same formulas with |xi| for |k|."""
    w = 2.0 * math.pi * epsilon * np.abs(xi)
    out = np.empty_like(w)
    for i, wi in enumerate(np.atleast_1d(w)):
        if name == "m_S_inv":
            out.flat[i] = 1.0 / (epsilon * sf.bessel_I_scaled(0, wi)
                                 * sf.bessel_K_scaled(0, wi))
        elif name == "m_eps_inv":
            out.flat[i] = 2.0 * math.pi * wi * sf.bessel_ratio_K1K0(wi)
        elif name == "m_eps":
            out.flat[i] = 1.0 / (2.0 * math.pi * wi * sf.bessel_ratio_K1K0(wi))
        else:
            raise ValueError(name)
    return out


_ENVELOPES = {
    # name -> (regime, derivative order) -> envelope(xi, eps)
    "m_S_inv": {
        ("high", 0): lambda xi, eps: np.abs(xi),
        ("high", 1): lambda xi, eps: np.ones_like(xi),
        ("high", 2): lambda xi, eps: 1.0 / np.abs(xi),
        ("low", 0): lambda xi, eps: 1.0 / eps * np.ones_like(xi),
        ("low", 1): lambda xi, eps: 1.0 / (eps * np.abs(xi)),
        ("low", 2): lambda xi, eps: 1.0 / (eps * xi ** 2),
    },
    "m_eps_inv": {
        ("high", 0): lambda xi, eps: eps * np.abs(xi),
        ("high", 1): lambda xi, eps: eps * np.ones_like(xi),
        ("high", 2): lambda xi, eps: eps / np.abs(xi),
        ("low", 0): lambda xi, eps: np.ones_like(xi) / abs(math.log(eps)),
        ("low", 1): lambda xi, eps: 1.0 / (np.abs(xi) * math.log(eps) ** 2),
        ("low", 2): lambda xi, eps: 1.0 / (xi ** 2 * math.log(eps) ** 2),
    },
    "m_eps": {
        ("high", 0): lambda xi, eps: 1.0 / (eps * np.abs(xi)),
        ("high", 1): lambda xi, eps: 1.0 / (eps * xi ** 2),
        ("high", 2): lambda xi, eps: 1.0 / (eps * np.abs(xi) ** 3),
        ("low", 0): lambda xi, eps: abs(math.log(eps)) * np.ones_like(xi),
        ("low", 1): lambda xi, eps: 1.0 / np.abs(xi),
        ("low", 2): lambda xi, eps: 1.0 / xi ** 2,
    },
}


def finite_diff_symbol_bounds(name, epsilon, n_xi=60):
    """Empirical sup of |d^l symbol / envelope| in both regimes.

    The regimes are separated at xi_c = 1/(2 pi eps); grids stay a factor 2
    inside each regime to avoid the crossover.  Values are finite by the
    multiplier bounds; they are reported, not asserted, here.
    """
    xi_c = 1.0 / (2.0 * math.pi * epsilon)
    grids = {
        "high": np.geomspace(2.0 * xi_c, 1e3 * xi_c, n_xi),
        "low": np.geomspace(1.0, 0.5 * xi_c, n_xi),
    }
    report = {}
    for regime, xi in grids.items():
        h = 1e-3 * xi
        f0 = _symbol_on_xi(name, epsilon, xi)
        fp = _symbol_on_xi(name, epsilon, xi + h)
        fm = _symbol_on_xi(name, epsilon, xi - h)
        derivs = {0: f0, 1: (fp - fm) / (2 * h), 2: (fp - 2 * f0 + fm) / h ** 2}
        for order, vals in derivs.items():
            env = _ENVELOPES[name][(regime, order)](xi, epsilon)
            report[f"{regime}_d{order}_sup"] = float(np.max(np.abs(vals) / env))
    return report
