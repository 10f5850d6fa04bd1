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
Block circulants of offset templates are read from offset_windows' table by
circulant_rows alone, one theta-ring at a time: a row chunk or lower strip
of whole rings (PairGeometry.gather) or the whole matrix.

Each formula lives in _symbol_row (one |k|, all l <= lmax); FourierSymbol
builds its tables from one row per |k| and memoises them, so every module
that applies a symbol shares one read-only table per grid, and apply_symbol
applies them.

The l != 0 double-layer coefficient here is half the printed source value:
the printed ell != 0 branch is inconsistent with its own ell = 0 branch
under K_{-1} = K_1 and with direct quadrature of the kernel, both of which
this form satisfies (see tests).  The k = 0 values are the direct kernel
integrals: m_D(0, 0) = -1/2 (exterior jump relation) and m_D(0, l != 0) = 0.
"""

from __future__ import annotations

import functools
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
    s-circle functions.  Only the solver's results are GridFunctions
    (SlenderSolveResult.v/w/f, neumann_series_ntd's v); the library takes
    and returns plain arrays, and numpy reads a GridFunction as its values.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim not in (1, 2):
            raise ValueError("GridFunction expects 1D or 2D samples")
        for n in self.values.shape:
            if n & (n - 1) != 0:
                raise ValueError("grid sizes must be powers of two")

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)


def s_modes(n_s):
    return np.fft.fftfreq(n_s, d=1.0 / n_s).astype(int)


def theta_modes(n_theta):
    return np.fft.fftfreq(n_theta, d=1.0 / n_theta).astype(int)


# symbol evaluation ---------------------------------------------------------

SYMBOLS = ("m_S", "m_D", "m_S_inv", "m_eps_inv", "m_eps")


def _symbol_row(name, epsilon, xi, lmax=0):
    """Symbol `name` at frequency |xi| for l = 0, ..., lmax; NaN where undefined.

    m_S and m_D take one I/K sequence pair per |xi|.  The l = 0 symbols
    (m_S_inv, m_eps_inv, m_eps) repeat one value for every l and use scaled
    Bessel values with no argument cap, so any real xi works.  xi = 0 gets
    the direct kernel integrals; m_S(0, 0) and m_S^{-1}(0) are undefined.
    """
    xi = abs(xi)
    w = 2.0 * math.pi * epsilon * xi
    if name == "m_S":
        if xi == 0:
            ells = np.arange(1, lmax + 1)
            return np.concatenate(([np.nan], epsilon / (2.0 * ells)))
        iv = sf.bessel_I_seq(lmax, w)
        return epsilon * iv * math.exp(-w) * sf.bessel_K_seq_scaled(lmax, w)
    if name == "m_D":
        if xi == 0:
            return np.concatenate(([-0.5], np.zeros(lmax)))
        iv = sf.bessel_I_seq(lmax, w) * math.exp(-w)
        kv = sf.bessel_K_seq_scaled(lmax + 1, w)
        k_below = np.concatenate((kv[1:2], kv[:lmax]))  # K_{l-1}, K_{-1} = K_1
        return 0.5 - 0.5 * w * iv * (k_below + kv[1:])
    if xi == 0:
        value = np.nan if name == "m_S_inv" else 0.0  # m_eps^{+-1} kill the mean
    elif name == "m_S_inv":
        value = 1.0 / (epsilon * sf.bessel_I_scaled(0, w) * sf.bessel_K_scaled(0, w))
    else:
        value = 4.0 * math.pi ** 2 * epsilon * xi * sf.bessel_ratio_K1K0(w)
        if name == "m_eps":
            value = 1.0 / value
    return np.full(lmax + 1, value)


# symbol tables built at most once per (name, eps, n_s, n_theta) while they
# stay among the TABLE_MEMO most recently used; one 256 x 16 table is 32 KB
TABLE_MEMO = 32


@functools.lru_cache(maxsize=TABLE_MEMO)
def _table(name, epsilon, n_s, n_theta):
    ells = np.abs(theta_modes(n_theta)) if n_theta else np.zeros(1, int)
    rows = np.array([_symbol_row(name, epsilon, k, int(ells.max()))
                     for k in range(n_s // 2 + 1)])
    out = rows[np.abs(s_modes(n_s))][:, ells]
    out[np.isnan(out)] = 0.0
    out = out.reshape(n_s) if n_theta is None else out
    out.flags.writeable = False  # shared by every caller of the memo
    return out


@dataclass
class FourierSymbol:
    """Named (k, l) -> real symbol with table construction."""

    name: str
    epsilon: float

    def __post_init__(self):
        if self.name not in SYMBOLS:
            raise ValueError(f"unknown symbol '{self.name}'")

    def evaluate(self, k, ell=0):
        ell = abs(int(ell))
        value = float(_symbol_row(self.name, self.epsilon, k, ell)[ell])
        if math.isnan(value):
            raise UndefinedModeError(
                f"{self.name} is undefined at (k, l) = ({k}, {ell}); apply after P0")
        return value

    def table(self, n_s, n_theta=None):
        """Symbol values on the discrete mode grid; undefined modes get 0.

        One _symbol_row per |k|, memoised (TABLE_MEMO) and read-only.  A
        zero at an undefined mode is only safe under a prior P0 projection
        of the data it is applied to.
        """
        return _table(self.name, self.epsilon, n_s, n_theta)


def apply_symbol(table, values):
    """ifftn(table * fftn(values)): a diagonal symbol applied on the mode grid.

    table has the shape of values (a FourierSymbol.table); real input gives
    a real result.
    """
    out = np.fft.ifftn(table * np.fft.fftn(values))
    return np.real(out) if np.isrealobj(values) else out


def offset_windows(t):
    """(n_t, 2N) table of an offset template: a ring's circulant rows are a
    window of it.

    The template t(ds) or t(ds, dt) is indexed by the periodic node-index
    offset between target and source, on row-major flattened samples.  The
    table holds t((-q) mod n_s, (i_t - j_t) mod n_t) at [i_t, q n_t + j_t],
    q < 2 n_s, so ring i_s's rows are its columns from (n_s - i_s) n_t on.
    """
    t2 = t[:, None] if t.ndim == 1 else t
    n_s, n_t = t2.shape
    q = (-np.arange(2 * n_s)) % n_s
    j = np.arange(n_t)
    return t2[q[None, :, None], (j[:, None, None] - j) % n_t].reshape(n_t, -1)


def circulant_rows(table, lo, hi, out):
    """Rows [lo, hi), whole rings, of the circulant whose offset_windows
    table is table, over its first out.shape[1] columns (all, or a lower
    strip's [0, hi)), into out, one ring at a time."""
    n_t, n = table.shape[0], table.shape[1] // 2
    for i_s in range(lo // n_t, hi // n_t):
        c = n - i_s * n_t
        out[i_s * n_t - lo:(i_s + 1) * n_t - lo] = table[:, c:c + out.shape[1]]
    return out


def circulant_from_template(t):
    """Dense matrix of a discrete convolution, t as in offset_windows."""
    n = t.size
    return circulant_rows(offset_windows(t), 0, n, np.empty((n, n), t.dtype))


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
    multiplier bounds; they are reported, not asserted, here.  An eps so
    small that an envelope overflows double precision is a ValueError.
    """
    xi_c = 1.0 / (2.0 * math.pi * epsilon)
    grids = {
        "high": np.geomspace(2.0 * xi_c, 1e3 * xi_c, n_xi),
        "low": np.geomspace(1.0, 0.5 * xi_c, n_xi),
    }
    sym = FourierSymbol(name, epsilon)

    def on_xi(xs):
        return np.array([sym.evaluate(x) for x in xs])

    report = {}
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for regime, xi in grids.items():
            h = 1e-3 * xi
            f0, fp, fm = on_xi(xi), on_xi(xi + h), on_xi(xi - h)
            derivs = {0: f0, 1: (fp - fm) / (2 * h),
                      2: (fp - 2 * f0 + fm) / h ** 2}
            for order, vals in derivs.items():
                env = _ENVELOPES[name][(regime, order)](xi, epsilon)
                report[f"{regime}_d{order}_sup"] = float(np.max(np.abs(vals) / env))
    bad = [k for k, v in report.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"{name} bounds {', '.join(bad)} are not finite at "
                         f"eps {epsilon:g}: too small for double precision")
    return report
