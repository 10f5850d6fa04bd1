r"""Surface grids, trapezoid quadrature, and discrete Hoelder norms.

The surface grid is the uniform tensor grid s_i = i/n_s, theta_j = 2 pi j /
n_theta with trapezoid weight (1/n_s)(2 pi / n_theta) per node, exact for
trigonometric polynomials below the Nyquist mode.  Node differences are
reduced to the periodic representatives s-hat in [-1/2, 1/2], theta-hat in
[-pi, pi], ties broken toward the positive representative.

Discrete Hoelder seminorms are exact maxima over grid pairs with the surface
metric sqrt(s-hat^2 + eps^2 theta-hat^2), swept by index offset at any grid
size: one offset of each pair o, -o, in decreasing order of an upper bound
on its ratio, until the bound cannot beat the best ratio found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import SurfaceSpec, tube_surface

# unused by the library; perfbench/tracer.py reads it to count Hoelder pairs
HOLDER_PAIR_CAP = 8192


def periodic_rep_s(d):
    """Reduce s-differences to [-1/2, 1/2], ties toward +1/2."""
    out = np.mod(np.asarray(d, float) + 0.5, 1.0) - 0.5
    return np.where(out == -0.5, 0.5, out)


def periodic_rep_theta(d):
    """Reduce theta-differences to [-pi, pi], ties toward +pi."""
    out = np.mod(np.asarray(d, float) + math.pi, 2.0 * math.pi) - math.pi
    return np.where(out == -math.pi, math.pi, out)


def check_grid_sizes(n_s, n_theta):
    """Raise ValueError unless n_s >= 32 and n_theta >= 4 are powers of two."""
    for n, lo in ((n_s, 32), (n_theta, 4)):
        if n < lo or (n & (n - 1)) != 0:
            raise ValueError(f"grid sizes must be powers of two (>= {lo})")


def aspect_ratio(n_s, n_theta, epsilon):
    """h_s/(eps h_theta): a grid cell's length along the tube over its width."""
    return n_theta / (2.0 * math.pi * epsilon * n_s)


def offset_templates(n_s, n_theta):
    """(s-hat, theta-hat) periodic offsets indexed by node-index difference."""
    ds = periodic_rep_s(np.arange(n_s) / n_s)
    dt = periodic_rep_theta(2.0 * math.pi * np.arange(n_theta) / n_theta)
    return ds, dt


@dataclass
class SurfaceGrid:
    """Uniform (s, theta) grid on the tube surface with cached geometry."""

    spec: SurfaceSpec
    n_s: int
    n_theta: int
    s_nodes: np.ndarray = field(init=False)
    theta_nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        check_grid_sizes(self.n_s, self.n_theta)
        self.s_nodes = np.arange(self.n_s) / self.n_s
        self.theta_nodes = 2.0 * math.pi * np.arange(self.n_theta) / self.n_theta

        spec = self.spec
        self.e_t, e_n1, e_n2, k1, k2 = spec.frame_at(self.s_nodes)
        self.kappa3 = spec.frame.kappa3
        self.X = spec.centerline.position(self.s_nodes)
        # the frame at the n_s s-nodes, broadcast over the theta-nodes
        self.positions, self.normals, self.khat, self.jacobian = tube_surface(
            spec.epsilon, self.X[:, None], e_n1[:, None], e_n2[:, None],
            k1[:, None], k2[:, None], self.theta_nodes)

    @property
    def epsilon(self):
        return self.spec.epsilon

    @property
    def n_nodes(self):
        return self.n_s * self.n_theta

    @property
    def node_weight(self):
        return (1.0 / self.n_s) * (2.0 * math.pi / self.n_theta)

    def flat_positions(self):
        return self.positions.reshape(-1, 3)

    def flat_normals(self):
        return self.normals.reshape(-1, 3)

    def flat_jacobian(self):
        return self.jacobian.reshape(-1)


def make_grid(spec, n_s, n_theta):
    return SurfaceGrid(spec=spec, n_s=n_s, n_theta=n_theta)


# Hoelder machinery ----------------------------------------------------------

def holder_seminorm(f, alpha, epsilon):
    """Discrete C^{0,alpha} seminorm with the surface metric, exact.

    For s-circle functions the metric is the periodic |s - s'|; for surface
    functions it is d = sqrt(s-hat^2 + eps^2 theta-hat^2).  d depends only
    on the index offset o between the nodes of a pair, and s-circle data are
    the n_theta = 1 case.  o and -o pair the same nodes: one is visited, at
    the smaller d^alpha of the two.  Offsets go a batch at a time by the
    bound min(osc, |o_s| M_s + |o_t| M_t)(1 + 1e-12)/d^alpha on their ratio
    (M: largest neighbour difference, o the short way round), largest first,
    until it cannot beat the best ratio so far.  A batch reads its shifted
    copies f(x - o) as strided windows of one (2 n_s, 2 n_theta) tiling of
    the data, indexed by the batch's offsets, and builds no index array.
    """
    vals = np.asarray(f, float)
    vals = vals.reshape(vals.shape[0], -1)
    n_s, n_t = vals.shape
    v = vals.reshape(-1)
    ds, dt = offset_templates(n_s, n_t)
    dist = np.sqrt(ds[:, None] ** 2 + (epsilon * dt[None, :]) ** 2).reshape(-1)
    i_s, i_t = np.arange(n_s), np.arange(n_t)
    neg = ((-i_s[:, None]) % n_s * n_t + (-i_t) % n_t).reshape(-1)  # -o
    scale = np.minimum(dist ** alpha, dist[neg] ** alpha)
    osc = float(np.max(v) - np.min(v))
    # |f(x) - f(x - o)| <= |o_s| M_s + |o_t| M_t along a lattice path; the
    # 1e-12 covers the rounding of all three sides
    m_s, m_t = (np.max(np.abs(vals - np.roll(vals, 1, axis=k))) for k in (0, 1))
    path = (np.minimum(i_s, n_s - i_s)[:, None] * m_s
            + np.minimum(i_t, n_t - i_t) * m_t).reshape(-1)
    offs = np.flatnonzero((np.arange(v.size) <= neg) & (dist > 0))
    bound = np.minimum(osc, path[offs]) * (1.0 + 1e-12) / scale[offs]
    order = np.argsort(-bound, kind="stable")
    offs, bound, scale = offs[order], bound[order], scale[offs[order]]
    # f(x - o) is the window of the doubled data that starts at (-o) mod n
    windows = np.lib.stride_tricks.sliding_window_view(
        np.tile(vals, (2, 2)), (n_s, n_t))
    start_s, start_t = np.divmod(neg[offs], n_t)
    # about 2^16 pairs (512 KB temporaries) per gather, as in the pair sweep:
    # 2 MB ones can go back to the OS and fault in again on every batch
    batch = max(1, (1 << 16) // v.size)
    best = 0.0
    for lo in range(0, offs.size, batch):
        if bound[lo] <= best:
            break
        shifted = windows[start_s[lo:lo + batch], start_t[lo:lo + batch]]
        dv = np.max(np.abs(v - shifted.reshape(shifted.shape[0], -1)), axis=1)
        best = max(best, float(np.max(dv / scale[lo:lo + batch])))
    return best


def holder_norm(f, alpha, epsilon):
    """sup |f| plus holder_seminorm; a ValueError if f holds a NaN or inf."""
    vals = np.asarray(f, float)
    if not np.isfinite(vals).all():
        raise ValueError("f holds non-finite values (NaN or inf)")
    return float(np.max(np.abs(vals))) + holder_seminorm(vals, alpha, epsilon)


def spectral_s_derivative(values):
    """d/ds by the FFT, for samples on the s-circle (1D) or surface (axis 0)."""
    vals = np.asarray(values, float)
    n = vals.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0  # zero the Nyquist derivative for a real, odd derivative
    if vals.ndim == 1:
        return np.real(np.fft.ifft(2j * np.pi * k * np.fft.fft(vals)))
    return np.real(np.fft.ifft(2j * np.pi * k[:, None] * np.fft.fft(vals, axis=0),
                               axis=0))
