r"""Surface grids, trapezoid quadrature, and discrete Hoelder norms.

The surface grid is the uniform tensor grid s_i = i/n_s, theta_j = 2 pi j /
n_theta with trapezoid weight (1/n_s)(2 pi / n_theta) per node, exact for
trigonometric polynomials below the Nyquist mode.  Node differences are
reduced to the periodic representatives s-hat in [-1/2, 1/2], theta-hat in
[-pi, pi], ties broken toward the positive representative.

Discrete Hoelder seminorms are exact maxima over grid pairs with the surface
metric sqrt(s-hat^2 + eps^2 theta-hat^2), swept by index offset at any grid
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import SurfaceSpec
from .spectral import GridFunction

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
        e_t, e_n1, e_n2, k1, k2 = spec.frame_at(self.s_nodes)
        self.e_t, self.e_n1, self.e_n2 = e_t, e_n1, e_n2
        self.kappa1, self.kappa2 = k1, k2
        self.kappa3 = spec.frame.kappa3
        self.X = spec.centerline.position(self.s_nodes)

        ct = np.cos(self.theta_nodes)[None, :, None]
        st = np.sin(self.theta_nodes)[None, :, None]
        self.e_r = ct * e_n1[:, None, :] + st * e_n2[:, None, :]
        self.positions = self.X[:, None, :] + spec.epsilon * self.e_r
        self.normals = self.e_r
        self.khat = (k1[:, None] * np.cos(self.theta_nodes)[None, :]
                     + k2[:, None] * np.sin(self.theta_nodes)[None, :])
        self.jacobian = spec.epsilon * (1.0 - spec.epsilon * self.khat)

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

    def offset_templates(self):
        """(s-hat, theta-hat) periodic offsets indexed by node-index difference."""
        ds = periodic_rep_s(np.arange(self.n_s) / self.n_s)
        dt = periodic_rep_theta(2.0 * math.pi * np.arange(self.n_theta) / self.n_theta)
        return ds, dt


def make_grid(spec, n_s, n_theta):
    return SurfaceGrid(spec=spec, n_s=n_s, n_theta=n_theta)


def punctured_trapezoid(kernel_fn, density, target_node, grid=None,
                        include_jacobian=False):
    """Uniform-weight sum over all source nodes except the target itself.

    kernel_fn(i_s, i_t, a_s, a_t) -> kernel values for target (i_s, i_t) and
    source index arrays (a_s, a_t).  density is a GridFunction on the same
    grid.  The surface measure factor (jacobian) is applied when requested;
    otherwise the sum carries only the bare trapezoid weight.
    """
    vals = density.values
    n_s, n_t = vals.shape
    i_s, i_t = target_node
    a_s, a_t = np.meshgrid(np.arange(n_s), np.arange(n_t), indexing="ij")
    ker = np.asarray(kernel_fn(i_s, i_t, a_s, a_t), float)
    ker[i_s, i_t] = 0.0
    w = (1.0 / n_s) * (2.0 * math.pi / n_t)
    if include_jacobian:
        if grid is None:
            raise ValueError("include_jacobian requires the grid")
        return float(np.sum(ker * vals * grid.jacobian) * w)
    return float(np.sum(ker * vals) * w)


# Hoelder machinery ----------------------------------------------------------

def holder_seminorm(f, alpha, epsilon):
    """Discrete C^{0,alpha} seminorm with the surface metric, exact.

    For s-circle functions the metric is the periodic |s - s'|; for surface
    functions it is d = sqrt(s-hat^2 + eps^2 theta-hat^2).  d depends only
    on the index offset o between the nodes of a pair, and s-circle data are
    the n_theta = 1 case.  Offsets are visited in order of increasing d, a
    batch at a time; once osc(f)/d^alpha cannot beat the best ratio so far,
    no later offset can either.
    """
    vals = f.values if isinstance(f, GridFunction) else np.asarray(f)
    vals = vals.reshape(vals.shape[0], -1)
    n_s, n_t = vals.shape
    v = vals.reshape(-1)
    ds = periodic_rep_s(np.arange(n_s) / n_s)
    dt = periodic_rep_theta(2.0 * math.pi * np.arange(n_t) / n_t)
    dist = np.sqrt(ds[:, None] ** 2 + (epsilon * dt[None, :]) ** 2).reshape(-1)
    offs = np.argsort(dist, kind="stable")
    offs = offs[dist[offs] > 0]
    scale = dist[offs] ** alpha
    osc = float(np.max(v) - np.min(v))
    i_s, i_t = np.arange(n_s), np.arange(n_t)
    batch = max(1, (1 << 18) // v.size)  # about 2^18 pairs per gather
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


def holder_norm(f, alpha, epsilon):
    vals = f.values if isinstance(f, GridFunction) else np.asarray(f)
    return float(np.max(np.abs(vals))) + holder_seminorm(f, alpha, epsilon)


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


def c1alpha_norm(f, alpha):
    """C^{1,alpha} norm on the s-circle: sup f + sup f' + seminorm(f', alpha)."""
    vals = f.values if isinstance(f, GridFunction) else np.asarray(f)
    if vals.ndim != 1:
        raise ValueError("c1alpha_norm expects an s-circle function")
    fp = spectral_s_derivative(vals)
    return (float(np.max(np.abs(vals))) + float(np.max(np.abs(fp)))
            + holder_seminorm(GridFunction(fp), alpha, 0.0))


def trapezoid_mode_integral(n_s, n_theta, k, ell):
    """Trapezoid integral of e^{2 pi i k s} e^{i l theta} over the torus."""
    s = np.arange(n_s) / n_s
    t = 2.0 * math.pi * np.arange(n_theta) / n_theta
    vals = np.exp(2j * np.pi * k * s)[:, None] * np.exp(1j * ell * t)[None, :]
    return complex(np.sum(vals) * (1.0 / n_s) * (2.0 * math.pi / n_theta))
