r"""Closed filament geometry: centerline, adapted frame, tube surface.

The centerline is a closed curve given by vector Fourier coefficients in a
raw parameter t in [0,1).  It is reparameterized by arclength and rescaled so
the total length is exactly 1, i.e. s lives on the unit circle T = R/Z.
Presets: "circle", "perturbed_circle" and the twisted-frame "trefoil".

The frame (e_t, e_n1, e_n2) satisfies the ODE system

    d/ds [e_t; e_n1; e_n2] = [[0, k1, k2], [-k1, 0, k3], [-k2, -k3, 0]] [...]

with constant k3: Bishop's parallel-transport frame, twisted so it closes,
built in closed form.  For the fixed reference direction a (of a few) that
stays farthest from +-e_t, U = a projected on the normal plane and
normalized, V = e_t x U.  A parallel normal is cos(psi) U + sin(psi) V with
psi' = -omega, omega = U' . V, which needs only X~_t and X~_tt (no
kappa > 0).  The loop total of omega, reduced to (-pi, pi], is k3; e_n1 has
the angle psi0 - int omega + k3 s, integrated spectrally like the arclength.

Tube surface of radius eps:

    x(s, theta) = X(s) + eps * e_r(s, theta),
    e_r = cos(theta) e_n1 + sin(theta) e_n2,
    J_eps(s, theta) = eps (1 - eps * khat), khat = k1 cos(theta) + k2 sin(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


FRAME_SAMPLES = 128  # s-nodes of the frame the CLI and the studies build
# candidate reference directions of the frame: the axes and cube diagonals
FRAME_REFERENCES = np.vstack([np.eye(3), np.array(
    [[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]]) / math.sqrt(3.0)])
# omega ~ 1/|a x e_t| sharpens as a nears +-e_t; with a clearance of 0.054
# the frame still matched the transport ODE to 3e-14 on N_FINE samples
FRAME_CLEARANCE_FLOOR = 0.1


class GeometryError(ValueError):
    pass


def curve_from_config(config):
    """Build coefficient arrays from a curve config dict.

    Accepts {"preset": "circle"|"perturbed_circle"|"trefoil", "params": {...}}
    (params for perturbed_circle only) or
    explicit {"cos": [[x,y,z],...], "sin": [[x,y,z],...]} coefficient lists
    (index j multiplies cos/sin(2 pi j t); the j=0 sine row is ignored).
    """
    if "preset" in config:
        name = config["preset"]
        params = config.get("params", {})
        r = 1.0 / (2.0 * math.pi)
        if name == "circle":
            cos_c = [[0.0, 0.0, 0.0], [r, 0.0, 0.0]]
            sin_c = [[0.0, 0.0, 0.0], [0.0, r, 0.0]]
        elif name == "perturbed_circle":
            amp = float(params.get("amplitude", 0.05))
            mode = float(params.get("mode", 2))
            if not (mode.is_integer() and mode >= 1):
                raise GeometryError(f"mode must be an integer >= 1, got {mode:g}")
            cos_c = [[0.0, 0.0, 0.0], [r, 0.0, 0.0]]
            sin_c = [[0.0, 0.0, 0.0], [0.0, r, 0.0]]
            while len(cos_c) <= mode:
                cos_c.append([0.0, 0.0, 0.0])
                sin_c.append([0.0, 0.0, 0.0])
            cos_c[int(mode)][2] = amp
        elif name == "trefoil":  # twisted frame: kappa3 ~ 2.2, kappa_* ~ 22.4
            cos_c = [[0, 0, 0], [0, 1, 0], [0, -2, 0], [0, 0, 0]]
            sin_c = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, -1]]
        else:
            raise GeometryError(f"unknown curve preset '{name}'")
        return np.asarray(cos_c, float), np.asarray(sin_c, float)
    if "cos" in config or "sin" in config:
        cos_c = np.atleast_2d(np.asarray(config.get("cos", [[0.0, 0.0, 0.0]]), float))
        sin_c = np.atleast_2d(np.asarray(config.get("sin", [[0.0, 0.0, 0.0]]), float))
        n = max(cos_c.shape[0], sin_c.shape[0])
        cos_full = np.zeros((n, 3))
        sin_full = np.zeros((n, 3))
        cos_full[: cos_c.shape[0]] = cos_c
        sin_full[: sin_c.shape[0]] = sin_c
        return cos_full, sin_full
    raise GeometryError("curve config needs 'preset' or 'cos'/'sin' coefficients")


class _PeriodicIntegral:
    """t -> int_0^t f of a smooth 1-periodic f sampled at j/n, j < n: the
    mean of f times t plus the spectral antiderivative of the rest, at the
    samples (`on_grid`) by one inverse FFT, elsewhere from the coefficients
    above roundoff (a few dozen for an analytic f).
    """

    def __init__(self, samples):
        n = samples.shape[0]
        f_hat = np.fft.fft(samples) / n
        self.mean = float(f_hat[0].real)
        k = np.fft.fftfreq(n, d=1.0 / n)
        with np.errstate(divide="ignore", invalid="ignore"):
            int_hat = np.where(k == 0, 0.0, f_hat / (2j * np.pi * k))
        osc = np.real(np.fft.ifft(int_hat) * n)
        self.on_grid = self.mean * (np.arange(n) / n) + (osc - osc[0])
        keep = np.abs(int_hat) > 1e-17 * max(1.0, abs(self.mean))
        self._coef = int_hat[keep]
        self._freq = k[keep]
        self._at0 = np.real(np.sum(self._coef))

    def __call__(self, t):
        phase = np.exp(2j * np.pi * np.outer(t, self._freq))
        return self.mean * t + np.real(phase @ self._coef) - self._at0


class Centerline:
    """Arclength-parameterized closed curve of total length 1.

    Derivatives in s are exact (spectral in the raw parameter plus the chain
    rule through the Newton-inverted reparameterization).
    """

    SELF_INTERSECTION_TOL = 1e-6
    N_FINE = 4096  # raw-parameter samples of the arclength integral

    def __init__(self, cos_coeffs, sin_coeffs):
        self.cos_coeffs = np.asarray(cos_coeffs, float)
        self.sin_coeffs = np.asarray(sin_coeffs, float)
        if self.cos_coeffs.ndim != 2 or self.cos_coeffs.shape[1] != 3:
            raise GeometryError("coefficients must be lists of 3-vectors")
        if not (np.all(np.isfinite(self.cos_coeffs))
                and np.all(np.isfinite(self.sin_coeffs))):
            raise GeometryError("curve coefficients must be finite")
        amp = np.abs(self.cos_coeffs[1:]).sum() + np.abs(self.sin_coeffs[1:]).sum()
        if amp == 0.0:
            raise GeometryError("degenerate curve: all oscillatory coefficients vanish")

        t_fine = np.arange(self.N_FINE) / self.N_FINE
        speed = np.linalg.norm(self._raw_deriv(t_fine), axis=1)
        if speed.min() < 1e-10 * speed.max():
            raise GeometryError("degenerate curve: |X_t| vanishes")
        self._arclength = _PeriodicIntegral(speed)
        self.arclength_total = self._arclength.mean
        self._t_fine = t_fine
        self._s_of_t_fine = self._arclength.on_grid / self.arclength_total
        self.c_gamma = self._estimate_c_gamma()
        if self.c_gamma < self.SELF_INTERSECTION_TOL:
            raise GeometryError(
                f"self-intersecting curve: c_gamma estimate {self.c_gamma:.3e}")

    def _raw_deriv(self, t, order=1):
        """d^order/dt^order of the raw curve X~(t); order 0 is X~ itself."""
        t = np.atleast_1d(np.asarray(t, float))
        j = np.arange(self.cos_coeffs.shape[0])
        w = (2.0 * np.pi * j) ** order
        ang = 2.0 * np.pi * np.outer(t, j)
        c, s = np.cos(ang), np.sin(ang)
        for _ in range(order % 4):  # d/dt: (cos, sin) -> 2 pi j (-sin, cos)
            c, s = -s, c
        return (c * w) @ self.cos_coeffs + (s * w) @ self.sin_coeffs

    def t_of_s(self, s):
        """Invert the normalized arclength map by Newton iteration."""
        s = np.mod(np.atleast_1d(np.asarray(s, float)), 1.0)
        t = np.interp(s, self._s_of_t_fine, self._t_fine)
        L = self.arclength_total
        for _ in range(60):
            ds = self._arclength(np.mod(t, 1.0)) / L - s
            ds -= np.round(ds)  # periodic residual
            speed = np.linalg.norm(self._raw_deriv(t), axis=1) / L
            step = ds / speed
            t = t - step
            if np.max(np.abs(step)) < 1e-15:
                break
        return np.mod(t, 1.0)

    def position(self, s):
        """X(s) on the unit-length curve."""
        t = self.t_of_s(s)
        return self._raw_deriv(t, 0) / self.arclength_total

    def tangent(self, s):
        return self._tangent_at_t(self.t_of_s(s))

    @cached_property
    def _fine_positions(self):
        return self.position(np.arange(self.N_FINE) / self.N_FINE)

    def distance_bound(self, points):
        """Each point's distance to the nearest of N_FINE equispaced samples
        less their half-spacing: a lower bound on its distance to the curve."""
        d = np.atleast_2d(points)[:, None] - self._fine_positions
        return np.linalg.norm(d, axis=2).min(axis=1) - 0.5 / self.N_FINE

    def _tangent_at_t(self, t):
        d = self._raw_deriv(t)
        return d / np.linalg.norm(d, axis=1)[:, None]

    def _second_deriv_at_t(self, t):
        """X_ss at raw parameter t; equals kappa times the principal normal."""
        d1 = self._raw_deriv(t, 1)
        d2 = self._raw_deriv(t, 2)
        L = self.arclength_total
        speed = np.linalg.norm(d1, axis=1)
        tp = L / speed
        tpp = -(L ** 2) * np.sum(d1 * d2, axis=1) / speed ** 4
        return (d2 * (tp ** 2)[:, None] + d1 * tpp[:, None]) / L

    def _estimate_c_gamma(self, n=512):
        o, rows = np.arange(n), 64
        pos = self.position(o / n).T
        wins = [sliding_window_view(np.concatenate([c, c]), n) for c in pos]
        # |X(s_i + o/n) - X(s_i)|^2 by offset o, a coordinate at a time, and
        # its least over i, rows i at a time: whole, the n x n temporaries
        # peaked at 8.6 MB
        least = np.full(n, np.inf)
        for lo in range(0, n, rows):
            chord = 0.0
            for c, w in zip(pos, wins):
                d = w[lo:lo + rows] - c[lo:lo + rows, None]
                chord += np.square(d, out=d)
            np.minimum(least, chord.min(axis=0), out=least)
        # s_i = i/n is exact, so the periodic |s_i - s_j| is min(o, n - o)/n;
        # sqrt(x)/d grows with x, so the least chord gives the least ratio
        return float(np.min(np.sqrt(least[1:]) / (np.minimum(o, n - o)[1:] / n)))


@dataclass
class FrameField:
    """Sampled orthonormal frame with constant-k3 twist.

    at(s) evaluates the same frame at any s:
    (e_t, e_n1, e_n2, kappa1, kappa2, X_ss).
    """

    n_samples: int
    s_nodes: np.ndarray
    e_t: np.ndarray
    e_n1: np.ndarray
    e_n2: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray
    kappa3: float
    kappa: np.ndarray = field(default=None)
    at: object = field(default=None, repr=False)

    @property
    def kappa_star(self):
        return float(np.max(self.kappa))


def build_centerline(curve_config):
    cos_c, sin_c = curve_from_config(curve_config)
    return Centerline(cos_c, sin_c)


def _normal_plane_basis(a, e_t):
    """(U, V): a projected on each tangent's normal plane, then e_t x U."""
    w = a - (e_t @ a)[:, None] * e_t
    u = w / np.linalg.norm(w, axis=1)[:, None]
    return u, np.cross(e_t, u)


def build_frame(centerline, n_samples):
    """Twisted parallel-transport frame at n_samples uniform s-nodes, in the
    closed form of the module docstring."""
    if n_samples < 32 or (n_samples & (n_samples - 1)) != 0:
        raise GeometryError("n_samples must be a power of two >= 32")
    cl = centerline
    d1 = cl._raw_deriv(cl._t_fine, 1)
    speed = np.linalg.norm(d1, axis=1)
    e_t_fine = d1 / speed[:, None]
    # a is the reference direction whose clearance |a x e_t| is largest
    clearance = np.linalg.norm(np.cross(e_t_fine[:, None], FRAME_REFERENCES), axis=2)
    a_idx = int(np.argmax(clearance.min(axis=0)))
    a, a_clear = FRAME_REFERENCES[a_idx], clearance[:, a_idx]
    if a_clear.min() < FRAME_CLEARANCE_FLOOR:
        raise GeometryError(f"no frame reference clears the tangent: min |a x e_t| "
                            f"{a_clear.min():.3g} < {FRAME_CLEARANCE_FLOOR}")
    u, v = _normal_plane_basis(a, e_t_fine)
    # omega dt = U_t . V dt = -(a.e_t)(e_t,t . V)/|a x e_t| dt, where
    # e_t,t . V = X~_tt . V / |X~_t| since V is normal to e_t
    omega = -(e_t_fine @ a) * np.sum(cl._raw_deriv(cl._t_fine, 2) * v, axis=1) \
        / (speed * a_clear)
    twist = _PeriodicIntegral(omega)
    kappa3 = math.pi - (math.pi - twist.mean) % (2.0 * math.pi)  # (-pi, pi]

    e_t0 = cl.tangent(np.array([0.0]))
    u0, v0 = _normal_plane_basis(a, e_t0)
    seed = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(seed, e_t0[0])) > 0.9:
        seed = np.array([1.0, 0.0, 0.0])
    psi0 = math.atan2(np.dot(seed, v0[0]), np.dot(seed, u0[0]))

    def at(s):
        s = np.mod(np.atleast_1d(np.asarray(s, float)), 1.0)
        t = cl.t_of_s(s)
        e_t = cl._tangent_at_t(t)
        u, v = _normal_plane_basis(a, e_t)
        ang = psi0 - twist(t) + kappa3 * s
        c, s_ = np.cos(ang)[:, None], np.sin(ang)[:, None]
        e_n1, e_n2 = c * u + s_ * v, -s_ * u + c * v
        xss = cl._second_deriv_at_t(t)
        return (e_t, e_n1, e_n2, np.sum(e_n1 * xss, axis=1),
                np.sum(e_n2 * xss, axis=1), xss)

    s_nodes = np.arange(n_samples) / n_samples
    e_t, e_n1, e_n2, kappa1, kappa2, xss = at(s_nodes)
    return FrameField(n_samples=n_samples, s_nodes=s_nodes, e_t=e_t,
                      e_n1=e_n1, e_n2=e_n2, kappa1=kappa1, kappa2=kappa2,
                      kappa3=kappa3, kappa=np.linalg.norm(xss, axis=1), at=at)


@dataclass
class SurfaceSpec:
    """Filament surface data: centerline + frame + radius.

    Construction enforces eps * kappa_* < 1/2 (Jacobian bounded below by
    eps/2) and eps < c_Gamma / 4 (no tube self-overlap at the sampled
    scale).  The tighter classical tubular-neighborhood margin
    (r_* < 1/(2 kappa_*) with eps < r_*/4) is stricter than the epsilon
    ladders on the unit-length circle allow, so it is recorded in
    `strict_tube_margin` rather than enforced.
    """

    centerline: Centerline
    frame: FrameField
    epsilon: float

    def __post_init__(self):
        ks = self.frame.kappa_star
        if not math.isfinite(self.epsilon) or self.epsilon <= 0:
            raise GeometryError(
                f"epsilon must be positive and finite, got {self.epsilon}")
        if self.epsilon * ks >= 0.5:
            raise GeometryError(
                f"epsilon too large: eps*kappa_* = {self.epsilon * ks:.3f} >= 1/2")
        if self.epsilon >= self.centerline.c_gamma / 4.0:
            raise GeometryError(
                f"epsilon too large: eps >= c_gamma/4 = {self.centerline.c_gamma / 4:.4f}")

    @property
    def r_star(self):
        return 0.999 / (2.0 * self.frame.kappa_star)

    @property
    def strict_tube_margin(self):
        return self.epsilon < self.r_star / 4.0

    def frame_at(self, s):
        """(e_t, e_n1, e_n2, kappa1, kappa2) at arbitrary s, in closed form."""
        return self.frame.at(s)[:5]


def surface_specs(curve_config, epsilons, n_frame=FRAME_SAMPLES):
    """One SurfaceSpec per eps on one centerline and frame; each checks eps."""
    cl = build_centerline(curve_config)
    fr = build_frame(cl, n_frame)
    return [SurfaceSpec(centerline=cl, frame=fr, epsilon=e) for e in epsilons]


def tube_surface(epsilon, x0, e_n1, e_n2, k1, k2, theta):
    """(x, e_r, khat, J_eps) of the module docstring's tube formulas.

    The centerline data x0, e_n1, e_n2 (vectors on the last axis) and k1, k2
    broadcast against theta, so data at the s-nodes, each with a trailing
    unit axis, give the whole (s, theta) tensor grid.
    """
    ct, st = np.cos(theta), np.sin(theta)
    e_r = ct[..., None] * e_n1 + st[..., None] * e_n2
    khat = k1 * ct + k2 * st
    return x0 + epsilon * e_r, e_r, khat, epsilon * (1.0 - epsilon * khat)


def surface_point(spec, s, theta):
    """(position, outward normal, jacobian) at surface coordinates (s, theta)."""
    s_arr = np.atleast_1d(np.asarray(s, float))
    th = np.atleast_1d(np.asarray(theta, float))
    _, e_n1, e_n2, k1, k2 = spec.frame_at(s_arr)
    pos, e_r, _, jac = tube_surface(spec.epsilon, spec.centerline.position(s_arr),
                                    e_n1, e_n2, k1, k2, th)
    if np.isscalar(s) and np.isscalar(theta):
        return pos[0], e_r[0], float(jac[0])
    return pos, e_r, jac


def geometry_report(spec):
    fr = spec.frame
    return {
        "c_gamma": spec.centerline.c_gamma,
        "kappa_star": fr.kappa_star,
        "kappa3": fr.kappa3,
        "r_star": spec.r_star,
        "epsilon": spec.epsilon,
        "strict_tube_margin": spec.strict_tube_margin,
        "arclength_total_raw": spec.centerline.arclength_total,
    }
