r"""Closed filament geometry: centerline, adapted frame, tube surface.

The centerline is a closed curve given by vector Fourier coefficients in a
raw parameter t in [0,1).  It is reparameterized by arclength and rescaled so
the total length is exactly 1, i.e. s lives on the unit circle T = R/Z.

The frame (e_t, e_n1, e_n2) satisfies the ODE system

    d/ds [e_t; e_n1; e_n2] = [[0, k1, k2], [-k1, 0, k3], [-k2, -k3, 0]] [...]

with constant k3.  It is built as a twisted parallel-transport frame: the
parallel frame (k3 = 0) is integrated over one loop, the holonomy angle phi
of the normal plane is measured, and the frame is twisted by the angle
-phi * s (reduced to (-pi, pi]) so it closes up periodically; |k3| <= pi by
construction.

Tube surface of radius eps:

    x(s, theta) = X(s) + eps * e_r(s, theta),
    e_r = cos(theta) e_n1 + sin(theta) e_n2,
    J_eps(s, theta) = eps (1 - eps * khat), khat = k1 cos(theta) + k2 sin(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp


class GeometryError(ValueError):
    pass


def curve_from_config(config):
    """Build coefficient arrays from a curve config dict.

    Accepts {"preset": "circle"|"perturbed_circle", "params": {...}} or
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
            mode = int(params.get("mode", 2))
            cos_c = [[0.0, 0.0, 0.0], [r, 0.0, 0.0]]
            sin_c = [[0.0, 0.0, 0.0], [0.0, r, 0.0]]
            while len(cos_c) <= mode:
                cos_c.append([0.0, 0.0, 0.0])
                sin_c.append([0.0, 0.0, 0.0])
            cos_c[mode][2] = amp
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
        amp = np.abs(self.cos_coeffs[1:]).sum() + np.abs(self.sin_coeffs[1:]).sum()
        if amp == 0.0:
            raise GeometryError("degenerate curve: all oscillatory coefficients vanish")

        n_fine = self.N_FINE
        t_fine = np.arange(n_fine) / n_fine
        speed = np.linalg.norm(self._raw_deriv(t_fine), axis=1)
        if speed.min() < 1e-10 * speed.max():
            raise GeometryError("degenerate curve: |X_t| vanishes")
        # cumulative arclength by spectral integration of the speed
        sp_hat = np.fft.fft(speed) / n_fine
        self.arclength_total = float(sp_hat[0].real)
        k = np.fft.fftfreq(n_fine, d=1.0 / n_fine)
        with np.errstate(divide="ignore", invalid="ignore"):
            int_hat = np.where(k == 0, 0.0, sp_hat / (2j * np.pi * k))
        osc = np.real(np.fft.ifft(int_hat) * n_fine)
        cum = self.arclength_total * t_fine + (osc - osc[0])
        self._t_fine = t_fine
        self._s_of_t_fine = cum / self.arclength_total  # normalized to [0,1)
        kk = k[k != 0]
        coef = sp_hat[k != 0] / (2j * np.pi * kk)
        # speed of an analytic curve has exponentially decaying spectrum;
        # drop coefficients at roundoff level to keep evaluation cheap
        keep = np.abs(coef) > 1e-17 * max(1.0, self.arclength_total)
        self._speed_osc_coef = coef[keep]
        self._speed_osc_freq = kk[keep]
        self._speed_osc_at0 = np.real(np.sum(self._speed_osc_coef))
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
            ds = self._s_eval(t) - s
            ds -= np.round(ds)  # periodic residual
            speed = np.linalg.norm(self._raw_deriv(t), axis=1) / L
            step = ds / speed
            t = t - step
            if np.max(np.abs(step)) < 1e-15:
                break
        return np.mod(t, 1.0)

    def _s_eval(self, t):
        # normalized arclength at raw parameter t by direct spectral
        # evaluation of the cumulative speed integral
        tt = np.mod(np.asarray(t, float), 1.0)
        phase = np.exp(2j * np.pi * np.outer(tt, self._speed_osc_freq))
        osc = np.real(phase @ self._speed_osc_coef)
        return (self.arclength_total * tt + osc - self._speed_osc_at0) \
            / self.arclength_total

    def position(self, s):
        """X(s) on the unit-length curve."""
        t = self.t_of_s(s)
        return self._raw_deriv(t, 0) / self.arclength_total

    def tangent(self, s):
        return self._tangent_at_t(self.t_of_s(s))

    def _tangent_at_t(self, t):
        d = self._raw_deriv(t)
        return d / np.linalg.norm(d, axis=1)[:, None]

    def second_deriv(self, s):
        """X_ss(s); equals kappa(s) times the principal normal."""
        return self._second_deriv_at_t(self.t_of_s(s))

    def _second_deriv_at_t(self, t):
        d1 = self._raw_deriv(t, 1)
        d2 = self._raw_deriv(t, 2)
        L = self.arclength_total
        speed = np.linalg.norm(d1, axis=1)
        tp = L / speed
        tpp = -(L ** 2) * np.sum(d1 * d2, axis=1) / speed ** 4
        return (d2 * (tp ** 2)[:, None] + d1 * tpp[:, None]) / L

    def curvature(self, s):
        return np.linalg.norm(self.second_deriv(s), axis=1)

    def _estimate_c_gamma(self, n=512):
        s = np.arange(n) / n
        x = self.position(s)
        diff = x[:, None, :] - x[None, :, :]
        chord = np.linalg.norm(diff, axis=2)
        ds = np.abs(s[:, None] - s[None, :])
        ds = np.minimum(ds, 1.0 - ds)
        mask = ds > 0
        return float(np.min(chord[mask] / ds[mask]))


@dataclass
class FrameField:
    """Sampled orthonormal frame with constant-k3 twist."""

    n_samples: int
    s_nodes: np.ndarray
    e_t: np.ndarray
    e_n1: np.ndarray
    e_n2: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray
    kappa3: float
    kappa: np.ndarray = field(default=None)

    @property
    def kappa_star(self):
        return float(np.max(self.kappa))


def build_centerline(curve_config):
    cos_c, sin_c = curve_from_config(curve_config)
    return Centerline(cos_c, sin_c)


def build_frame(centerline, n_samples):
    """Twisted parallel-transport frame at n_samples uniform s-nodes."""
    if n_samples < 32 or (n_samples & (n_samples - 1)) != 0:
        raise GeometryError("n_samples must be a power of two >= 32")
    s_nodes = np.arange(n_samples) / n_samples

    def rhs(s, y):
        n1 = y[:3]
        n2 = y[3:]
        t = centerline.t_of_s(np.array([s]))
        dts = centerline._second_deriv_at_t(t)[0]  # d e_t / ds
        e_t = centerline._tangent_at_t(t)[0]
        return np.concatenate([-np.dot(n1, dts) * e_t, -np.dot(n2, dts) * e_t])

    e_t0 = centerline.tangent(np.array([0.0]))[0]
    seed = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(seed, e_t0)) > 0.9:
        seed = np.array([1.0, 0.0, 0.0])
    n1_0 = seed - np.dot(seed, e_t0) * e_t0
    n1_0 /= np.linalg.norm(n1_0)
    n2_0 = np.cross(e_t0, n1_0)

    s_eval = np.concatenate([s_nodes, [1.0]])
    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([n1_0, n2_0]),
                    t_eval=s_eval, method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise GeometryError(f"frame ODE integration failed: {sol.message}")

    e_t = centerline.tangent(s_nodes)
    n1 = sol.y[:3, :-1].T.copy()
    n2 = sol.y[3:, :-1].T.copy()
    # kill integrator drift: re-orthonormalize against the exact tangent
    n1 -= np.sum(n1 * e_t, axis=1)[:, None] * e_t
    n1 /= np.linalg.norm(n1, axis=1)[:, None]
    n2 = np.cross(e_t, n1)

    n1_end = sol.y[:3, -1]
    phi = math.atan2(np.dot(n1_end, n2_0), np.dot(n1_end, n1_0))
    kappa3 = -phi
    if kappa3 <= -math.pi:
        kappa3 += 2.0 * math.pi
    elif kappa3 > math.pi:
        kappa3 -= 2.0 * math.pi
    assert abs(kappa3) <= math.pi

    ang = kappa3 * s_nodes
    c, s_ = np.cos(ang)[:, None], np.sin(ang)[:, None]
    e_n1 = c * n1 + s_ * n2
    e_n2 = -s_ * n1 + c * n2

    xss = centerline.second_deriv(s_nodes)
    kappa1 = np.sum(e_n1 * xss, axis=1)
    kappa2 = np.sum(e_n2 * xss, axis=1)
    kappa = np.linalg.norm(xss, axis=1)
    return FrameField(n_samples=n_samples, s_nodes=s_nodes, e_t=e_t,
                      e_n1=e_n1, e_n2=e_n2, kappa1=kappa1, kappa2=kappa2,
                      kappa3=kappa3, kappa=kappa)


def _trig_interp_matrix(values, s):
    """Trigonometric interpolant of real periodic samples (n, m) at points s.

    The Nyquist coefficient is evaluated as cos(pi n s) so the interpolant
    is real and symmetric.
    """
    n = values.shape[0]
    s = np.asarray(s, float)
    vhat = np.fft.fft(values, axis=0) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    body = np.abs(k) != n // 2
    phase = np.exp(2j * np.pi * np.outer(s, k[body]))
    out = phase @ vhat[body]
    nyq = np.where(~body)[0]
    if nyq.size:
        out = out + np.cos(np.pi * n * s)[:, None] * vhat[nyq[0]]
    return np.real(out)


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
        """Frame vectors at arbitrary s by trigonometric interpolation."""
        s = np.atleast_1d(np.asarray(s, float))
        fr = self.frame
        e_t = self.centerline.tangent(s)
        e_n1 = _trig_interp_matrix(fr.e_n1, s)
        e_n1 -= np.sum(e_n1 * e_t, axis=1)[:, None] * e_t
        e_n1 /= np.linalg.norm(e_n1, axis=1)[:, None]
        e_n2 = np.cross(e_t, e_n1)
        xss = self.centerline.second_deriv(s)
        k1 = np.sum(e_n1 * xss, axis=1)
        k2 = np.sum(e_n2 * xss, axis=1)
        return e_t, e_n1, e_n2, k1, k2


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
