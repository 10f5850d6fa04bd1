"""Geometry tests: arclength parameterization, frame closure, tube surface."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.spatial.transform import Rotation

from slenderlap import geometry as geo
from slenderlap.grid import holder_seminorm


CIRCLE = {"preset": "circle"}
PERTURBED = {"preset": "perturbed_circle"}
TREFOIL = {"preset": "trefoil"}


# a planar limacon-like curve whose signed curvature changes sign (1 + 8 b^2
# + 6 b cos(2 pi t) < 0 near t = 1/2 for b = 0.3), turned out of every
# coordinate plane: the Frenet frame breaks down at its two inflections
_ROT = Rotation.from_euler("zxz", [0.7, 1.1, -0.4]).as_matrix()
INFLECTED = {"cos": (np.array([[0, 0, 0], [1, 0, 0], [0.3, 0, 0]]) @ _ROT.T).tolist(),
             "sin": (np.array([[0, 0, 0], [0, 1, 0], [0, 0.3, 0]]) @ _ROT.T).tolist()}


def _second_deriv(cl, s):
    """X_ss at arclength s."""
    return cl._second_deriv_at_t(cl.t_of_s(s))


def ode_frame(cl, n_samples):
    """Oracle: the twisted parallel-transport frame by integrating the
    transport ODE d n / ds = -(n . e_t') e_t with DOP853, then twisting by
    the holonomy angle reduced to (-pi, pi].

    Returns (e_n1, e_n2, kappa1, kappa2, kappa3) at n_samples s-nodes.
    """
    s_nodes = np.arange(n_samples) / n_samples

    def rhs(s, y):
        t = cl.t_of_s(np.array([s]))
        dts = cl._second_deriv_at_t(t)[0]
        e_t = cl._tangent_at_t(t)[0]
        return np.concatenate([-np.dot(y[:3], dts) * e_t,
                               -np.dot(y[3:], dts) * e_t])

    e_t0 = cl.tangent(np.array([0.0]))[0]
    seed = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(seed, e_t0)) > 0.9:
        seed = np.array([1.0, 0.0, 0.0])
    n1_0 = seed - np.dot(seed, e_t0) * e_t0
    n1_0 /= np.linalg.norm(n1_0)
    n2_0 = np.cross(e_t0, n1_0)
    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([n1_0, n2_0]),
                    t_eval=np.concatenate([s_nodes, [1.0]]), method="DOP853",
                    rtol=1e-13, atol=1e-15)
    assert sol.success, sol.message
    e_t = cl.tangent(s_nodes)
    n1 = sol.y[:3, :-1].T.copy()
    n1 -= np.sum(n1 * e_t, axis=1)[:, None] * e_t  # integrator drift
    n1 /= np.linalg.norm(n1, axis=1)[:, None]
    n2 = np.cross(e_t, n1)
    n1_end = sol.y[:3, -1]
    kappa3 = -math.atan2(np.dot(n1_end, n2_0), np.dot(n1_end, n1_0))
    if kappa3 <= -math.pi:
        kappa3 += 2.0 * math.pi
    c = np.cos(kappa3 * s_nodes)[:, None]
    s = np.sin(kappa3 * s_nodes)[:, None]
    e_n1, e_n2 = c * n1 + s * n2, -s * n1 + c * n2
    xss = _second_deriv(cl, s_nodes)
    return (e_n1, e_n2, np.sum(e_n1 * xss, axis=1), np.sum(e_n2 * xss, axis=1),
            kappa3)


def make_spec(config, n_samples=128, epsilon=1.0 / 64.0):
    cl = geo.build_centerline(config)
    fr = geo.build_frame(cl, n_samples)
    return geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=epsilon)


def test_circle_basic_quantities():
    cl = geo.build_centerline(CIRCLE)
    s = np.arange(256) / 256.0
    kappa = np.linalg.norm(_second_deriv(cl, s), axis=1)
    assert np.allclose(kappa, 2.0 * math.pi, rtol=1e-9)
    # c_gamma = sin(pi d)/(pi d) minimized at d = 1/2 -> 2/pi
    assert abs(cl.c_gamma - 2.0 / math.pi) < 1e-3
    # arclength of the raw circle of circumference 1 is 1
    assert abs(cl.arclength_total - 1.0) < 1e-12


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_raw_derivatives_on_the_circle(order):
    # X~(t) = r (cos 2 pi t, sin 2 pi t, 0): each t-derivative scales by 2 pi
    # and turns the phase by a quarter
    cl = geo.build_centerline(CIRCLE)
    t = np.array([0.0, 0.1, 0.37])
    ang = 2.0 * math.pi * t + order * math.pi / 2.0
    want = (2.0 * math.pi) ** (order - 1) * np.stack(
        [np.cos(ang), np.sin(ang), np.zeros_like(t)], axis=1)
    got = cl._raw_deriv(t, order)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_unit_speed_both_presets():
    for config in (CIRCLE, PERTURBED):
        cl = geo.build_centerline(config)
        s = np.arange(128) / 128.0
        tang_norm = np.linalg.norm(cl.tangent(s), axis=1)
        assert np.max(np.abs(tang_norm - 1.0)) < 1e-10
        # closure
        gap = np.linalg.norm(cl.position(np.array([0.0]))
                             - cl.position(np.array([1.0 - 1e-16])))
        assert gap < 1e-10


def test_unit_speed_finite_difference():
    cl = geo.build_centerline(PERTURBED)
    s = np.linspace(0.05, 0.95, 41)
    h = 1e-6
    fd = (cl.position(s + h) - cl.position(s - h)) / (2 * h)
    assert np.max(np.abs(np.linalg.norm(fd, axis=1) - 1.0)) < 1e-7


def test_degenerate_curve_rejected():
    with pytest.raises(geo.GeometryError):
        geo.build_centerline({"cos": [[0.0, 0.0, 0.0]], "sin": [[0.0, 0.0, 0.0]]})


def test_frame_orthonormality_and_closure():
    for config in (CIRCLE, PERTURBED, TREFOIL):
        fr = make_spec(config).frame
        for a, b, want in (
            (fr.e_t, fr.e_t, 1.0), (fr.e_n1, fr.e_n1, 1.0), (fr.e_n2, fr.e_n2, 1.0),
            (fr.e_t, fr.e_n1, 0.0), (fr.e_t, fr.e_n2, 0.0), (fr.e_n1, fr.e_n2, 0.0),
        ):
            assert np.max(np.abs(np.sum(a * b, axis=1) - want)) < 1e-9


def test_frame_periodicity():
    for config in (PERTURBED, TREFOIL):
        cl = geo.build_centerline(config)
        fr = geo.build_frame(cl, 64)
        spec = geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=1.0 / 64)
        e_t0, e_n10, e_n20, _, _ = spec.frame_at(np.array([0.0]))
        e_t1, e_n11, e_n21, _, _ = spec.frame_at(np.array([1.0 - 1e-14]))
        assert np.max(np.abs(e_n10 - e_n11)) < 1e-8
        assert np.max(np.abs(e_n20 - e_n21)) < 1e-8


def test_circle_kappa3_zero():
    fr = make_spec(CIRCLE).frame
    assert abs(fr.kappa3) < 1e-8
    # (kappa1, kappa2) is a rotation image of (2 pi, 0)
    mag = np.hypot(fr.kappa1, fr.kappa2)
    assert np.max(np.abs(mag - 2.0 * math.pi)) < 1e-8


def test_kappa3_bounded_and_self_convergent():
    cl = geo.build_centerline(PERTURBED)
    k3 = []
    for n in (64, 128):
        fr = geo.build_frame(cl, n)
        assert abs(fr.kappa3) <= math.pi
        k3.append(fr.kappa3)
    assert abs(k3[0] - k3[1]) < 1e-8


def test_kappa_consistency():
    for config in (PERTURBED, TREFOIL):
        fr = geo.build_frame(geo.build_centerline(config), 128)
        assert np.max(np.abs(fr.kappa1 ** 2 + fr.kappa2 ** 2 - fr.kappa ** 2)) < 1e-8


def test_frame_ode_residual_order():
    """Finite-difference d/ds of the frame matches the ODE right side at
    order >= 1.8 under grid doubling."""
    for config in (PERTURBED, TREFOIL):
        cl = geo.build_centerline(config)
        errs = []
        for n in (128, 256):
            fr = geo.build_frame(cl, n)
            h = 1.0 / n
            dn1 = (np.roll(fr.e_n1, -1, axis=0) - np.roll(fr.e_n1, 1, axis=0)) / (2 * h)
            rhs = -fr.kappa1[:, None] * fr.e_t + fr.kappa3 * fr.e_n2
            errs.append(np.max(np.abs(dn1 - rhs)))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.8


@pytest.mark.parametrize("config", [CIRCLE, PERTURBED, TREFOIL, INFLECTED],
                         ids=["circle", "perturbed_circle", "trefoil", "inflected"])
def test_frame_matches_the_transport_ode(config):
    cl = geo.build_centerline(config)
    fr = geo.build_frame(cl, 128)
    e_n1, e_n2, kappa1, kappa2, kappa3 = ode_frame(cl, 128)
    assert np.max(np.abs(fr.e_n1 - e_n1)) <= 1e-11
    assert np.max(np.abs(fr.e_n2 - e_n2)) <= 1e-11
    assert np.max(np.abs(fr.kappa1 - kappa1)) <= 1e-10
    assert np.max(np.abs(fr.kappa2 - kappa2)) <= 1e-10
    assert abs(fr.kappa3 - kappa3) <= 1e-12


def test_frame_between_the_samples_is_the_finer_frame():
    # frame_at is the closed form at any s, not an interpolant of the
    # samples: on the trefoil, 128 samples interpolated to 256 nodes were
    # 7.5e-9 off in e_n1
    cl = geo.build_centerline(TREFOIL)
    spec = make_spec(TREFOIL)
    fine = geo.build_frame(cl, 256)
    got = spec.frame_at(fine.s_nodes)
    want = (fine.e_t, fine.e_n1, fine.e_n2, fine.kappa1, fine.kappa2)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


def test_inflected_curve_is_planar_with_a_sign_change():
    # the premise of the inflected oracle case: its curvature along the
    # plane's normal changes sign, so kappa vanishes between the nodes
    cl = geo.build_centerline(INFLECTED)
    s = np.arange(1024) / 1024.0
    signed = np.cross(cl.tangent(s), _second_deriv(cl, s)) @ _ROT[:, 2]
    assert signed.min() < 0.0 < signed.max()
    assert abs(geo.build_frame(cl, 64).kappa3) < 1e-14


def test_frame_reference_clearance_floor(monkeypatch):
    # no reference direction is farther than 1/sqrt(2) from the trefoil's
    # tangent, so a floor above that is an error, not a fallback
    cl = geo.build_centerline(TREFOIL)
    monkeypatch.setattr(geo, "FRAME_CLEARANCE_FLOOR", 0.9)
    with pytest.raises(geo.GeometryError, match="clears the tangent"):
        geo.build_frame(cl, 64)


def test_surface_point_jacobian():
    spec = make_spec(CIRCLE, epsilon=1.0 / 64)
    eps = spec.epsilon
    # theta aligned with the curvature direction: J = eps (1 - eps kappa)
    fr = spec.frame
    i = 5
    th = math.atan2(fr.kappa2[i], fr.kappa1[i])
    _, _, jac = geo.surface_point(spec, fr.s_nodes[i], th)
    assert abs(jac - eps * (1 - eps * 2 * math.pi)) < 1e-9
    # integral of J over theta is 2 pi eps exactly (trapezoid is exact here)
    n_th = 32
    thetas = 2 * math.pi * np.arange(n_th) / n_th
    _, _, jacs = geo.surface_point(spec, np.full(n_th, 0.3), thetas)
    assert abs(np.mean(jacs) * 2 * math.pi - 2 * math.pi * eps) < 1e-12


def test_surface_area_scaling():
    # area -> 2 pi eps with relative error O(eps)
    for eps in (1.0 / 32, 1.0 / 64):
        spec = make_spec(PERTURBED, epsilon=eps)
        n_s, n_th = 128, 32
        s = np.repeat(np.arange(n_s) / n_s, n_th)
        th = np.tile(2 * math.pi * np.arange(n_th) / n_th, n_s)
        _, _, jacs = geo.surface_point(spec, s, th)
        area = np.sum(jacs) * (1.0 / n_s) * (2 * math.pi / n_th)
        assert abs(area - 2 * math.pi * eps) / (2 * math.pi * eps) < 2 * eps


def test_normal_is_unit_and_outward():
    spec = make_spec(PERTURBED)
    pos, nrm, _ = geo.surface_point(spec, np.array([0.25]), np.array([1.1]))
    assert abs(np.linalg.norm(nrm) - 1.0) < 1e-10
    x0 = spec.centerline.position(np.array([0.25]))
    assert np.dot(pos[0] - x0[0], nrm[0]) > 0


def test_epsilon_constraints():
    cl = geo.build_centerline(CIRCLE)
    fr = geo.build_frame(cl, 64)
    with pytest.raises(geo.GeometryError):
        geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=0.2)
    spec = geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=1.0 / 64)
    assert spec.strict_tube_margin
    spec_wide = geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=1.0 / 32)
    assert not spec_wide.strict_tube_margin  # allowed, but outside the margin


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.01])
def test_epsilon_must_be_positive_and_finite(eps):
    cl = geo.build_centerline(CIRCLE)
    fr = geo.build_frame(cl, 64)
    with pytest.raises(geo.GeometryError, match="positive and finite"):
        geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=eps)


def test_geometry_report_keys():
    spec = make_spec(CIRCLE)
    rep = geo.geometry_report(spec)
    for key in ("c_gamma", "kappa_star", "kappa3", "r_star"):
        assert key in rep


def test_self_intersecting_curve_rejected():
    # Gerono lemniscate: crosses itself at the origin
    config = {"cos": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
              "sin": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.5, 0.0]]}
    with pytest.raises(geo.GeometryError):
        geo.build_centerline(config)


def test_perturbed_circle_nonconstant_curvature():
    cl = geo.build_centerline(PERTURBED)
    s = np.arange(128) / 128.0
    kappa = np.linalg.norm(_second_deriv(cl, s), axis=1)
    assert np.max(kappa) - np.min(kappa) > 0.5
    fr = geo.build_frame(cl, 64)
    assert fr.kappa_star > 2 * math.pi


def test_kappa_star_holder_estimator():
    cl = geo.build_centerline(PERTURBED)
    fr = geo.build_frame(cl, 128)
    h_half = holder_seminorm(fr.kappa, 0.5, 0.0)
    h_quarter = holder_seminorm(fr.kappa, 0.25, 0.0)
    assert 0.0 < h_quarter <= h_half   # distances <= 1/2, so monotone in beta
    assert np.isfinite(h_half)
    # constant-curvature circle has zero seminorm up to solver noise
    circ = geo.build_frame(geo.build_centerline(CIRCLE), 64)
    assert holder_seminorm(circ.kappa, 0.5, 0.0) < 1e-6


def _c_gamma_dense(cl, n=512):
    """The earlier estimate: full chord and |s_i - s_j| matrices, masked."""
    s = np.arange(n) / n
    chord = 0.0
    for c in cl.position(s).T:
        d = c[:, None] - c
        chord += np.square(d, out=d)
    chord = np.sqrt(chord, out=chord)
    ds = np.abs(s[:, None] - s[None, :])
    ds = np.minimum(ds, 1.0 - ds)
    mask = ds > 0
    return float(np.min(chord[mask] / ds[mask]))


@pytest.mark.parametrize("preset", ["circle", "perturbed_circle", "trefoil"])
def test_c_gamma_by_offset_is_bit_identical(preset):
    cl = geo.build_centerline({"preset": preset})
    assert cl.c_gamma == _c_gamma_dense(cl)


@pytest.mark.parametrize("preset", ["perturbed_circle", "trefoil"])
def test_reversed_curve_has_the_reflected_frame(preset):
    """X(t) -> X(-t) (sine rows negated) runs s backwards, X_rev(s) =
    X(-s).  Its frame is the original's at -s, reflected: e_t and e_n2
    change sign and e_n1 does not, both frames starting from the same seed
    at s = 0.  So kappa1 and |X_ss| are the original's at -s, kappa2 is
    negated, and the twist kappa3 is the same (2.23 on the trefoil).
    Vectors agree to 1e-13 (3.4e-15 measured), curvatures to 1e-12 (5.3e-14)."""
    cos_c, sin_c = geo.curve_from_config({"preset": preset})
    fr, rev = (geo.build_frame(geo.build_centerline({"cos": cos_c, "sin": s}),
                               128) for s in (sin_c, -sin_c))
    minus = -np.arange(128) % 128
    for name, sign, tol in (("e_t", -1, 1e-13), ("e_n1", 1, 1e-13),
                            ("e_n2", -1, 1e-13), ("kappa1", 1, 1e-12),
                            ("kappa2", -1, 1e-12), ("kappa", 1, 1e-12)):
        want = sign * getattr(fr, name)[minus]
        assert np.max(np.abs(getattr(rev, name) - want)) <= tol, name
    assert abs(rev.kappa3 - fr.kappa3) <= 1e-12
    assert rev.kappa_star == pytest.approx(fr.kappa_star, abs=1e-12)
    if preset == "trefoil":
        assert fr.kappa3 > 2.0
