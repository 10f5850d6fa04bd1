"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one `[PASS]`/`[FAIL]` line (run with `pytest -s` to see
them all); every tolerance is pinned here, nothing is deferred.

Criterion 4 checks the split backend (straight Fourier multipliers plus
curvature remainders) against the direct backend, an independent locally
corrected trapezoid rule of the exact kernel: the punctured trapezoid plus
an Epstein-zeta diagonal weight for the single layer and straight-tube
theta-ring weights for the double layer.  Both backends must converge on the
pinned ladder and agree to 5e-3, halving-or-better per rung.
"""

import math
import time

import numpy as np
import pytest

from slenderlap import analysis as an
from slenderlap import geometry as geo
from slenderlap import operators as op
from slenderlap import solver as sv
from slenderlap import specfun as sf
from slenderlap import spectral as sp
from slenderlap.grid import make_grid
from slenderlap.spectral import GridFunction

from test_spectral import k0_cos_quadrature
from test_solver import exterior_points


def report(num, ok, detail, t0, limit):
    elapsed = time.time() - t0
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} "
            f"({elapsed:.1f}s / limit {limit:.0f}s)")
    print(line)
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit"
    return ok


def test_criterion_1_bessel_suite():
    t0 = time.time()
    rep = sf.check_suite(kmax_order=16, n_z=200)
    ok = rep["wronskian_sup"] <= 1e-12
    envelopes = {k: v for k, v in rep.items() if "ratio" in k}
    finite = all(np.isfinite(v) for v in envelopes.values())
    detail = (f"Wronskian sup {rep['wronskian_sup']:.2e} <= 1e-12; "
              f"ratio envelope sups "
              + ", ".join(f"{k}={v:.3g}" for k, v in envelopes.items()))
    assert report(1, ok and finite, detail, t0, 5.0)


def test_criterion_2_symbol_identities():
    t0 = time.time()
    worst_quad = 0.0
    for z in (0.2, 2.0, 20.0):
        for ell in range(0, 9):
            lhs = k0_cos_quadrature(z, ell)
            rhs = (2.0 * math.pi * sf.bessel_I(ell, z / 2) * math.exp(-z / 2)
                   * sf.bessel_K_scaled(ell, z / 2))
            worst_quad = max(worst_quad, abs(lhs - rhs))
    sandwich_ok = True
    for eps in (1e-3, 1e-2, 1e-1):
        for k in range(1, 10001):
            val = sp.FourierSymbol("m_eps_inv", eps).evaluate(k)
            lin = 4.0 * math.pi ** 2 * eps * k
            if not (lin <= val <= lin + 2.0 * math.pi):
                sandwich_ok = False
                break
    ok = worst_quad <= 1e-8 and sandwich_ok
    detail = (f"Bessel-cos quadrature worst {worst_quad:.2e} <= 1e-8; "
              f"growth sandwich exact for k <= 1e4: {sandwich_ok}")
    assert report(2, ok, detail, t0, 5.0)


def test_criterion_3_geometry():
    t0 = time.time()
    from slenderlap.kernels import check_geometric_inequalities
    checks = []
    for preset in ("circle", "perturbed_circle"):
        cl = geo.build_centerline({"preset": preset})
        fr = geo.build_frame(cl, 128)
        s = np.arange(256) / 256.0
        unit_speed = float(np.max(np.abs(
            np.linalg.norm(cl.tangent(s), axis=1) - 1.0)))
        orth = 0.0
        for a, b, want in ((fr.e_t, fr.e_t, 1.0), (fr.e_n1, fr.e_n2, 0.0),
                           (fr.e_t, fr.e_n1, 0.0), (fr.e_n2, fr.e_n2, 1.0)):
            orth = max(orth, float(np.max(np.abs(np.sum(a * b, axis=1) - want))))
        spec = geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=1.0 / 64.0)
        e0 = spec.frame_at(np.array([0.0]))[1:3]
        e1 = spec.frame_at(np.array([1.0 - 1e-14]))[1:3]
        closure = max(float(np.max(np.abs(a - b))) for a, b in zip(e0, e1))
        checks.append(unit_speed <= 1e-10 and orth <= 1e-9
                      and abs(fr.kappa3) <= math.pi and closure <= 1e-8)
    cl = geo.build_centerline({"preset": "circle"})
    fr = geo.build_frame(cl, 128)
    spec = geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=1.0 / 64.0)
    grid = make_grid(spec, 128, 16)
    ineq = check_geometric_inequalities(grid)
    ok = all(checks) and ineq["flat2cyl1_violations"] == 0
    detail = (f"frame/parameterization checks on both presets: {all(checks)}; "
              f"flat2cyl1 violations {ineq['flat2cyl1_violations']} on 128x16")
    assert report(3, ok, detail, t0, 10.0)


def _band_limited(grid):
    s, th = grid.s_nodes, grid.theta_nodes
    vals = (np.cos(2 * np.pi * s)[:, None] * (1 + 0.5 * np.cos(th))[None, :]
            + 0.3 * np.sin(4 * np.pi * s)[:, None] * np.sin(th)[None, :])
    return GridFunction(vals / np.max(np.abs(vals)))


def test_criterion_4_greens_ladder():
    t0 = time.time()
    cl = geo.build_centerline({"preset": "circle"})
    fr = geo.build_frame(cl, 256)
    spec = geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=1.0 / 128.0)
    ladder = [64, 128, 256]
    orders = {}
    resids = {}
    agree = []
    for n_s in ladder:
        grid = make_grid(spec, n_s, 16)
        v, w = (x.reshape(-1)
                for x in sv.point_charge_data(grid, [(1.0, 0.0)]))
        ops = {}
        for be in ("direct", "split"):
            # the dense route: (1/2 I - D_h) v - S_h w from the assembled pair
            ops[be] = s_h, d_h = op.assemble_S(grid, be), op.assemble_D(grid, be)
            resids.setdefault(be, []).append(
                float(np.max(np.abs(0.5 * v - d_h @ v - s_h @ w))))
        phi = _band_limited(grid).values.reshape(-1)
        diff_s = np.max(np.abs(ops["direct"][0] @ phi - ops["split"][0] @ phi))
        diff_d = np.max(np.abs(ops["direct"][1] @ phi - ops["split"][1] @ phi))
        agree.append(max(diff_s, diff_d) / np.max(np.abs(phi)))
    hs = np.log(1.0 / np.asarray(ladder, float))
    for be in ("direct", "split"):
        orders[be] = float(np.polyfit(hs, np.log(resids[be]), 1)[0])
    order_ok = {be: orders[be] >= 1.0 for be in orders}
    agree_small = all(a <= 5e-3 for a in agree)
    agree_halving = all(b <= a / 1.5 for a, b in zip(agree, agree[1:]))
    ok = all(order_ok.values()) and agree_small and agree_halving
    detail = (f"orders direct {orders['direct']:.2f} / split "
              f"{orders['split']:.2f} (>= 1.0); backend agreement "
              + ", ".join(f"{a:.1e}" for a in agree)
              + f" (<= 5e-3: {agree_small}, halving: {agree_halving})")
    assert report(4, ok, detail, t0, 300.0)


def test_criterion_5_round_trip():
    t0 = time.time()
    cl = geo.build_centerline({"preset": "circle"})
    fr = geo.build_frame(cl, 128)
    spec = geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=1.0 / 64.0)
    grid = make_grid(spec, 128, 16)
    solver = sv.SlenderBodySolver(grid, "split")
    v = GridFunction(np.cos(2 * np.pi * grid.s_nodes))
    back = solver.ntd(solver.dtn(v).f).v
    rel = float(np.max(np.abs(back.values - v.values))
                / np.max(np.abs(v.values)))
    ok = rel <= 1e-6
    assert report(5, ok, f"|L[L^-1 v] - v|/|v| = {rel:.2e} <= 1e-6", t0, 120.0)


def test_criterion_6_exterior_cross_validation():
    t0 = time.time()
    cl = geo.build_centerline({"preset": "circle"})
    fr = geo.build_frame(cl, 128)
    spec = geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=1.0 / 64.0)
    grid = make_grid(spec, 128, 16)
    charges = [(1.0, 0.0)]
    v_exact, w_exact = sv.point_charge_data(grid, charges)
    pts = exterior_points(spec, count=8)
    dist_surface = (np.min(np.linalg.norm(
        pts[:, None, :] - grid.flat_positions()[None, :, :], axis=2), axis=1))
    assert np.all(dist_surface >= 4.0 * grid.epsilon - 1e-12)
    u_ref = sv.exact_point_charge_potential(grid, pts, charges)
    u_dp, _ = sv.solve_exterior_dirichlet(grid, v_exact, pts, backend="split")
    u_gr = sv.green_representation_eval(grid, pts, v_exact, w_exact)
    errs = (float(np.max(np.abs(u_dp - u_ref))),
            float(np.max(np.abs(u_gr - u_ref))),
            float(np.max(np.abs(u_dp - u_gr))))
    ok = all(e <= 1e-3 for e in errs)
    detail = (f"D'-route {errs[0]:.1e}, Green-route {errs[1]:.1e}, "
              f"mutual {errs[2]:.1e} (all <= 1e-3) at 8 points >= 4 eps")
    assert report(6, ok, detail, t0, 180.0)


def test_criterion_7_decomposition_identity():
    t0 = time.time()
    cl = geo.build_centerline({"preset": "circle"})
    fr = geo.build_frame(cl, 128)
    spec = geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=1.0 / 64.0)
    grid = make_grid(spec, 128, 16)
    v = GridFunction(np.cos(2 * np.pi * grid.s_nodes))
    rep = an.decompose_dtn(grid, v)
    ok = rep["relative_mismatch"] <= 1e-5
    assert report(7, ok, f"term-sum vs direct relative mismatch "
                  f"{rep['relative_mismatch']:.2e} <= 1e-5", t0, 180.0)


@pytest.mark.parametrize("study_id,clause", [
    ("RS1-sup", "slope >= 0.7"),
    ("RS2-sup", "slope >= 1.7"),
    ("RS3-sup", "slope >= 1.7"),
    ("basic-int-k2-a05", "slope in [0.2, 0.8]"),
    ("Heps", "slope >= 2 - alpha - 0.3, alpha = 0.25"),
])
def test_criterion_8_scaling_slopes(study_id, clause):
    t0 = time.time()
    study = an.make_study(study_id)
    rep = an.run_scaling_study(study)
    ok = rep["pass"]
    detail = (f"study {study_id}: slope {rep['slope']:.3f}, {clause}, "
              f"ladder {['%g' % e for e in rep['epsilons']]}")
    assert report("8." + study_id, ok, detail, t0, 600.0)


@pytest.mark.parametrize("preset", ["circle", "perturbed_circle"])
def test_criterion_9_total_remainder(preset):
    t0 = time.time()
    rep = an.measure_total_remainder({"preset": preset},
                                     [2.0 ** -k for k in (5, 6, 7, 8)],
                                     alpha=0.25)
    ok = rep["pass"]
    rems = [f"{r['remainder_norm']:.3e}" for r in rep["rows"]]
    detail = (f"{preset}: remainder norms {rems}, "
              f"max/first {rep['max_over_first']:.2f} <= 3, "
              f"dominated at all eps: {rep['dominated']}")
    assert report("9." + preset, ok, detail, t0, 900.0)
