"""DtN/NtD solves, Green's identity, exterior Dirichlet cross-checks."""


import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from slenderlap import analysis as an
from slenderlap import geometry as geo
from slenderlap import grid as gr
from slenderlap import operators as op
from slenderlap import solver as sv
from slenderlap import spectral
from slenderlap.kernels import PairGeometry
from slenderlap.grid import make_grid
from slenderlap.operators import theta_integral
from slenderlap.spectral import FourierSymbol, GridFunction


@pytest.fixture(scope="module")
def circle_solver(circle_grid):
    return sv.SlenderBodySolver(circle_grid, "split")


def exterior_points(spec, count=8, seed=3):
    rng = np.random.default_rng(seed)
    pts = []
    for i in range(count):
        s0 = i / count
        x0 = spec.centerline.position(np.array([s0]))[0]
        _, e_n1, e_n2, _, _ = spec.frame_at(np.array([s0]))
        ang = 2 * np.pi * rng.random()
        dist = spec.epsilon * (5.0 + 3.0 * rng.random())
        pts.append(x0 + dist * (np.cos(ang) * e_n1[0] + np.sin(ang) * e_n2[0]))
    return np.array(pts)


def test_round_trip(circle_solver, circle_grid):
    v = GridFunction(np.cos(2 * np.pi * circle_grid.s_nodes))
    f = circle_solver.dtn(v).f
    back = circle_solver.ntd(f).v
    rel = np.max(np.abs(back.values - v.values)) / np.max(np.abs(v.values))
    assert rel <= 1e-6


def test_ntd_linearity(circle_solver, circle_grid):
    s = circle_grid.s_nodes
    f1 = GridFunction(np.cos(2 * np.pi * s))
    f2 = GridFunction(np.sin(4 * np.pi * s))
    lhs = circle_solver.ntd(GridFunction(2 * f1.values - f2.values)).v.values
    rhs = 2 * circle_solver.ntd(f1).v.values - circle_solver.ntd(f2).v.values
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_constant_dirichlet_symmetry(circle_solver, circle_grid):
    # v = 1 on the circle: f constant by rotational symmetry
    res = circle_solver.dtn(GridFunction(np.ones(circle_grid.n_s)))
    f = res.f.values
    assert np.max(np.abs(f - np.mean(f))) <= 1e-8 * max(1.0, abs(np.mean(f)))


def test_rotation_equivariance(circle_solver, circle_grid):
    s = circle_grid.s_nodes
    f = GridFunction(np.cos(2 * np.pi * s) + 0.4 * np.sin(4 * np.pi * s))
    v = circle_solver.ntd(f).v.values
    shift = 16
    f_rot = GridFunction(np.roll(f.values, shift))
    v_rot = circle_solver.ntd(f_rot).v.values
    assert np.max(np.abs(v_rot - np.roll(v, shift))) < 1e-9


def test_constraint_consistency(circle_solver, circle_grid):
    # int w J dtheta = f at every s-node, to solver tolerance
    f = GridFunction(np.cos(2 * np.pi * circle_grid.s_nodes))
    res = circle_solver.ntd(f)
    assert res.residuals["constraint_inf"] < 1e-10
    assert res.residuals["first_kind_inf"] < 1e-10


def test_ntd_amplitude_near_straight(circle_solver, circle_grid):
    # f = cos(2 pi s): v dominated by mode 1, amplitude within 25 percent of
    # the straight symbol m_eps(1)
    f = GridFunction(np.cos(2 * np.pi * circle_grid.s_nodes))
    v = circle_solver.ntd(f).v.values
    amp = 2.0 * np.abs(np.fft.fft(v))[1] / circle_grid.n_s
    straight = FourierSymbol("m_eps", circle_grid.epsilon).evaluate(1)
    assert abs(amp - straight) / straight < 0.25


def test_dtn_near_straight_decreasing(circle_cl, circle_frame):
    # |f - Lbar^-1 v| relative to |v|_{C^1,alpha} decreases with eps
    gaps = []
    for eps in (1.0 / 32, 1.0 / 64, 1.0 / 128):
        spec = geo.SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                               epsilon=eps)
        g = make_grid(spec, 128, 16)
        solver = sv.SlenderBodySolver(g, "split")
        v = GridFunction(np.cos(2 * np.pi * g.s_nodes))
        gap = np.max(np.abs(solver.dtn(v).f.values
                            - solver.straight_dtn(v)))
        gaps.append(gap)
    assert gaps[2] < gaps[1] < gaps[0]


def test_neumann_series_agrees(circle_cl, circle_frame):
    spec = geo.SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                           epsilon=1.0 / 128.0)
    g = make_grid(spec, 128, 16)
    solver = sv.SlenderBodySolver(g, "split")
    f = GridFunction(np.cos(2 * np.pi * g.s_nodes))
    v_direct = solver.ntd(f).v.values
    v_iter, history = solver.neumann_series_ntd(f)
    assert np.max(np.abs(v_iter.values - v_direct)) <= 1e-4
    # the iteration contracts
    assert history[-1] < history[0]


@pytest.mark.parametrize("method", ["dtn", "ntd", "neumann_series_ntd"])
def test_bad_data_is_a_clear_error(method, circle_solver, circle_grid):
    run = getattr(circle_solver, method)
    for wrong in (np.ones(10), np.ones((circle_grid.n_s, 1))):
        with pytest.raises(ValueError, match=r"!= \(n_s,\) = \(128,\)"):
            run(wrong)
    for bad in (np.nan, np.inf, -np.inf):
        data = np.cos(2 * np.pi * circle_grid.s_nodes)
        data[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            run(data)


def test_arrays_and_grid_functions_give_identical_results(circle_grid_small):
    """numpy reads a GridFunction as its values: every function that takes
    data gives bit-identical results for an array and its GridFunction."""
    g = circle_grid_small
    slv = sv.SlenderBodySolver(g, "split")
    v = np.cos(2 * np.pi * g.s_nodes)
    surf = np.outer(v, 1.0 + 0.5 * np.cos(g.theta_nodes))
    pts = exterior_points(g.spec)
    pairs = [(v, GridFunction(v)), (surf, GridFunction(surf))]
    for run in (slv.dtn, slv.ntd):
        a, b = (run(x) for x in pairs[0])
        assert all(np.array_equal(getattr(a, k).values, getattr(b, k).values)
                   for k in "vwf") and a.residuals == b.residuals
    (va, ha), (vb, hb) = (slv.neumann_series_ntd(x) for x in pairs[0])
    assert np.array_equal(va.values, vb.values) and ha == hb
    for fn in (slv.straight_dtn, slv.straight_ntd):
        assert np.array_equal(*(fn(x) for x in pairs[0]))
    for x, gx in pairs:
        assert gr.holder_norm(x, 0.25, g.epsilon) \
            == gr.holder_norm(gx, 0.25, g.epsilon)
        assert gr.holder_seminorm(x, 0.25, g.epsilon) \
            == gr.holder_seminorm(gx, 0.25, g.epsilon)
    ra, rb = (an.decompose_dtn(g, x, solver=slv) for x in pairs[0])
    assert np.array_equal(ra["f_sum"], rb["f_sum"])
    assert ra["term_norms"] == rb["term_norms"]
    (ua, ia), (ub, ib) = (sv.solve_exterior_dirichlet(g, x, pts, "split")
                          for x in pairs[1])
    assert np.array_equal(ua, ub) and np.array_equal(ia["phi"], ib["phi"])
    assert np.array_equal(*(sv.green_representation_eval(g, pts, x, x)
                            for x in pairs[1]))
    assert np.array_equal(*(np.stack(op.apply_pair(g, "direct", x, x))
                            for x in pairs[1]))
    assert np.array_equal(*(op.apply_pairs(g, "RS1", x) for x in pairs[1]))


def test_neumann_series_needs_zero_mean(circle_solver, circle_grid):
    with pytest.raises(sv.SolveError):
        circle_solver.neumann_series_ntd(
            GridFunction(np.ones(circle_grid.n_s)))


def test_greens_identity_ladder_split(circle_cl, circle_frame):
    spec = geo.SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                           epsilon=1.0 / 64.0)
    resids, order = sv.greens_ladder(spec, [(1.0, 0.0)], [64, 128], 16,
                                     "split")
    assert resids[1] < resids[0]
    assert order >= 1.0


@pytest.mark.parametrize("preset", ["perturbed_circle", "trefoil"])
def test_greens_identity_ladder_direct_curved(preset):
    """The direct backend's third order holds off the circle: on the
    perturbed circle and on the twisted trefoil (k3 = 2.23), eps 1/64,
    orders 3.28 and 3.34, residuals at 256x16 1.61e-3 and 1.38e-3."""
    cl = geo.build_centerline({"preset": preset})
    frame = geo.build_frame(cl, 128)
    assert (abs(frame.kappa3) > 2.0) == (preset == "trefoil")
    spec = geo.SurfaceSpec(centerline=cl, frame=frame, epsilon=1.0 / 64.0)
    resids, order = sv.greens_ladder(spec, [(1.0, 0.0)], [64, 128, 256], 16,
                                     "direct")
    assert order >= 3.0, order
    assert resids[-1] <= 2e-3, resids


def test_greens_ladder_makes_its_grids_through_the_grid_module(
        circle_spec64, monkeypatch):
    """greens_ladder looks make_grid up on slenderlap.grid at call time, so a
    wrapper there (the benchmark tracer's) sees every rung."""
    from slenderlap import grid as gr
    rungs, make_grid_ = [], gr.make_grid

    def recording(spec, n_s, n_theta):
        rungs.append((n_s, n_theta))
        return make_grid_(spec, n_s, n_theta)

    monkeypatch.setattr(gr, "make_grid", recording)
    sv.greens_ladder(circle_spec64, [(1.0, 0.0)], [32, 64, 128], 8, "split")
    assert rungs == [(32, 8), (64, 8), (128, 8)]


@pytest.mark.parametrize("ladder", [[64], [64, 64], [64, 100]])
def test_greens_ladder_rejects_bad_ladders(circle_spec64, ladder, monkeypatch):
    # rejected before any rung is solved
    monkeypatch.setattr(sv, "greens_identity_residual", None)
    with pytest.raises(ValueError, match="2 distinct|powers of two"):
        sv.greens_ladder(circle_spec64, [(1.0, 0.0)], ladder, 8)


def test_greens_zero_charges(circle_grid):
    resid, scale = sv.greens_identity_residual(circle_grid, [])
    assert resid == 0.0


def test_greens_two_opposite_charges(circle_cl, circle_frame):
    spec = geo.SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                           epsilon=1.0 / 64.0)
    charges = [(1.0, 0.0), (-1.0, 0.5)]
    resids, order = sv.greens_ladder(spec, charges, [64, 128], 16, "split")
    assert order >= 1.0


def test_exterior_manufactured(circle_grid):
    charges = [(1.0, 0.0)]
    v_exact, w_exact = sv.point_charge_data(circle_grid, charges)
    pts = exterior_points(circle_grid.spec)
    u_ref = sv.exact_point_charge_potential(circle_grid, pts, charges)
    u_dp, info = sv.solve_exterior_dirichlet(circle_grid, v_exact, pts,
                                             backend="split")
    assert np.max(np.abs(u_dp - u_ref)) <= 1e-3
    u_green = sv.green_representation_eval(circle_grid, pts, v_exact, w_exact)
    assert np.max(np.abs(u_green - u_ref)) <= 1e-3
    assert np.max(np.abs(u_green - u_dp)) <= 1e-3
    assert np.isfinite(info["cond_Dprime"])


def test_exterior_solve_holds_one_dense_matrix(circle_grid):
    # D' takes its correction in row chunks, and 1/2 I + D' is factored in
    # the same array, so the solve holds one N x N array (1.22 measured at
    # 128x16)
    v, _ = sv.point_charge_data(circle_grid, [(1.0, 0.0)])
    pts = exterior_points(circle_grid.spec)
    tracemalloc.start()
    try:
        sv.solve_exterior_dirichlet(circle_grid, v, pts, backend="split")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * circle_grid.n_nodes ** 2 * 8


def test_exterior_manufactured_improves(circle_cl, circle_frame):
    spec = geo.SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                           epsilon=1.0 / 64.0)
    errs = []
    charges = [(1.0, 0.0)]
    pts = exterior_points(spec)
    for n_s in (64, 128):
        g = make_grid(spec, n_s, 16)
        v_exact, _ = sv.point_charge_data(g, charges)
        u_ref = sv.exact_point_charge_potential(g, pts, charges)
        u_dp, _ = sv.solve_exterior_dirichlet(g, v_exact, pts, backend="split")
        errs.append(np.max(np.abs(u_dp - u_ref)))
    assert errs[1] < errs[0]


def test_exterior_two_routes_solved_w(circle_grid, circle_solver):
    """Green representation with w from the solver's dtn vs the D'-route.

    The solved w carries the theta-resolution error of the first-kind
    system (~2 percent at n_theta = 16), so the routes agree at that level,
    improving under refinement; see test above for the manufactured-data
    1e-3 agreement.
    """
    pts = exterior_points(circle_grid.spec)
    v_s = GridFunction(1.0 + 0.3 * np.cos(2 * np.pi * circle_grid.s_nodes))
    res = circle_solver.dtn(v_s)
    v_surf = np.repeat(v_s.values[:, None], circle_grid.n_theta, axis=1)
    u_green = sv.green_representation_eval(circle_grid, pts, v_surf, res.w)
    u_dp, _ = sv.solve_exterior_dirichlet(circle_grid, v_surf, pts,
                                          backend="split")
    assert np.max(np.abs(u_green - u_dp)) <= 3e-2


def test_exterior_far_field_decay(circle_grid):
    ones = GridFunction(np.ones((circle_grid.n_s, circle_grid.n_theta)))
    far = np.array([[3.0, 0.0, 0.0], [6.0, 0.0, 0.0]])
    u, _ = sv.solve_exterior_dirichlet(circle_grid, ones, far, backend="split")
    assert abs(u[0] / u[1] - 2.0) < 0.05


def test_exterior_point_too_close(circle_grid):
    ones = GridFunction(np.ones((circle_grid.n_s, circle_grid.n_theta)))
    x0 = circle_grid.spec.centerline.position(np.array([0.0]))[0]
    _, e_n1, _, _, _ = circle_grid.spec.frame_at(np.array([0.0]))
    close = x0 + 2.0 * circle_grid.epsilon * e_n1[0]
    with pytest.raises(sv.SolveError):
        sv.solve_exterior_dirichlet(circle_grid, ones, close[None, :])


@pytest.mark.parametrize("clearance, message", [
    (0.5, "not strictly exterior"), (2.5, "closer than 2 eps")])
def test_exterior_clearance_is_to_the_whole_centerline(clearance, message,
                                                      monkeypatch):
    """At eps 1/256 on a 32x4 grid the centerline nodes lie 1/32 = 8 eps
    apart, so a point 0.5 eps from X(1/64), inside the tube, is 4.03 eps
    from its nearest node.  The clearance is taken to the whole curve, and
    both points are refused before D' is assembled."""
    spec = geo.surface_specs({"preset": "circle"}, [1.0 / 256.0])[0]
    grid = make_grid(spec, 32, 4)
    s0 = np.array([1.0 / 64.0])
    _, e_n1, _, _, _ = spec.frame_at(s0)
    p = spec.centerline.position(s0) + clearance * spec.epsilon * e_n1
    assert np.min(np.linalg.norm(p - grid.X, axis=1)) > 4.0 * spec.epsilon
    monkeypatch.setattr(sv, "assemble_Dprime", None)
    with pytest.raises(sv.SolveError, match=message):
        sv.solve_exterior_dirichlet(grid, np.ones(grid.n_nodes), p)


def test_centerline_distance_bound(circle_cl):
    """Below the true distance to the circle, by at most the samples'
    half-spacing and their chord sag."""
    r = 1.0 / (2.0 * math.pi)
    ang = np.linspace(0.0, 2.0 * math.pi, 13)
    rad = np.array([0.0, 0.3 * r, 0.9 * r, 1.1 * r, 3.0 * r])
    pts = np.array([[q * math.cos(a), q * math.sin(a), z]
                    for q in rad for a in ang for z in (0.0, 0.01)])
    exact = np.hypot(np.hypot(pts[:, 0], pts[:, 1]) - r, pts[:, 2])
    bound = circle_cl.distance_bound(pts)
    half = 0.5 / circle_cl.N_FINE
    assert np.all(bound <= exact)
    assert np.all(bound >= exact - half - 1e-12)


def _bad_exterior_input(grid):
    v, pts = np.ones((grid.n_s, grid.n_theta)), exterior_points(grid.spec)
    nan_pts, nan_v = pts.copy(), v.copy()
    nan_pts[2, 1] = nan_v[5, 3] = np.nan
    return {"nan point": (v, nan_pts, "eval_points holds non-finite"),
            "2-D points": (v, pts[:, :2], r"eval_points shape \(8, 2\) != "
                                          r"\(m, 3\) = \(8, 3\)"),
            "v of length n_s": (np.ones(grid.n_s), pts,
                                r"v_surface shape \(64,\) != "),
            "v of length N + 1": (np.ones(grid.n_nodes + 1), pts,
                                  r"v_surface shape \(513,\) != \(n_s, "
                                  r"n_theta\) = \(64, 8\) or \(N,\) = "
                                  r"\(512,\)"),
            "nan in v": (nan_v, pts, "v_surface holds non-finite")}


@pytest.mark.parametrize("case", ["nan point", "2-D points", "v of length n_s",
                                  "v of length N + 1", "nan in v"])
def test_exterior_refuses_bad_input_before_assembly(case, circle_grid_small,
                                                    monkeypatch):
    """A NaN point passes both clearance checks (its distance is NaN), and
    a v of the wrong length used to fail only in lu_solve, after the N x N
    assembly and LU: both arrays are checked before D' is assembled."""
    v, pts, message = _bad_exterior_input(circle_grid_small)[case]
    monkeypatch.setattr(sv, "assemble_Dprime", None)
    with pytest.raises(ValueError, match=message):
        sv.solve_exterior_dirichlet(circle_grid_small, v, pts, "split")


def test_solvability_and_conditioning(circle_solver):
    assert np.isfinite(circle_solver.cond_S)
    assert circle_solver.cond_S < 1e10


# the DtN-matrix solves against the augmented system -------------------------

def _fresh_solver(grid):
    return sv.SlenderBodySolver(grid, "split")


@pytest.fixture(scope="module")
def oracle_grids(perturbed_grid_small, trefoil_grid):
    return {"perturbed_circle": perturbed_grid_small, "trefoil": trefoil_grid}


def _augmented_solve(solver, f):
    """(w, v) from [[S, -(1/2 E - D E)], [Q, 0]] (w, v) = (0, f), built whole
    from assemble_S's S_h and assemble_D's D_h, not from the solver's B."""
    grid = solver.grid
    s_h, d_h = (op.assemble_S(grid, solver.backend),
                op.assemble_D(grid, solver.backend))
    n, n_s, n_t = grid.n_nodes, grid.n_s, grid.n_theta
    e = np.kron(np.eye(n_s), np.ones((n_t, 1)))
    q = (np.kron(np.eye(n_s), np.ones((1, n_t)))
         * grid.jacobian.reshape(-1) * (2.0 * math.pi / n_t))
    a = np.zeros((n + n_s, n + n_s))
    a[:n, :n] = s_h
    a[:n, n:] = -(0.5 * e - d_h @ e)
    a[n:, :n] = q
    sol = np.linalg.solve(a, np.concatenate([np.zeros(n), f]))
    return sol[:n], sol[n:]


def _rel(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["perturbed_circle", "trefoil"])
def test_dtn_matrix_solves_match_augmented_system(name, oracle_grids):
    grid = oracle_grids[name]
    solver = _fresh_solver(grid)
    s = grid.s_nodes
    f = np.cos(2 * np.pi * s) + 0.3 * np.sin(6 * np.pi * s) + 0.2
    w_ref, v_ref = _augmented_solve(solver, f)
    res = solver.ntd(GridFunction(f))
    assert _rel(res.v.values, v_ref) <= 1e-12
    assert _rel(res.w.values.reshape(-1), w_ref) <= 1e-12
    # dtn inverts it: the augmented (w, v) pair maps v back to f
    back = solver.dtn(GridFunction(v_ref))
    assert _rel(back.f.values, f) <= 1e-12
    assert _rel(back.w.values.reshape(-1), w_ref) <= 1e-12


def test_dtn_matrix_maps_ntd_back(oracle_grids):
    solver = _fresh_solver(oracle_grids["perturbed_circle"])
    f = np.cos(2 * np.pi * solver.grid.s_nodes) + 0.5
    res = solver.ntd(GridFunction(f))
    assert solver.dtn_matrix.shape == (solver.grid.n_s,) * 2
    assert _rel(solver.dtn_matrix @ res.v.values, f) <= 1e-12
    assert set(res.conditioning) == {"cond_S", "cond_dtn"}
    assert 1.0 <= res.conditioning["cond_dtn"] < sv.COND_LIMIT


def test_ntd_refuses_ill_conditioned_dtn_matrix(oracle_grids, monkeypatch):
    grid = oracle_grids["perturbed_circle"]
    solver = _fresh_solver(grid)
    estimate = sv._cond_estimate

    def huge_for_dtn(factor, n):
        return math.inf if n == grid.n_s else estimate(factor, n)

    monkeypatch.setattr(sv, "_cond_estimate", huge_for_dtn)
    v = GridFunction(np.cos(2 * np.pi * grid.s_nodes))
    f = solver.dtn(v).f      # the first-kind guard alone still passes
    with pytest.raises(sv.SolveError, match="DtN matrix"):
        solver.ntd(f)


def test_dtn_refuses_ill_conditioned_first_kind_system(oracle_grids,
                                                       monkeypatch):
    grid = oracle_grids["perturbed_circle"]
    solver = _fresh_solver(grid)
    estimate = sv._cond_estimate

    def huge_for_s(factor, n):
        return math.inf if n == grid.n_nodes else estimate(factor, n)

    monkeypatch.setattr(sv, "_cond_estimate", huge_for_s)
    with pytest.raises(sv.SolveError,
                       match=r"first-kind system \(n_s=64, n_theta=8, "):
        solver.dtn(np.cos(2 * np.pi * grid.s_nodes))


def test_exterior_refuses_ill_conditioned_second_kind_system(
        circle_grid_small, monkeypatch):
    grid = circle_grid_small
    monkeypatch.setattr(sv, "_cond_estimate", lambda factor, n: math.inf)
    v = np.ones((grid.n_s, grid.n_theta))
    with pytest.raises(sv.SolveError, match="second-kind system"):
        sv.solve_exterior_dirichlet(grid, v, exterior_points(grid.spec))


def test_neumann_series_builds_straight_tables_once(oracle_grids):
    solver = _fresh_solver(oracle_grids["perturbed_circle"])
    f = GridFunction(np.cos(2 * np.pi * solver.grid.s_nodes))
    spectral._table.cache_clear()
    solver.neumann_series_ntd(f)
    solver.neumann_series_ntd(f)
    # m_eps and m_eps_inv, each built once for all sweeps of both series
    info = spectral._table.cache_info()
    assert info.misses == 2 and info.hits > 2
    tab = FourierSymbol("m_eps", solver.grid.epsilon).table(solver.grid.n_s)
    with pytest.raises(ValueError, match="read-only"):
        tab[1] = 0.0


def test_round_trip_and_residuals_on_the_twisted_trefoil(trefoil_grid):
    """The circle's round-trip and residual checks on a twisted frame (k3 ~ 2.2)."""
    solver = _fresh_solver(trefoil_grid)
    v = GridFunction(np.cos(2 * np.pi * trefoil_grid.s_nodes))
    res = solver.dtn(v)
    assert res.residuals["first_kind_inf"] < 1e-10
    back = solver.ntd(res.f)
    assert _rel(back.v.values, v.values) <= 1e-6
    assert back.residuals["constraint_inf"] < 1e-10
    assert back.residuals["first_kind_inf"] < 1e-10
    assert np.isfinite(solver.cond_S) and solver.cond_S < 1e10


def test_neumann_series_divergence_is_an_error(trefoil_grid):
    # the straight-map iteration diverges on the trefoil at eps 1/64: it must
    # say so, with the growth ratio, as soon as an increment grows (sweep 2
    # for cos data, sweep 7 for sin(6 pi s)), not return the diverged iterate
    solver = _fresh_solver(trefoil_grid)
    s = trefoil_grid.s_nodes
    for f, sweep in ((np.cos(2 * np.pi * s), 2), (np.sin(6 * np.pi * s), 7)):
        with pytest.raises(sv.SolveError, match=rf"diverges: increment grew "
                                                rf"by 1\.\d+ at sweep {sweep}$"):
            solver.neumann_series_ntd(GridFunction(f))


@pytest.mark.parametrize("eps,sweeps", [(1.0 / 128.0, 219), (1.0 / 256.0, 55)])
def test_neumann_series_converges_slowly_on_the_trefoil(eps, sweeps):
    """Contraction ratios 0.886 (eps 1/128) and 0.607 (1/256) on the trefoil:
    the series runs as long as each increment shrinks."""
    cl = geo.build_centerline({"preset": "trefoil"})
    spec = geo.SurfaceSpec(centerline=cl, frame=geo.build_frame(cl, 128),
                           epsilon=eps)
    solver = _fresh_solver(make_grid(spec, 64, 8))
    f = GridFunction(np.cos(2 * np.pi * solver.grid.s_nodes))
    v, history = solver.neumann_series_ntd(f)
    assert abs(len(history) - sweeps) <= 2  # past the old 40-sweep cap
    assert all(b < a for a, b in zip(history, history[1:]))
    # the series solves P0 L^-1 v = f for zero-mean v: ntd(f) minus the
    # multiple of ntd(1) that makes its mean zero
    u = solver.ntd(GridFunction(np.ones(solver.grid.n_s))).v.values
    v_ref = solver.ntd(f).v.values
    v_ref = v_ref - np.mean(v_ref) / np.mean(u) * u
    assert _rel(v.values, v_ref) <= 1e-10


def _neumann_series_by_dtn(solver, f):
    """The series with each sweep's R_d v from a full dtn(v): the oracle of
    neumann_series_ntd, which takes it from the cached DtN matrix."""
    v = base = solver.straight_ntd(f)
    history = []
    for _ in range(sv.NEUMANN_MAX_ITER):
        rd = solver.dtn(v).f.values - solver.straight_dtn(v)
        v_new = base - solver.straight_ntd(rd - np.mean(rd))
        history.append(float(np.max(np.abs(v_new - v))))
        v = v_new
        if history[-1] < sv.NEUMANN_TOL * max(1.0, float(np.max(np.abs(v)))):
            return v, history
    raise AssertionError("the dtn-route series did not converge")


@pytest.mark.parametrize("preset,eps,n_s,n_theta",
                         [("perturbed_circle", 1.0 / 64.0, 128, 16),
                          ("trefoil", 1.0 / 128.0, 64, 8)])
def test_neumann_series_matches_the_dtn_route(preset, eps, n_s, n_theta):
    """Same sweep count and v within 1e-14 as the series through dtn()."""
    cl = geo.build_centerline({"preset": preset})
    spec = geo.SurfaceSpec(centerline=cl, frame=geo.build_frame(cl, 128),
                           epsilon=eps)
    solver = _fresh_solver(make_grid(spec, n_s, n_theta))
    s = solver.grid.s_nodes
    f = np.cos(2 * np.pi * s) + 0.3 * np.sin(6 * np.pi * s)
    v_ref, h_ref = _neumann_series_by_dtn(solver, f)
    v, history = solver.neumann_series_ntd(f)
    assert len(history) == len(h_ref)
    assert _rel(v.values, v_ref) <= 1e-14
    assert np.allclose(history, h_ref, rtol=1e-6, atol=1e-14)


@pytest.mark.parametrize("backend", ["direct", "split"])
def test_split_pair_takes_one_pair_sweep(backend, circle_grid_small,
                                         monkeypatch):
    """S_h and D_h of either backend share one pass over the N rows."""
    rows = []
    fields = PairGeometry.fields

    def counted(self, lo, hi, *args, **kwargs):
        rows.append(hi - lo)
        return fields(self, lo, hi, *args, **kwargs)

    monkeypatch.setattr(PairGeometry, "fields", counted)
    n = circle_grid_small.n_nodes
    solver = sv.SlenderBodySolver(circle_grid_small, backend)
    assert sum(rows) == n
    assert solver.backend == backend
    rows.clear()
    sv.greens_identity_residual(circle_grid_small, [(1.0, 0.0)], backend)
    assert sum(rows) == n


def _gecon_cond(mat):
    """1/rcond of LAPACK gecon on lu_factor(mat): the oracle of
    _cond_estimate."""
    gecon = get_lapack_funcs("gecon", (mat,))
    rcond, _ = gecon(lu_factor(mat)[0], np.linalg.norm(mat, 1), norm="1")
    return 1.0 / rcond


def test_cond_estimate_one_norm_is_exact_and_small(circle_solver,
                                                   circle_grid):
    """On an LU of S_h and on its first-kind factor, the estimate agrees with
    gecon's on lu_factor(S_h), with ||S_h||_1 of either factor exact to
    roundoff, and it allocates far less than one N x N array.  S_h is
    assembled again, and _lu factors a copy: both factor in place."""
    mat = op.assemble_S(circle_grid, "split")
    ref = _gecon_cond(mat)
    factors = {"lu": sv._lu(mat.copy()), "cholesky": circle_solver.lu_S}
    norm = np.linalg.norm(mat, 1)
    for name, factor in factors.items():
        assert abs(factor.anorm / norm - 1.0) <= 1e-14, name
    n = mat.shape[0]
    for name, factor in factors.items():
        assert abs(sv._cond_estimate(factor, n) / ref - 1.0) <= 1e-10, name
        tracemalloc.start()
        try:
            sv._cond_estimate(factor, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 8, (name, peak)


# the factorization: in the array that holds the matrix, through its Fortran
# view ----------------------------------------------------------------------

def test_lu_is_lu_factor_bit_for_bit(perturbed_grid_small):
    """_lu(a) is lu_factor(a.T), the LU of a^T, bit for bit, made in a's
    own memory, on the three systems the solver factors (split S_h, Lambda,
    1/2 I + D') and a seeded matrix; its solve is a's."""
    grid = perturbed_grid_small
    solver = _fresh_solver(grid)
    dprime = op.assemble_Dprime(grid, "split")
    dprime.flat[::grid.n_nodes + 1] += 0.5
    mats = {"S_h": op.assemble_S(grid, "split"),
            "Lambda": solver.dtn_matrix.copy(), "Dprime": dprime}
    # 1000 rows are not a whole number of LU_COPY_ROWS slabs
    assert 1000 % sv.LU_COPY_ROWS
    mats["seeded"] = np.random.default_rng(19).standard_normal((1000, 1000))
    for name, mat in mats.items():
        ref_lu, ref_piv = lu_factor(mat.T)
        before = mat.copy()
        factor = sv._lu(mat)
        assert np.array_equal(factor.lu, ref_lu), name
        assert np.array_equal(factor.piv, ref_piv), name
        assert np.shares_memory(factor.lu, mat), name
        assert abs(factor.anorm / np.linalg.norm(before, 1) - 1.0) <= 1e-14
        x = np.linspace(-1.0, 1.0, len(mat))
        for trans, m in ((0, before), (1, before.T)):
            assert _rel(m @ factor.solve(x, trans), x) <= 1e-10, (name, trans)


def test_lu_refuses_a_non_finite_matrix():
    """The finiteness check lu_factor made is _lu's slab pass's now: the
    same one-line message."""
    mat = np.eye(70)
    mat[66, 3] = np.nan
    with pytest.raises(ValueError) as err:
        sv._lu(mat)
    assert str(err.value) == "array must not contain infs or NaNs"


def test_every_factorization_overwrites_the_fortran_view_of_its_array(
        perturbed_grid_small, monkeypatch):
    """Every lu_factor or dpotrf call is handed the F-contiguous view of a
    C-order float64 array to overwrite, so f2py copies nothing: S_h's own
    array (dpotrf), the copy of Lambda that ntd factors and 1/2 I + D' of
    the exterior solve."""
    seen, potrf_args = [], []

    def spy(a, **kwargs):
        out = lu_factor(a, **kwargs)
        seen.append((a, kwargs, out[0]))
        return out

    lapack = sv.get_lapack_funcs

    def lapack_spy(names, arrays):
        funcs = lapack(names, arrays)
        if names != ("potrf", "potrs"):
            return funcs

        def potrf(a, **kwargs):
            potrf_args.append((a, kwargs))
            return funcs[0](a, **kwargs)

        return potrf, funcs[1]

    def fortran_view_overwritten(a, kwargs, n):
        return (a.flags.f_contiguous and a.dtype == np.float64
                and a.base is not None and a.base.shape == (n, n)
                and a.base.flags.c_contiguous and kwargs["overwrite_a"])

    monkeypatch.setattr(sv, "lu_factor", spy)
    monkeypatch.setattr(sv, "get_lapack_funcs", lapack_spy)
    grid = perturbed_grid_small
    solver = _fresh_solver(grid)
    factor = solver.lu_S
    [(a, kwargs)] = potrf_args
    assert fortran_view_overwritten(a, kwargs, grid.n_nodes)
    assert factor.m.ctypes.data == a.ctypes.data
    assert seen == []
    solver.ntd(np.cos(2 * np.pi * grid.s_nodes))
    sv.solve_exterior_dirichlet(grid, np.ones(grid.n_nodes),
                                exterior_points(grid.spec), backend="split")
    sizes = [grid.n_s, grid.n_nodes]
    assert len(seen) == len(sizes)
    for (a, kwargs, lu), n in zip(seen, sizes):
        assert fortran_view_overwritten(a, kwargs, n), n
        assert np.shares_memory(lu, a) and kwargs["check_finite"] is False, n
    assert not np.shares_memory(seen[0][0], solver.dtn_matrix)


def test_ntd_keeps_the_dtn_matrix(perturbed_grid_small):
    """ntd factors a copy of Lambda: dtn_matrix is the same after it."""
    solver = _fresh_solver(perturbed_grid_small)
    before = solver.dtn_matrix.copy()
    solver.ntd(np.cos(2 * np.pi * perturbed_grid_small.s_nodes))
    assert np.array_equal(solver.dtn_matrix, before)


def test_lu_S_refuses_a_non_finite_first_kind_matrix(perturbed_grid_small,
                                                     monkeypatch):
    """A NaN in A shows in its |A| column sums, as an assembly that made it
    returns them, and lu_S refuses those before dpotrf runs."""
    a, b, _ = op.assemble_first_kind(perturbed_grid_small, "split")
    a[5, 7] = a[7, 5] = np.nan
    bad = sv.SlenderBodySolver(perturbed_grid_small, "split",
                               operators=(a, b, np.abs(a).sum(axis=0)))
    monkeypatch.setattr(sv, "get_lapack_funcs", None)
    with pytest.raises(ValueError, match="infs or NaNs"):
        bad.lu_S


# the first-kind factor: Cholesky after the s-mean shift, or a refusal ------

def _first_kind_grid(preset, eps, n_s, n_theta):
    cl = geo.build_centerline({"preset": preset})
    spec = geo.SurfaceSpec(centerline=cl, frame=geo.build_frame(cl, 128),
                           epsilon=eps)
    return make_grid(spec, n_s, n_theta)


def _lu_solve(mat, b):
    """mat^-1 b as _lu and LU.solve make it: lu_factor(mat.T), the LU of
    mat^T, solved with trans 1."""
    return lu_solve(lu_factor(mat.T), b, trans=1)


def _lu_route(solver, mat, v, f):
    """W, Lambda, dtn(v).f, ntd(f).v and the two first-kind residuals by
    lu_factor and lu_solve of mat alone (_lu_solve): the solver's route
    before the Cholesky one."""
    g = solver.grid
    w = _lu_solve(mat, solver.B)
    lam = theta_integral(g, w, g.jacobian)
    v_f = _lu_solve(lam, f)
    resid = [float(np.max(np.abs(mat @ (w @ x) - solver.B @ x)))
             for x in (v, v_f)]
    return w, lam, theta_integral(g, w @ v, g.jacobian), v_f, resid


def _solver_route(solver):
    """(W, Lambda, dtn(v).f, ntd(f).v, the residuals) of the solver, v, f)."""
    s = solver.grid.s_nodes
    v = np.cos(2 * np.pi * s) + 0.3 * np.sin(6 * np.pi * s)
    f = np.cos(2 * np.pi * s) + 0.2
    res, back = solver.dtn(v), solver.ntd(f)
    return (solver._densities(), solver.dtn_matrix, res.f.values, back.v.values,
            [res.residuals["first_kind_inf"],
             back.residuals["first_kind_inf"]]), v, f


@pytest.mark.parametrize("n_s,n_theta", [(64, 8), (128, 16)])
@pytest.mark.parametrize("backend", ["direct", "split"])
@pytest.mark.parametrize("preset", ["circle", "perturbed_circle", "trefoil"])
def test_cholesky_route_matches_the_lu_route(preset, backend, n_s, n_theta):
    """At eps 1/64 the shifted A factors by dpotrf: W, Lambda, dtn().f and
    ntd().v within 1e-12 of the LU route, the first-kind residual at most
    twice its, and cond_S within 1e-10 of gecon's.  perturbed_circle-split
    at 128x16 is the Neumann-series bench's geometry (rhs-128).  The
    solver factors the assembled A in place; S_h = A diag(J), taken
    before, is the oracle."""
    grid = _first_kind_grid(preset, 1.0 / 64.0, n_s, n_theta)
    a, b, col = op.assemble_first_kind(grid, backend)
    s_h = a * grid.flat_jacobian()
    solver = sv.SlenderBodySolver(grid, backend, operators=(a, b, col))
    assert isinstance(solver.lu_S, sv.ShiftedCholesky)
    got, v, f = _solver_route(solver)
    ref = _lu_route(solver, s_h, v, f)
    for name, x, y in zip(("W", "Lambda", "dtn f", "ntd v"), got, ref):
        assert _rel(x, y) <= 1e-12, name
    # the residual of the whole solve S_h W = B: the per-call residuals
    # first_kind_inf are 1-4 ulps of B v on both routes, too few to compare
    r_chol, r_lu = (np.max(np.abs(s_h @ w - b)) for w in (got[0], ref[0]))
    assert r_chol <= 2.0 * r_lu, (r_chol, r_lu)
    assert abs(solver.cond_S / _gecon_cond(s_h) - 1.0) <= 1e-10


# h_s/(eps h_theta) and eps kappa_* of each refused 64x8 grid
REFUSED_GRIDS = {"circle": ("0.32", "0.393"),
                 "perturbed_circle": ("5.09", "0.043")}


@pytest.mark.parametrize("preset,eps,backend",
                         [("circle", 1.0 / 16.0, "split"),
                          ("perturbed_circle", 1.0 / 256.0, "direct")])
def test_indefinite_shift_is_refused(preset, eps, backend, monkeypatch):
    """dpotrf stops at minor 31 (circle, eps 1/16, split) or 2 (perturbed
    circle, eps 1/256, direct): the grid does not resolve the tube, and
    every solve raises one line naming the grid, h_s/(eps h_theta) and
    eps kappa_*.  dpotrf has overwritten S_h's array by then, so it runs
    once: a later dtn, ntd, cond_S or apply_S raises the same error."""
    grid = _first_kind_grid(preset, eps, 64, 8)
    lapack = sv.get_lapack_funcs
    infos = []

    def lapack_spy(names, arrays):
        funcs = lapack(names, arrays)
        if names != ("potrf", "potrs"):
            return funcs

        def potrf(a, **kwargs):
            c, info = funcs[0](a, **kwargs)
            infos.append(info)
            return c, info

        return potrf, funcs[1]

    monkeypatch.setattr(sv, "get_lapack_funcs", lapack_spy)
    solver = sv.SlenderBodySolver(grid, backend)
    data = np.cos(2 * np.pi * grid.s_nodes)
    aspect, eps_kappa = REFUSED_GRIDS[preset]
    refusal = (f"first-kind system indefinite on the 64 x 8 grid "
               f"(h_s/(eps h_theta) = {aspect}, eps kappa_* = {eps_kappa}): "
               f"use a finer grid or a smaller eps")
    for call in (lambda: solver.dtn(data), lambda: solver.ntd(data),
                 lambda: solver.cond_S,
                 lambda: solver.apply_S(np.ones(grid.n_nodes))):
        with pytest.raises(sv.SolveError) as err:
            call()
        assert str(err.value) == refusal and "\n" not in str(err.value)
    assert infos == [31 if preset == "circle" else 2]


def test_operators_must_fit_the_grid(perturbed_grid_small, circle_grid,
                                     circle_spec64, monkeypatch):
    """Operators (A, B, |A| column sums) of another grid, of the wrong
    shapes, or the (A, B) pair of the old contract, or any on a grid past
    DENSE_NODE_CAP, are refused before any factorization."""
    monkeypatch.setattr(sv, "_lu", None)
    monkeypatch.setattr(sv, "_shifted_cholesky", None)
    a, b, col = op.assemble_first_kind(perturbed_grid_small, "split")
    for grid, ops in ((circle_grid, (a, b, col)),
                      (perturbed_grid_small, (a, b.T, col)),
                      (perturbed_grid_small, (a[:, :-1], b, col)),
                      (perturbed_grid_small, (a, b, col[:-1])),
                      (perturbed_grid_small, (a, b))):
        n, n_s = grid.n_nodes, grid.n_s
        with pytest.raises(ValueError, match=rf"\(N, N\) = \({n}, {n}\), "
                                             rf"\(N, n_s\) = \({n}, {n_s}\) "
                                             rf"and \(N,\) = \({n},\)"):
            sv.SlenderBodySolver(grid, "split", operators=ops)
    big = make_grid(circle_spec64, 512, 16)
    n = big.n_nodes
    assert n > op.DENSE_NODE_CAP
    ops = (np.broadcast_to(0.0, (n, n)), np.broadcast_to(0.0, (n, big.n_s)),
           np.broadcast_to(0.0, n))
    with pytest.raises(op.AssemblyError, match="capped at 4096 nodes"):
        sv.SlenderBodySolver(big, "split", operators=ops)


def _read_only(a):
    a.flags.writeable = False
    return a


REFUSED_A = {"read-only": _read_only, "Fortran order": np.asfortranarray,
             "float32": lambda a: a.astype(np.float32)}


@pytest.mark.parametrize("case", sorted(REFUSED_A))
def test_operators_are_taken_over(case, perturbed_grid_small):
    """The solver factors the A it is given in place, as LAPACK's
    overwrite_a: afterwards the array is the factor's.  One it could only
    copy or fail on inside LAPACK is refused by a one-line ValueError."""
    grid = perturbed_grid_small
    a, b, col = op.assemble_first_kind(grid, "split")
    with pytest.raises(ValueError, match="writeable C-contiguous float64") \
            as err:
        sv.SlenderBodySolver(grid, "split",
                             operators=(REFUSED_A[case](a.copy()), b, col))
    assert "\n" not in str(err.value), case
    solver = sv.SlenderBodySolver(grid, "split", operators=(a, b, col))
    solver.dtn(np.cos(2 * np.pi * grid.s_nodes))
    assert np.shares_memory(a, solver.lu_S.m)


def test_apply_S_is_S_h_from_the_factored_array(rng):
    """apply_S reads S_h = A diag(J) from the triangle of A that the factor
    leaves, to 1e-14 of max|S_h x| (at most 8e-16 measured), and leaves the
    array as it found it."""
    grid = _first_kind_grid("circle", 1.0 / 64.0, 64, 8)
    a, b, col = op.assemble_first_kind(grid, "split")
    s_h = a * grid.flat_jacobian()
    solver = sv.SlenderBodySolver(grid, "split", operators=(a, b, col))
    assert isinstance(solver.lu_S, sv.ShiftedCholesky)
    held = solver._a.copy()
    for x in (rng.standard_normal(grid.n_nodes), np.ones(grid.n_nodes)):
        assert _rel(solver.apply_S(x), s_h @ x) <= 1e-14
        assert np.array_equal(solver._a, held)


# structure of the discrete DtN matrix on any curve ---------------------------

def _dtn_matrices(preset, backend):
    """Lambda at eps 1/64, n_theta = 16, for n_s = 64 and 128."""
    cl = geo.build_centerline({"preset": preset})
    spec = geo.SurfaceSpec(centerline=cl, frame=geo.build_frame(cl, 128),
                           epsilon=1.0 / 64.0)
    return [sv.SlenderBodySolver(make_grid(spec, n_s, 16), backend).dtn_matrix
            for n_s in (64, 128)]


def _asymmetry(lam):
    return np.linalg.norm(lam - lam.T, 2) / np.linalg.norm(lam, 2)


@pytest.mark.parametrize("backend", ["direct", "split"])
def test_dtn_matrix_is_positive_and_nearly_symmetric(backend):
    """Lambda is symmetric positive definite up to discretization error: the
    energy identity makes the continuous DtN map so.  Its symmetric part
    stays well away from 0 (smallest eigenvalue 0.99-1.50 measured), it is
    symmetric to roundoff on the circle, and its asymmetry falls with h_s on
    the perturbed circle and the trefoil."""
    for preset in ("circle", "perturbed_circle", "trefoil"):
        mats = _dtn_matrices(preset, backend)
        for lam in mats:
            assert np.linalg.eigvalsh(0.5 * (lam + lam.T))[0] > 0.5, preset
        coarse, fine = (_asymmetry(lam) for lam in mats)
        if preset == "circle":
            assert max(coarse, fine) <= 1e-13
        else:
            assert fine < coarse, (preset, coarse, fine)


# exact invariances of the map: reversal and translation of the curve --------

IDENTITY, REVERSED = (lambda c, s: (c, s)), (lambda c, s: (c, -s))


def _translated(cos_c, sin_c):
    """The curve moved by (0.3, -0.2, 0.7): the j = 0 cosine row is its mean."""
    return cos_c + np.eye(len(cos_c), 1) * [0.3, -0.2, 0.7], sin_c


def _half_node_later(cos_c, sin_c):
    """The curve run from half an s-node later, X(t + 1/128): half a node of
    _solver_of's 64 s-nodes."""
    j = 2.0 * np.pi * np.arange(len(cos_c))[:, None] / 128.0
    return (cos_c * np.cos(j) + sin_c * np.sin(j),
            sin_c * np.cos(j) - cos_c * np.sin(j))


@functools.lru_cache(maxsize=None)
def _solver_of(preset, backend, transform):
    """A solver at 64x8, eps 1/64, on the preset's curve with its (cos, sin)
    Fourier coefficients mapped by transform; shared by the invariance
    tests."""
    cos_c, sin_c = transform(*geo.curve_from_config({"preset": preset}))
    cl = geo.build_centerline({"cos": cos_c, "sin": sin_c})
    spec = geo.SurfaceSpec(centerline=cl, frame=geo.build_frame(cl, 128),
                           epsilon=1.0 / 64.0)
    return sv.SlenderBodySolver(make_grid(spec, 64, 8), backend)


INVARIANCE_CASES = pytest.mark.parametrize(
    "preset,backend", [(p, b) for p in ("perturbed_circle", "trefoil")
                       for b in ("direct", "split")])


@INVARIANCE_CASES
def test_dtn_matrix_is_invariant_under_reversal_and_translation(preset,
                                                                backend):
    """X(t) -> X(-t) (sine rows negated) runs s backwards, so Lambda_rev[j, k]
    = Lambda[-j, -k]; a translation by (0.3, -0.2, 0.7) leaves Lambda as it
    is.  The trefoil's frame twists (k3 ~ 2.2).  Both hold to 1e-12 of
    max|Lambda| (4.4e-16 to 1.7e-14 measured)."""
    lam, rev, moved = (_solver_of(preset, backend, t).dtn_matrix
                       for t in (IDENTITY, REVERSED, _translated))
    minus = -np.arange(lam.shape[0]) % lam.shape[0]
    scale = np.max(np.abs(lam))
    assert np.max(np.abs(rev - lam[np.ix_(minus, minus)])) <= 1e-12 * scale
    assert np.max(np.abs(moved - lam)) <= 1e-12 * scale


@pytest.mark.parametrize("backend", ["direct", "split"])
def test_dtn_matrix_of_the_circle_is_invariant_under_a_half_node_shift(
        backend):
    """On the circle, starting s half a node later turns every surface node
    about the axis by the same angle, so Lambda does not change, to 1e-12
    of max|Lambda|."""
    lam, shifted = (_solver_of("circle", backend, t).dtn_matrix
                    for t in (IDENTITY, _half_node_later))
    assert np.max(np.abs(shifted - lam)) <= 1e-12 * np.max(np.abs(lam))


@INVARIANCE_CASES
def test_decomposition_is_invariant_under_reversal_and_translation(preset,
                                                                   backend):
    """Each of the six decompose_dtn terms, whose remainders apply S_h by
    apply_S, runs backwards with the curve and its data (term_rev[j] =
    term[-j] for v_rev[j] = v[-j]) and stays put under the translation, to
    1e-12 of the larger of the term's own max and max|f|.  Measured: at
    most 7.3e-13 of its own max, and 1.3e-14 of max|f|, bar the double-layer
    remainder on the perturbed circle; that term is 1e-3 of f, a difference
    of O(1) products, and moves 1.1e-11 to 3.4e-11 of its own max."""
    sol = _solver_of(preset, backend, IDENTITY)
    s = sol.grid.s_nodes
    v = 1.0 + np.cos(2 * np.pi * s) + 0.3 * np.sin(6 * np.pi * s)
    minus = -np.arange(len(s)) % len(s)
    rep, rev, moved = (
        an.decompose_dtn(x.grid, data, solver=x)
        for x, data in ((sol, v), (_solver_of(preset, backend, REVERSED),
                                   v[minus]),
                        (_solver_of(preset, backend, _translated), v)))
    rev, moved = rev["terms"], moved["terms"]
    assert len(rep["terms"]) == 6
    f_max = np.max(np.abs(rep["f_direct"]))
    for name, term in rep["terms"].items():
        scale = max(np.max(np.abs(term)), f_max)
        assert np.max(np.abs(rev[name] - term[minus])) <= 1e-12 * scale, name
        assert np.max(np.abs(moved[name] - term)) <= 1e-12 * scale, name
