r"""Decomposition verification and epsilon-scaling studies.

decompose_dtn reproduces, term by term, the representation of the slender
DtN map as a perturbation of the straight operator:

    f = Lbar^{-1}[v]
        - Sbar^{-1} P0 int R_D[v] eps dtheta
        - Sbar^{-1} P0 int R_S[P0 w] eps dtheta
        - Sbar^{-1} P0 int S[mean_s w] eps dtheta
        + intint w eps ds dtheta
        - eps^2 int w khat dtheta

where w solves the surface system S_h w = (1/2 I - D_h) E v of either
backend (split by default).  The remainders are what the straight symbols
leave of the solved operators, R_S = S_h - m_S and R_D = D_h - m_D with m_S
and m_D applied by FFT (D_h E v is v/2 - B v, B = (1/2 I - D_h) E the
solver's), and S[mean_s w] is S_h applied to the s-mean of w.  S_h is
applied by solver.apply_S, from the array its factor shares.
The terms above then rearrange exactly the matrices of the solve, so the two
routes to f(s) agree to factorization roundoff.  Sbar^{-1} is applied after
removing the k = 0 mode; the zero-mode budget is carried exactly by the last
two terms.

Each scaling study is one STUDIES entry: a measurement of a grid plus its
slope target, margin and default curve.  run_scaling_study measures it on
every rung of a geometric epsilon ladder (_ladder builds the curve and frame
once) and fits log(value) against log(eps) by least squares.  The margins
encode quadrature noise plus the grid-Hoelder estimator bias.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import geometry as geo
from .grid import holder_norm, make_grid, spectral_s_derivative
from .kernels import basic_integral
from .operators import (DENSE_NODE_CAP, AssemblyError, apply_pairs,
                        assemble_first_kind, mean_in_s_split, theta_integral)
from .solver import SlenderBodySolver
from .spectral import FourierSymbol, apply_symbol

# theta-nodes of a study grid; n_s follows eps (ScalingStudy.grid_ns)
N_THETA = 16


def decomposition_operators(grid):
    """assemble_first_kind's (A, B, |A| column sums) of the split backend,
    from one pair sweep: what SlenderBodySolver(operators=) takes."""
    return assemble_first_kind(grid, "split")


def s_inv_theta_int(grid, x):
    """Sbar^{-1} P0 int x eps dtheta (the m_S_inv table is 0 at k = 0)."""
    return apply_symbol(FourierSymbol("m_S_inv", grid.epsilon).table(grid.n_s),
                        theta_integral(grid, x, grid.epsilon))


def decompose_dtn(grid, v, alpha=0.25, solver=None):
    """Term-by-term decomposition report for Dirichlet data v(s).

    solver, if given, may hold the operators of either backend; by default a
    split-backend solver is built.
    """
    vv = np.asarray(v, float)
    if solver is None:
        solver = SlenderBodySolver(grid, "split")
    res = solver.dtn(vv)
    w = res.w.values
    f_direct = res.f.values
    tab_s, tab_d = (FourierSymbol(name, grid.epsilon).table(*w.shape)
                    for name in ("m_S", "m_D"))
    ev = np.repeat(vv, grid.n_theta)
    d_ev = 0.5 * ev - solver.B @ vv  # D_h E v
    w_p0 = w - w.mean(axis=0)
    w_mean = np.tile(w.mean(axis=0), grid.n_s)

    term_main = solver.straight_dtn(vv)
    term_rd = -s_inv_theta_int(
        grid, d_ev - apply_symbol(tab_d, ev.reshape(w.shape)).ravel())
    term_rs = -s_inv_theta_int(
        grid, solver.apply_S(w_p0.ravel()) - apply_symbol(tab_s, w_p0).ravel())
    term_mean = -s_inv_theta_int(grid, solver.apply_S(w_mean))
    term_flux = float(np.mean(theta_integral(grid, w, grid.epsilon)))
    term_curv = theta_integral(grid, w, -(grid.epsilon ** 2) * grid.khat)

    total = term_main + term_rd + term_rs + term_mean + term_flux + term_curv
    scale = float(np.max(np.abs(f_direct))) or 1.0
    mismatch = float(np.max(np.abs(total - f_direct))) / scale

    def norm_a(x):
        return holder_norm(x, alpha, grid.epsilon)

    terms = {
        "straight_dtn": (term_main, norm_a(term_main)),
        "double_layer_remainder": (term_rd, norm_a(term_rd)),
        "single_layer_remainder": (term_rs, norm_a(term_rs)),
        "mean_in_s": (term_mean, norm_a(term_mean)),
        "total_flux": (np.full(grid.n_s, term_flux), abs(term_flux)),
        "curvature_flux": (term_curv, norm_a(term_curv)),
    }
    return {
        "f_direct": f_direct,
        "f_sum": total,
        "relative_mismatch": mismatch,
        "term_norms": {k: t[1] for k, t in terms.items()},
        "terms": {k: t[0] for k, t in terms.items()},
        "alpha": alpha,
        "conditioning": res.conditioning,
    }


# scaling studies --------------------------------------------------------------

# the Hoelder exponents of the studies: C^{0,ALPHA} sizes, and C^{0,GAMMA}
# for the low-pass mean-in-s part
ALPHA = 0.25
GAMMA = 0.5
# default eps ladder per curve preset; the perturbed circle has kappa_* ~ 11,
# so its ladder starts lower to respect eps kappa_* < 1/2
LADDERS = {"circle": [2.0 ** -k for k in range(4, 8)],
           "perturbed_circle": [2.0 ** -k for k in range(5, 9)]}


class ScalingStudy(NamedTuple):
    """A STUDIES entry: the measurement (a function of the grid), the verdict
    (at-least: slope >= target - margin, two-sided: |slope - target| <=
    margin), the default curve preset, which picks the default ladder, and
    whether it solves with the dense pair (DENSE_NODE_CAP).  make_study
    fills in the id, curve, ladder and n_theta."""

    measure: Callable
    target_slope: float
    margin: float
    direction: str
    preset: str
    notes: str = ""
    solves: bool = False
    study_id: str = ""
    curve_config: dict | None = None
    epsilons: list | None = None
    n_theta: int = N_THETA

    @staticmethod
    def grid_ns(eps):
        """n_s for eps: the power of two >= max(128, 1/eps)."""
        return 1 << math.ceil(math.log2(max(128.0, 1.0 / eps)))


def fit_slope(epsilons, values):
    """Least squares on (log eps, log value); returns (slope, residual)."""
    x = np.log(np.asarray(epsilons, float))
    y = np.log(np.asarray(values, float))
    coef, res = np.polyfit(x, y, 1, full=True)[:2]
    resid = float(res[0]) if len(res) else 0.0
    return float(coef[0]), resid


def _bandlimited_density(grid):
    """A smooth surface density of sup norm 1."""
    s, th = grid.s_nodes, grid.theta_nodes
    vals = (np.cos(2 * np.pi * s)[:, None] * (1.0 + 0.5 * np.cos(th))[None, :]
            + 0.3 * np.sin(4 * np.pi * s)[:, None] * np.sin(th)[None, :])
    return vals / np.max(np.abs(vals))


def _sup_of(kernel, then=np.asarray):
    """sup |then(kernel[phi])| on the unit band-limited density phi."""
    def measure(grid):
        out = apply_pairs(grid, kernel, _bandlimited_density(grid))
        return float(np.max(np.abs(then(out))))
    return measure


def _mean_in_s_part(part, exponent):
    """Hoelder size of H_eps (part 0) or H_plus (part 1) for h = 1 + cos theta."""
    def measure(grid):
        h = mean_in_s_split(grid, 1.0 + np.cos(grid.theta_nodes))[part]
        return holder_norm(h, exponent, grid.epsilon)
    return measure


def _rs_holder_group(grid):
    """C^{0,alpha} size of (R_S2 + R_S3) on a unit-C^{0,alpha} density."""
    phi = _bandlimited_density(grid)
    out = apply_pairs(grid, "RS2+RS3", phi)
    return (holder_norm(out, ALPHA, grid.epsilon)
            / holder_norm(phi, ALPHA, grid.epsilon))


def _rd_eps_group(grid):
    """C^{0,alpha} size of the eps-tagged DtN remainder group for cos(2 pi s)."""
    v = np.cos(2 * np.pi * grid.s_nodes)
    w = SlenderBodySolver(grid, "split").dtn(v).w.values
    out23 = apply_pairs(grid, "RS2+RS3", w - w.mean(axis=0))
    h_eps, _ = mean_in_s_split(grid, w.mean(axis=0))
    total = (-s_inv_theta_int(grid, out23) - h_eps
             + theta_integral(grid, w, -(grid.epsilon ** 2) * grid.khat))
    return holder_norm(total, ALPHA, grid.epsilon)


# the mean-in-s studies vanish on the rotationally symmetric circle (S[h(theta)]
# has no s-dependence there), so they, Rd-eps-group and RD-deriv default to
# the perturbed circle
STUDIES = {
    "RS1-sup": ScalingStudy(
        _sup_of("RS1"), 1.0, 0.3, "at-least", "circle",
        "sup-norm of R_S1 on a unit band-limited density"),
    "RS2-sup": ScalingStudy(_sup_of("RS2"), 2.0, 0.3, "at-least", "circle"),
    "RS3-sup": ScalingStudy(_sup_of("RS3"), 2.0, 0.3, "at-least", "circle"),
    "basic-int-k2-a05": ScalingStudy(
        lambda grid: basic_integral(grid, 2, 0.5), 0.5, 0.3, "two-sided",
        "circle"),
    "Heps": ScalingStudy(
        _mean_in_s_part(0, ALPHA), 1.75, 0.3, "at-least", "perturbed_circle",
        "slope target 2 - alpha with alpha = 0.25"),
    "Hplus": ScalingStudy(
        _mean_in_s_part(1, GAMMA), 0.5, 0.3, "at-least", "perturbed_circle",
        "slope target 1 - gamma with gamma = 0.5"),
    "RS-holder-group": ScalingStudy(
        _rs_holder_group, 1.75, 0.3, "at-least", "circle",
        "C^{0,alpha} of R_S2+R_S3, target 2-alpha"),
    "Rd-eps-group": ScalingStudy(
        _rd_eps_group, 1.75, 0.4, "at-least", "perturbed_circle",
        "epsilon-tagged DtN remainder group, 2-alpha", solves=True),
    "RD-deriv": ScalingStudy(
        _sup_of("RD", spectral_s_derivative), -0.75, 0.5, "at-least",
        "perturbed_circle", "report-only: d_s R_D growth no worse than -gamma+"),
}


def make_study(study_id, curve_config=None, epsilons=None, n_theta=N_THETA):
    """STUDIES[study_id] on a curve and ladder, by default its preset's."""
    if study_id not in STUDIES:
        raise ValueError(f"unknown study '{study_id}'; known: {sorted(STUDIES)}")
    entry = STUDIES[study_id]
    st = entry._replace(
        study_id=study_id, n_theta=n_theta,
        curve_config=({"preset": entry.preset} if curve_config is None
                      else curve_config),
        epsilons=list(LADDERS[entry.preset] if epsilons is None else epsilons))
    if not all(math.isfinite(e) and e > 0.0 for e in st.epsilons):
        raise ValueError(f"eps must be positive and finite, got {st.epsilons}")
    if len(set(st.epsilons)) < 2:
        raise ValueError(f"a slope needs at least 2 distinct eps, got "
                         f"{st.epsilons}")
    if st.solves:
        n_nodes = max(st.grid_ns(e) for e in st.epsilons) * st.n_theta
        if n_nodes > DENSE_NODE_CAP:
            raise AssemblyError(
                f"{study_id} solves with dense operators, capped at "
                f"{DENSE_NODE_CAP} nodes; eps {min(st.epsilons):g} needs "
                f"{n_nodes} nodes")
    return st


def _ladder(curve_config, epsilons, n_theta):
    """Yield (eps, grid) per rung; the centerline and frame are built once."""
    for spec in geo.surface_specs(curve_config, epsilons):
        eps = spec.epsilon
        yield eps, make_grid(spec, ScalingStudy.grid_ns(eps), n_theta)


def run_scaling_study(study):
    """Run one ladder, fit the slope, and return the verdict report."""
    values = [study.measure(grid) for _, grid in
              _ladder(study.curve_config, study.epsilons, study.n_theta)]
    slope, resid = fit_slope(study.epsilons, values)
    if study.direction == "at-least":
        passed = slope >= study.target_slope - study.margin
    else:
        passed = abs(slope - study.target_slope) <= study.margin
    return {
        "study": study.study_id,
        "epsilons": list(study.epsilons),
        "values": values,
        "slope": slope,
        "fit_residual": resid,
        "target_slope": study.target_slope,
        "margin": study.margin,
        "direction": study.direction,
        "pass": bool(passed),
        "notes": study.notes,
    }


def measure_total_remainder(curve_config, epsilons, alpha=ALPHA):
    """|L^-1 v - Lbar^-1 v|_{C^0,alpha} across eps for v = cos(2 pi s).

    PASS is boundedness (max/min ratio <= 3, no growth trend) plus strict
    dominance of the straight part at every epsilon.
    """
    rows = []
    for eps, grid in _ladder(curve_config, epsilons, N_THETA):
        v = np.cos(2.0 * np.pi * grid.s_nodes)
        solver = SlenderBodySolver(grid, "split")
        f_curved = solver.dtn(v).f.values
        f_straight = solver.straight_dtn(v)
        rem = holder_norm(f_curved - f_straight, alpha, eps)
        lead = holder_norm(f_straight, alpha, eps)
        rows.append({"epsilon": eps, "remainder_norm": rem,
                     "straight_norm": lead, "ratio": rem / lead})
    order = np.argsort([-r["epsilon"] for r in rows])
    rems = [rows[i]["remainder_norm"] for i in order]
    report = {
        "alpha": alpha,
        "rows": rows,
        "max_over_min": max(rems) / min(rems),
        # boundedness: no epsilon's remainder exceeds 3x the coarsest point
        # (a strongly decreasing remainder is better than bounded and must
        # not trip the check)
        "max_over_first": max(rems) / rems[0],
        "dominated": all(r["ratio"] < 1.0 for r in rows),
        "no_growth_trend": fit_slope([r["epsilon"] for r in rows], rems)[0] >= -0.2,
    }
    report["pass"] = (report["max_over_first"] <= 3.0 and report["dominated"]
                      and report["no_growth_trend"])
    return report
