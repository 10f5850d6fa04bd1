r"""Slender-body DtN and NtD solves, exterior Dirichlet, Green's identity.

The discrete slender-body system on the tube surface couples the layer
operators with the theta-independence constraint:

    (1/2 I - D_h) E v = S_h w          (Green identity on the surface)
    Q w = f,   (Q w)(s_i) = sum_j w(s_i, theta_j) J(s_i, theta_j) (2 pi/n_th)

E extends s-circle values constant in theta.  One dense LU of S_h per
geometry gives the N x n_s density block W = S_h^-1 B, B = (1/2 I - D_h) E,
and with it the n_s x n_s discrete DtN matrix Lambda = Q W:

    DtN (v given):  w = W v,  f = Q w
    NtD (f given):  Lambda v = f (LU of Lambda),  w = W v

S_h and B of either backend come from one pair sweep that stores no D_h
(operators.assemble_first_kind): a solve holds two N x N arrays, S_h and its
LU.  The Green's identity harness applies S_h and D_h matrix-free in one
sweep (operators.apply_pair), past DENSE_NODE_CAP.
Each solve reports its residuals against S_h.  The 1-norm condition
estimates of S_h (LAPACK gecon) and of Lambda are reported and hard-fail
beyond COND_LIMIT, never silently ignored.

Every dense system (S_h, Lambda, 1/2 I + D') is factored by _lu from a
Fortran-order copy made in row blocks.  At 256x16 (2 vCPUs) a map's solve
layer takes: assembly 0.37 s, copy 0.09 s, dgetrf 0.61 s, 1-norm and gecon
0.16 s, W 0.12 s.

The exterior Dirichlet problem is solved through the modified double layer:
(1/2 I + D'_h) phi = v, then u(y) = D'[phi](y) off the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve, get_lapack_funcs

from .grid import SurfaceGrid, check_grid_sizes
from .kernels import FOURPI
from .operators import (apply_pair, assemble_Dprime, assemble_first_kind,
                        theta_integral)
# not called here: perfbench/tracer.py wraps them where solver binds them
from .operators import assemble_D, assemble_S  # noqa: F401
from .spectral import FourierSymbol, GridFunction, apply_symbol

COND_LIMIT = 1e12
# the Neumann-series NtD stops once an increment is below NEUMANN_TOL times
# max(1, |v|) and fails once one grows; NEUMANN_MAX_ITER only bounds the run
# time (it takes a ratio-0.986 series from an increment of 1 to NEUMANN_TOL)
NEUMANN_MAX_ITER = 2000
NEUMANN_TOL = 1e-12
# rows per slab of _lu's Fortran-order copy; at N = 4,096 (medians of 5)
# 16 rows take 0.12 s, 64 rows 0.08-0.11 s, 128 rows 0.18-0.24 s
LU_COPY_ROWS = 64


class SolveError(RuntimeError):
    pass


@dataclass
class SlenderSolveResult:
    """One DtN or NtD solve.  v, w and f are the only GridFunctions the
    library returns (arrays in, arrays out elsewhere): read .values."""

    v: GridFunction            # theta-independent Dirichlet data, s-circle
    w: GridFunction            # full Neumann density on the surface
    f: GridFunction            # theta-integrated Neumann data, s-circle
    residuals: dict
    conditioning: dict


def _lu(mat):
    """lu_factor(mat), bit for bit, from a Fortran-order copy of mat made
    LU_COPY_ROWS rows at a time for dgetrf (column-major) to overwrite; f2py
    makes the same copy by a strided transpose, 0.38 s at N = 4,096."""
    a = np.empty(mat.shape, order="F")
    for i in range(0, mat.shape[0], LU_COPY_ROWS):
        a[i:i + LU_COPY_ROWS] = mat[i:i + LU_COPY_ROWS]
    return lu_factor(a, overwrite_a=True)


def _cond_estimate(mat, lu=None):
    """1-norm condition estimate via LAPACK gecon (cheap after LU)."""
    col = np.zeros(mat.shape[1])  # np.linalg.norm(mat, 1), row by row as it
    for row in mat:               # adds up, but with no N x N |mat| array
        col += np.abs(row)
    if lu is None:
        lu = _lu(mat)
    gecon = get_lapack_funcs("gecon", (mat,))
    rcond, _ = gecon(lu[0], col.max(), norm="1")
    if rcond == 0.0:
        return math.inf
    return 1.0 / rcond


def _factor(mat, system, lu=None):
    """(LU, cond estimate) of mat, or a SolveError naming system when the
    estimate passes COND_LIMIT; lu, when given, is the LU of mat."""
    lu = _lu(mat) if lu is None else lu
    cond = _cond_estimate(mat, lu)
    if cond > COND_LIMIT:
        raise SolveError(f"{system} too ill-conditioned: cond ~ {cond:.3e}")
    return lu, cond


class SlenderBodySolver:
    """Caches S_h, B = (1/2 I - D_h) E, lu_S and the discrete DtN matrix for
    one grid; operators, when given, is an (S_h, B) pair (N x N, N x n_s)
    used as is, and backend is then only a label.
    """

    def __init__(self, grid: SurfaceGrid, backend="direct", operators=None):
        self.grid = grid
        self.backend = backend
        self.S_h, self.B = (operators if operators is not None
                            else assemble_first_kind(grid, backend))
        self._lu_S = None
        self._cond_S = None
        self._W = None
        self._dtn_matrix = self._lu_dtn = self._cond_dtn = None

    @property
    def lu_S(self):
        if self._lu_S is None:
            self._lu_S = _lu(self.S_h)
        return self._lu_S

    @property
    def cond_S(self):
        """Cond estimate of S_h; a SolveError beyond COND_LIMIT."""
        if self._cond_S is None:
            g = self.grid
            self._cond_S = _factor(
                self.S_h, f"first-kind system (n_s={g.n_s}, n_theta={g.n_theta}, "
                f"eps={g.epsilon})", self.lu_S)[1]
        return self._cond_S

    def _densities(self):
        """W = S_h^-1 B, N x n_s."""
        if self._W is None:
            self.cond_S  # the guard: a SolveError beyond COND_LIMIT
            self._W = lu_solve(self.lu_S, self.B)
        return self._W

    @property
    def dtn_matrix(self):
        """Lambda = Q W: the n_s x n_s discrete DtN map, f = Lambda v."""
        if self._dtn_matrix is None:
            self._dtn_matrix = theta_integral(self.grid, self._densities(),
                                              self.grid.jacobian)
        return self._dtn_matrix

    def _s_data(self, x):
        """x as a finite (n_s,) float array, else a ValueError."""
        x = np.asarray(x, float)
        if x.shape != (self.grid.n_s,):
            raise ValueError(f"data shape {x.shape} != (n_s,) = ({self.grid.n_s},)")
        if not np.isfinite(x).all():
            raise ValueError("data holds non-finite values (NaN or inf)")
        return x

    def dtn(self, v):
        """v(s) -> (w, f): w = W v solves S w = (1/2 I - D) E v; f = Q w."""
        vv = self._s_data(v)
        w = self._densities() @ vv
        f = theta_integral(self.grid, w, self.grid.jacobian)
        resid = float(np.max(np.abs(self.S_h @ w - self.B @ vv)))
        shape = (self.grid.n_s, self.grid.n_theta)
        return SlenderSolveResult(
            v=GridFunction(vv), w=GridFunction(w.reshape(shape)),
            f=GridFunction(f),
            residuals={"first_kind_inf": resid},
            conditioning={"cond_S": self.cond_S})

    def ntd(self, f):
        """f(s) -> (w, v): solve (Q W) v = f, then w = W v."""
        ff = self._s_data(f)
        W = self._densities()
        if self._lu_dtn is None:  # LU of Lambda, guarded by COND_LIMIT
            self._lu_dtn, self._cond_dtn = _factor(self.dtn_matrix,
                                                   "DtN matrix of the NtD solve")
        v = lu_solve(self._lu_dtn, ff)
        w = W @ v
        res1 = float(np.max(np.abs(self.S_h @ w - self.B @ v)))
        q = theta_integral(self.grid, w, self.grid.jacobian)
        res2 = float(np.max(np.abs(q - ff)))
        shape = (self.grid.n_s, self.grid.n_theta)
        return SlenderSolveResult(
            v=GridFunction(v), w=GridFunction(w.reshape(shape)),
            f=GridFunction(ff),
            residuals={"first_kind_inf": res1, "constraint_inf": res2},
            conditioning={"cond_S": self.cond_S, "cond_dtn": self._cond_dtn})

    def _straight(self, name, data):
        """Apply the 1-D symbol `name` (FourierSymbol memoises its table)."""
        tab = FourierSymbol(name, self.grid.epsilon).table(self.grid.n_s)
        return apply_symbol(tab, np.asarray(data, float))

    def straight_dtn(self, v):
        """L-bar_eps^{-1} v by the Fourier multiplier (zero mode annihilated)."""
        return self._straight("m_eps_inv", v)

    def straight_ntd(self, f):
        return self._straight("m_eps", f)

    def neumann_series_ntd(self, f):
        """NtD by the straight-map iteration v <- Lbar[f] - Lbar P0 R_d[v].

        R_d v = L^{-1} v - Lbar^{-1} v comes from the cached DtN matrix, so
        a sweep is one n_s x n_s product and two multipliers.  Returns (v,
        history of increments); raises SolveError once an increment grows,
        naming the ratio of the last two, or after NEUMANN_MAX_ITER sweeps.
        """
        ff = self._s_data(f)
        if abs(np.mean(ff)) > 1e-10 * (np.max(np.abs(ff)) or 1.0):
            raise SolveError("Neumann-series NtD needs zero-mean f")
        v = self.straight_ntd(ff)
        base = v.copy()
        history = []
        for _ in range(NEUMANN_MAX_ITER):
            rd = self.dtn_matrix @ v - self.straight_dtn(v)
            rd = rd - np.mean(rd)
            v_new = base - self.straight_ntd(rd)
            inc = float(np.max(np.abs(v_new - v)))
            if history and inc > history[-1]:
                raise SolveError(
                    f"Neumann-series NtD diverges: increment grew by "
                    f"{inc / history[-1]:.3f} at sweep {len(history) + 1}")
            history.append(inc)
            v = v_new
            if inc < NEUMANN_TOL * max(1.0, float(np.max(np.abs(v)))):
                return GridFunction(v), history
        raise SolveError(
            f"Neumann-series NtD did not converge in {NEUMANN_MAX_ITER} sweeps: "
            f"last increment {history[-1]:.3e}")


# exterior Dirichlet through the modified double layer -------------------------

def _offsurface_eval(grid, points, density, kind):
    """Evaluate layer potentials at strictly exterior points (no puncture)."""
    pts = np.atleast_2d(np.asarray(points, float))
    jw = grid.flat_jacobian() * grid.node_weight
    dens = np.asarray(density, float).reshape(-1)
    d = pts[:, None, :] - grid.flat_positions()
    r = np.linalg.norm(d, axis=2)
    if kind == "S":
        ker = 1.0 / (FOURPI * r)
    elif kind in ("D", "Dprime"):
        ker = np.einsum("mij,ij->mi", d, grid.flat_normals()) / (FOURPI * r ** 3)
        if kind == "Dprime":
            xc = np.repeat(grid.X, grid.n_theta, axis=0)
            ker += 1.0 / np.linalg.norm(pts[:, None, :] - xc, axis=2)
    else:
        raise ValueError(kind)
    return np.sum(ker * dens * jw, axis=1)


def _distance_to_centerline(grid, points):
    pts = np.atleast_2d(np.asarray(points, float))
    d = pts[:, None, :] - grid.X[None, :, :]
    return np.min(np.linalg.norm(d, axis=2), axis=1)


def solve_exterior_dirichlet(grid, v_surface, eval_points, backend="direct"):
    """Exterior Dirichlet solve via (1/2 I + D') phi = v; evaluate off-surface.

    eval_points must be strictly exterior with distance to the centerline
    greater than 2 eps + eps (surface clearance > 2 eps) for quadrature
    accuracy; closer points are an error.
    """
    pts = np.atleast_2d(np.asarray(eval_points, float))
    dist = _distance_to_centerline(grid, pts)
    if np.any(dist <= grid.epsilon):
        raise SolveError("evaluation point not strictly exterior")
    if np.any(dist < 3.0 * grid.epsilon):  # clearance to the surface > 2 eps
        raise SolveError("evaluation point closer than 2 eps to the surface")
    a = assemble_Dprime(grid, backend)
    a.flat[::grid.n_nodes + 1] += 0.5  # 1/2 I + D', in place
    lu, cond = _factor(a, "second-kind system (1/2 I + D')")
    phi = lu_solve(lu, np.asarray(v_surface, float).reshape(-1))
    u = _offsurface_eval(grid, pts, phi, "Dprime")
    return u, {"cond_Dprime": cond,
               "phi": phi.reshape(grid.n_s, grid.n_theta)}


def green_representation_eval(grid, eval_points, v_surface, w_surface):
    """u(y) = S[w](y) + D[v](y) at exterior points (Green's formula)."""
    return (_offsurface_eval(grid, eval_points, w_surface, "S")
            + _offsurface_eval(grid, eval_points, v_surface, "D"))


# Green's identity harness ----------------------------------------------------

def point_charge_data(grid, charges):
    """Exact (v, w) on the surface for u = sum q G(., X(s_c)).

    charges: list of (q, s_position); the sources sit on the centerline,
    strictly inside the tube.
    """
    P = grid.flat_positions()
    NRM = grid.flat_normals()
    v = np.zeros(grid.n_nodes)
    w = np.zeros(grid.n_nodes)
    for q, s_c in charges:
        y = grid.spec.centerline.position(np.array([s_c]))[0]
        d = P - y[None, :]
        r = np.linalg.norm(d, axis=1)
        v += q / (FOURPI * r)
        # w = -du/dn, n outward from the tube; grad G = -(x-y)/(4 pi r^3)
        w += q * np.einsum("ij,ij->i", d, NRM) / (FOURPI * r ** 3)
    shape = (grid.n_s, grid.n_theta)
    return v.reshape(shape), w.reshape(shape)


def exact_point_charge_potential(grid, points, charges):
    pts = np.atleast_2d(np.asarray(points, float))
    u = np.zeros(pts.shape[0])
    for q, s_c in charges:
        y = grid.spec.centerline.position(np.array([s_c]))[0]
        u += q / (FOURPI * np.linalg.norm(pts - y[None, :], axis=1))
    return u


def greens_identity_residual(grid, charges, backend="direct"):
    """sup |(1/2 I - D_h) v - S_h w| for exact point-charge data, matrix-free."""
    v, w = point_charge_data(grid, charges)
    rhs, d_v = apply_pair(grid, backend, w, v)
    lhs = 0.5 * v - d_v
    scale = float(np.max(np.abs(lhs))) or 1.0
    return float(np.max(np.abs(lhs - rhs))), scale


def check_ladder(n_s_list, n_theta):
    """Raise ValueError unless the ladder has 2+ distinct n_s, all valid grids."""
    if len(set(n_s_list)) < 2:
        raise ValueError(f"a Green ladder needs at least 2 distinct n_s, "
                         f"got {list(n_s_list)}")
    for n_s in n_s_list:
        check_grid_sizes(n_s, n_theta)


def greens_ladder(spec, charges, n_s_list, n_theta, backend="direct"):
    """Residual across an n_s ladder plus the least-squares convergence order."""
    from .grid import make_grid
    check_ladder(n_s_list, n_theta)
    resids = []
    for n_s in n_s_list:
        g = make_grid(spec, n_s, n_theta)
        r, _ = greens_identity_residual(g, charges, backend)
        resids.append(r)
    hs = np.log(1.0 / np.asarray(n_s_list, float))
    order = float(np.polyfit(hs, np.log(resids), 1)[0])
    return resids, order
