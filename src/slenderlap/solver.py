r"""Slender-body DtN and NtD solves, exterior Dirichlet, Green's identity.

The discrete slender-body system on the tube surface couples the layer
operators with the theta-independence constraint:

    (1/2 I - D_h) E v = S_h w          (Green identity on the surface)
    Q w = f,   (Q w)(s_i) = sum_j w(s_i, theta_j) J(s_i, theta_j) (2 pi/n_th)

E extends s-circle values constant in theta.  One dense factor lu_S of S_h
per geometry gives the N x n_s density block W = lu_S.solve(B) = S_h^-1 B,
B = (1/2 I - D_h) E, and with it the n_s x n_s discrete DtN matrix
Lambda = Q W:

    DtN (v given):  w = W v,  f = Q w
    NtD (f given):  Lambda v = f (LU of Lambda),  w = W v

A = S_h diag(1/J), B and the column sums of |A| of either backend come
from one lower pair sweep that stores no D_h (operators.assemble_first_kind),
and lu_S factors S_h in A's array: a solve holds one N x N array.  Its
untouched triangle keeps A for apply_S, which the residuals and the
decomposition use.  The Green's identity harness applies S_h and D_h
matrix-free in one sweep (operators.apply_pair), past DENSE_NODE_CAP.
Each solve reports its residuals against S_h.  Every dense factor (the
ShiftedCholesky of S_h, or an LU of Lambda or 1/2 I + D') is made in the
C-order array of its matrix through its Fortran view, and has solve(x,
trans) for vectors and N x k blocks, and anorm = ||mat||_1: so W, every
solve and the condition estimate anorm ||mat^-1||_1 (LAPACK's dlacn2,
driven by factor.solve) take one route each.  The estimates of S_h and of
Lambda are reported and hard-fail beyond COND_LIMIT, never silently ignored.

The first-kind factor.  A = S_h diag(1/J) is symmetric, because S_h is a
symmetric kernel matrix times the source Jacobian, and exactly so: the
sweep writes each entry once and mirrors it.  On split grids A is
indefinite, but its negative eigenvalues lie in the space U of s-means:
one direction per theta-node, constant in s.  On the perturbed circle at
128x16, eps 1/64, all 9 negative eigenvalues of A are those of the 16 x 16
block U^T A U to 3 digits.  So a shift of rank n_theta, M = A + sigma U U^T
with sigma = ||A||_1, makes M positive definite, and dpotrf factors it in
place; A^-1 follows by Woodbury with an n_theta x n_theta capacitance
matrix.  dpotrf reads and writes one triangle of the array (LAPACK Users'
Guide, 3rd ed., section 5.1), so the other keeps A, and S_h x = A (J x) is
one dsymv.
Where dpotrf still finds a non-positive minor, the grid does not resolve
the tube (the circle at 64x8, eps 1/16, or direct at eps 1/256), and lu_S
raises a SolveError naming the grid, h_s/(eps h_theta) and eps kappa_*.

At 256x16 (perturbed circle, split, 2 vCPUs, medians of 5 in one process,
over 5 processes) the solve layer takes: assembly 0.18-0.19 s; lu_S
0.26-0.29 s (the shift 0.006 s, dpotrf 0.24-0.26 s), the estimate
0.03-0.04 s and W 0.09-0.10 s.

The exterior Dirichlet problem is solved through the modified double layer:
(1/2 I + D'_h) phi = v, then u(y) = D'[phi](y) off the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve
from scipy.linalg.blas import dgemm, dsymv

from . import grid as grid_mod
from .grid import SurfaceGrid, check_grid_sizes
from .kernels import FOURPI
from .operators import (_check_dense_cap, apply_pair, assemble_Dprime,
                        assemble_first_kind, centerline_kernel, theta_integral)
# not called here: perfbench/tracer.py wraps them where solver binds them
from .operators import assemble_D, assemble_S  # noqa: F401
from .spectral import FourierSymbol, GridFunction, apply_symbol

COND_LIMIT = 1e12
# N x N arrays held at once by a slender-body and an exterior solve (dry runs)
SOLVE_DENSE = (1, "S_h, factored in place")
EXTERIOR_DENSE = (1, "1/2 I + D', factored in place")
# the Neumann-series NtD stops once an increment is below NEUMANN_TOL times
# max(1, |v|) and fails once one grows; NEUMANN_MAX_ITER only bounds the run
# time (it takes a ratio-0.986 series from an increment of 1 to NEUMANN_TOL)
NEUMANN_MAX_ITER = 2000
NEUMANN_TOL = 1e-12


class SolveError(RuntimeError):
    pass


def _finite(x, name, shapes):
    """x as a finite float array of a shape in shapes (label -> shape), else
    a ValueError naming name."""
    x = np.asarray(x, float)
    if x.shape not in shapes.values():
        want = " or ".join(f"{k} = {v}" for k, v in shapes.items())
        raise ValueError(f"{name} shape {x.shape} != {want}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} holds non-finite values (NaN or inf)")
    return x


@dataclass
class SlenderSolveResult:
    """One DtN or NtD solve.  v, w and f are the only GridFunctions the
    library returns (arrays in, arrays out elsewhere): read .values."""

    v: GridFunction            # theta-independent Dirichlet data, s-circle
    w: GridFunction            # full Neumann density on the surface
    f: GridFunction            # theta-integrated Neumann data, s-circle
    residuals: dict
    conditioning: dict


class LU(NamedTuple):
    """lu_factor's (lu, piv) of mat^T, and anorm = ||mat||_1."""

    lu: np.ndarray
    piv: np.ndarray
    anorm: float

    def solve(self, x, trans=0):
        """mat^-1 x (trans 0) or mat^-T x (trans 1), x a vector or block:
        lu is mat^T's LU, so lu_solve takes the other trans."""
        return lu_solve((self.lu, self.piv), x, trans=1 - trans)


def _lu(a):
    """LU of the C-order array a, made in a's own array: dgetrf overwrites
    its Fortran view a.T with lu_factor(a.T), the LU of a^T, and
    LU.solve solves with a by the other trans.  ||a||_1 is dlange's
    infinity norm of a.T, one pass that copies nothing (22 ms at N = 4,096,
    where numpy's column sums of |a| in slabs took 32 ms).  A NaN or an inf
    in a makes it NaN or inf, a ValueError."""
    anorm = float(get_lapack_funcs("lange", (a.T,))("I", a.T))
    if not math.isfinite(anorm):
        raise ValueError("array must not contain infs or NaNs")
    return LU(*lu_factor(a.T, overwrite_a=True, check_finite=False), anorm)


def _s_sum(x, n_theta):
    """U^T x for x with N rows: its theta-wise sums over s, over sqrt(n_s);
    U (N x n_theta, orthonormal) spans the s-means."""
    n_s = x.shape[0] // n_theta
    # node s * n_theta + theta is (theta, s) in column-major order: a view
    # of a Fortran-order x
    return (x.reshape((n_theta, n_s) + x.shape[1:], order="F").sum(axis=1)
            / math.sqrt(n_s))


class ShiftedCholesky(NamedTuple):
    """Factor of S_h = A diag(J) through M = A + sigma U U^T.

    A = S_h diag(1/J) is symmetric, but its negative eigenvalues lie in the
    s-mean space U, so M is positive definite; m is dpotrf's factor of M in
    place.  A^-1 = M^-1 + mu cap^-1 mu^T (Woodbury), with mu = M^-1 U and
    the capacitance cap = I/sigma - U^T M^-1 U.  Like LU it has solve (for
    vectors and blocks) and anorm = ||S_h||_1, all a caller of a factor uses.
    """

    m: np.ndarray      # Fortran view of A's array: factor above, A below
    jac: np.ndarray    # J, flat
    mu: np.ndarray
    cap: np.ndarray
    anorm: float

    def solve(self, x, trans=0):
        """S_h^-1 x = A^-1 x / J (trans 0) or S_h^-T x = A^-1 (x / J)
        (trans 1), for x an N-vector or an N x k block.  Two dtrtrs take
        12 ms for one column at N = 4,096, where dpotrs takes 24 ms."""
        x2, jac = x.reshape(len(x), -1), self.jac[:, None]  # N x 1 if 1-D
        trtrs = get_lapack_funcs("trtrs", (self.m,))
        y, _ = trtrs(self.m, x2 / jac if trans else x2, lower=False, trans=1)
        y, _ = trtrs(self.m, y, lower=False, overwrite_b=True)
        z = np.linalg.solve(self.cap, _s_sum(y, self.cap.shape[0]))
        # y += mu z by gemm into the Fortran-order y: no N x k temporary
        y = dgemm(1.0, self.mu, z, beta=1.0, c=y, overwrite_c=True)
        if not trans:
            y /= jac
        return y.reshape(x.shape)


def _shifted_cholesky(a, col, jac, n_theta):
    """(ShiftedCholesky of S_h = A diag(J), or None when dpotrf finds M not
    positive definite; the diagonal of A), made in A's own array.

    col holds the column sums of |A| (assemble_first_kind's), a
    ValueError if one is not finite: sigma = ||A||_1, which moves the
    s-mean eigenvalues of A well above 0, and ||S_h||_1 = max_j J_j col_j,
    so no pass over A is made.  The shift goes on the lower triangle and
    diagonal only, one s-row of theta-blocks at a time through a strided
    view of their diagonals: they are the upper triangle of the Fortran
    view a.T, which dpotrf reads and overwrites with the factor.  So the
    strict upper triangle of a keeps A, whose diagonal is returned.  mu
    comes from one dpotrs on U.
    """
    if not np.isfinite(col).all():
        raise ValueError("array must not contain infs or NaNs")
    n_s, sigma = len(a) // n_theta, float(col.max())
    a_diag = a.diagonal().copy()
    # v[i, j, t] = a[i n_theta + t, j n_theta + t]: U U^T's entries
    row, col_step = a.strides
    v = np.lib.stride_tricks.as_strided(
        a, (n_s, n_s, n_theta),
        (n_theta * row, n_theta * col_step, row + col_step))
    for i in range(n_s):  # + sigma U U^T: sigma/n_s on equal theta
        v[i, :i + 1] += sigma / n_s
    potrf, potrs = get_lapack_funcs(("potrf", "potrs"), (a,))
    c, info = potrf(a.T, lower=False, clean=False, overwrite_a=True)
    if info:
        return None, a_diag
    u = np.tile(np.eye(n_theta) / math.sqrt(n_s), (n_s, 1))
    mu, _ = potrs(c, u, lower=False, overwrite_b=True)
    cap = np.eye(n_theta) / sigma - _s_sum(mu, n_theta)
    return ShiftedCholesky(c, jac, mu, cap, float((jac * col).max())), a_diag


def _inverse_one_norm(solve, n):
    """Estimate of ||X^-1||_1 from solve(x, trans) = X^-1 x (trans 0) or
    X^-T x (trans 1): LAPACK dlacn2 (Higham, ACM TOMS 14, 1988), the
    estimator inside gecon and pocon, at most 11 solves."""
    x = solve(np.full(n, 1.0 / n), 0)
    if n == 1:
        return abs(x[0])
    est = np.abs(x).sum()
    sgn = np.where(x >= 0.0, 1.0, -1.0)
    j = np.argmax(np.abs(solve(sgn, 1)))
    for _ in range(4):  # iterations 2..ITMAX = 5
        x = solve(np.eye(1, n, j)[0], 0)
        est_old, est = est, np.abs(x).sum()
        new = np.where(x >= 0.0, 1.0, -1.0)
        if np.array_equal(new, sgn) or est <= est_old:
            break
        sgn = new
        x = solve(sgn, 1)
        j_last, j = j, np.argmax(np.abs(x))
        if x[j_last] == abs(x[j]):
            break
    alt = (1.0 + np.arange(n) / (n - 1)) * np.where(np.arange(n) % 2, -1.0, 1.0)
    return max(est, 2.0 * np.abs(solve(alt, 0)).sum() / (3 * n))


def _cond_estimate(factor, n):
    """1-norm condition estimate ||X||_1 ||X^-1||_1 of the n x n matrix X
    that factor, an LU or a ShiftedCholesky, factors; math.inf when it is
    not finite."""
    cond = float(factor.anorm * _inverse_one_norm(factor.solve, n))
    return cond if math.isfinite(cond) else math.inf


def _factor(mat, system, factor=None):
    """(factor, cond estimate) of mat, its LU in place unless factor is
    given, or a SolveError naming system when it passes COND_LIMIT."""
    factor = _lu(mat) if factor is None else factor
    cond = _cond_estimate(factor, len(mat))
    if cond > COND_LIMIT:
        raise SolveError(f"{system} too ill-conditioned: cond ~ {cond:.3e}")
    return factor, cond


class SlenderBodySolver:
    """Caches B = (1/2 I - D_h) E, lu_S and the discrete DtN matrix for one
    grid.  lu_S factors S_h = A diag(J) in the array that holds A, and
    apply_S applies S_h from what the factor leaves of it.  operators, when
    given, is what assemble_first_kind returns, (A, B, |A| column sums) of
    shapes (N, N), (N, n_s) and (N,), and the solver takes it over; backend
    is then only a label.  Like LAPACK's overwrite_a, A is overwritten in
    place, so it must be a writeable C-contiguous float64 array.
    """

    def __init__(self, grid: SurfaceGrid, backend="direct", operators=None):
        self.grid = grid
        self.backend = backend
        if operators is None:
            operators = assemble_first_kind(grid, backend)
        else:
            _check_dense_cap(grid)
            n, n_s = grid.n_nodes, grid.n_s
            shapes = tuple(np.shape(x) for x in operators)
            if shapes != ((n, n), (n, n_s), (n,)):
                raise ValueError(
                    f"operators must be (A, B, |A| column sums) of shapes "
                    f"(N, N) = ({n}, {n}), (N, n_s) = ({n}, {n_s}) and "
                    f"(N,) = ({n},), got {shapes}")
            a = operators[0]
            if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                    and a.flags.c_contiguous and a.flags.writeable):
                raise ValueError("operators' A must be a writeable "
                                 "C-contiguous float64 array: the solver "
                                 "factors it in place")
        # A until lu_S factors it in place; then A's strict upper triangle
        # and the factor, and _a_diag A's diagonal
        self._a, self.B, self._a_sums = operators
        self._a_diag = None
        self._lu_S = self._cond_S = self._W = None
        self._dtn_matrix = self._lu_dtn = self._cond_dtn = None

    @property
    def lu_S(self):
        """The ShiftedCholesky of S_h in A's array; a SolveError, now and
        on every later call, once dpotrf finds M not positive definite."""
        if self._lu_S is None:
            g = self.grid
            factor, self._a_diag = _shifted_cholesky(
                self._a, self._a_sums, g.flat_jacobian(), g.n_theta)
            aspect = grid_mod.aspect_ratio(g.n_s, g.n_theta, g.epsilon)
            self._lu_S = factor or SolveError(
                f"first-kind system indefinite on the {g.n_s} x {g.n_theta} "
                f"grid (h_s/(eps h_theta) = {aspect:.2f}, eps kappa_* = "
                f"{g.epsilon * g.spec.frame.kappa_star:.3f}): use a finer "
                f"grid or a smaller eps")
        if isinstance(self._lu_S, SolveError):
            raise self._lu_S.with_traceback(None)
        return self._lu_S

    def apply_S(self, x):
        """S_h x = A (J x), x an N-vector, by dsymv on the triangle of A
        that lu_S leaves: A's diagonal is swapped in for the call and the
        factor's back after it.  2 ms at N = 4,096, where dgemv on the
        whole S_h took 8-9 ms."""
        self.lu_S  # A's triangle exists once S_h is factored
        a = self._a
        diag = a.diagonal().copy()
        np.fill_diagonal(a, self._a_diag)
        try:
            return dsymv(1.0, a.T, self.grid.flat_jacobian() * x, lower=1)
        finally:
            np.fill_diagonal(a, diag)

    @property
    def cond_S(self):
        """Cond estimate of S_h; a SolveError beyond COND_LIMIT."""
        if self._cond_S is None:
            g = self.grid
            self._cond_S = _factor(
                self._a, f"first-kind system (n_s={g.n_s}, "
                f"n_theta={g.n_theta}, eps={g.epsilon})", self.lu_S)[1]
        return self._cond_S

    def _densities(self):
        """W = S_h^-1 B, N x n_s, once S_h passes the guard."""
        self.cond_S  # the guard: a SolveError beyond COND_LIMIT
        if self._W is None:
            self._W = self.lu_S.solve(self.B)
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
        return _finite(x, "data", {"(n_s,)": (self.grid.n_s,)})

    def dtn(self, v):
        """v(s) -> (w, f): w = W v solves S w = (1/2 I - D) E v; f = Q w."""
        vv = self._s_data(v)
        w = self._densities() @ vv
        f = theta_integral(self.grid, w, self.grid.jacobian)
        resid = float(np.max(np.abs(self.apply_S(w) - self.B @ vv)))
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
        if self._lu_dtn is None:  # LU of a copy (Lambda is kept), guarded
            self._lu_dtn, self._cond_dtn = _factor(self.dtn_matrix.copy(),
                                                   "DtN matrix of the NtD solve")
        v = self._lu_dtn.solve(ff)
        w = W @ v
        res1 = float(np.max(np.abs(self.apply_S(w) - self.B @ v)))
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
        if kind == "Dprime":  # the correction, repeated over theta
            ker += np.repeat(centerline_kernel(grid, pts), grid.n_theta, axis=1)
    else:
        raise ValueError(kind)
    return np.sum(ker * dens * jw, axis=1)


def solve_exterior_dirichlet(grid, v_surface, eval_points, backend="direct"):
    """Exterior Dirichlet solve via (1/2 I + D') phi = v; evaluate off-surface.

    eval_points (m x 3) must be strictly exterior, at least 2 eps + eps from
    the whole centerline (Centerline.distance_bound) for quadrature
    accuracy; closer points are an error.  Both arrays are checked (finite,
    shapes) before D' is assembled.
    """
    pts = np.atleast_2d(eval_points)
    pts = _finite(pts, "eval_points", {"(m, 3)": (len(pts), 3)})
    v = _finite(v_surface, "v_surface", {
        "(n_s, n_theta)": (grid.n_s, grid.n_theta), "(N,)": (grid.n_nodes,)})
    dist = grid.spec.centerline.distance_bound(pts)
    if np.any(dist <= grid.epsilon):
        raise SolveError("evaluation point not strictly exterior")
    if np.any(dist < 3.0 * grid.epsilon):  # clearance to the surface > 2 eps
        raise SolveError("evaluation point closer than 2 eps to the surface")
    a = assemble_Dprime(grid, backend)
    a.flat[::grid.n_nodes + 1] += 0.5  # 1/2 I + D', factored in place
    lu, cond = _factor(a, "second-kind system (1/2 I + D')")
    phi = lu.solve(v.reshape(-1))
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
    v = exact_point_charge_potential(grid, P, charges)
    w = np.zeros(grid.n_nodes)
    for q, s_c in charges:
        y = grid.spec.centerline.position(np.array([s_c]))[0]
        d = P - y[None, :]
        r = np.linalg.norm(d, axis=1)
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
    check_ladder(n_s_list, n_theta)
    # make_grid through its module, where perfbench/tracer.py wraps it
    resids = [greens_identity_residual(grid_mod.make_grid(spec, n, n_theta),
                                       charges, backend)[0] for n in n_s_list]
    hs = np.log(1.0 / np.asarray(n_s_list, float))
    order = float(np.polyfit(hs, np.log(resids), 1)[0])
    return resids, order
