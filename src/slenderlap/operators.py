r"""Discrete layer operators on the tube surface.

Every assembled operator is a plain N x N array on flattened (n_s, n_theta)
samples, row-major.  Both backends start from the same curved blocks,
G_J and K_J: the punctured trapezoids of the curved G and K_D times J, which
one lower pair sweep fills (_assemble).  They differ only in what is added:

  direct:  local weights at each target that restore the dropped singular
           self-contribution, making a locally corrected trapezoid rule
           (Marin, Runborg & Tornberg, IMA J. Numer. Anal. 34 (2014); Wu &
           Martinsson, Adv. Comput. Math. 47 (2021)).  With the target's
           local lattice spacings a = (1 - eps khat)/n_s and
           b = 2 pi eps/n_theta (so J * node weight = a b):

             S: diagonal weight -a b Z(a, b)/4pi, Z the analytically
                continued Epstein zeta sum over the lattice (m a, n b);
             D: weights on the target's own theta-ring (s-hat = 0) that make
                the rule exact on the straight tube's k = 0 modes at spacing
                a, plus the along-s curvature term
                -a b kappa_a Z_aa(a, b)/8pi on the diagonal,
                kappa_a = khat/(1 - eps khat).

           The oracle for the split backend.

  split:   a straight correction that acts on densities scaled by J/eps:

             S_h = G_J + C_S P0 diag(J/eps),     D_h = K_J + C_D diag(J/eps)

           C_S and C_D are the circulants of the templates m_S - T_S and
           m_D - T_D: the straight symbol applied exactly on the grid modes,
           minus T, the punctured one-period straight kernel plus the
           |s-hat| > 1/2 images (2 M images, M = 20; the neglected far field
           is annihilated to O(M^-2) by zero-s-mean densities).  With
           psi = phi J/eps, S_h phi = (m_S + (G - G-bar) - Tail) P0 psi
           + G P_mean psi: the s-mean goes through the curved kernel alone.

Every pair kernel is written once, in _pair_kernel's table, from the inverse
distances 1/|R|, 1/|R_t|, 1/|R-bar|, the components of R/|R|^3 and straight
templates, and carries no 1/4pi: the source weight does.  K_D is
sum_k (R_k/|R|^3) n_k(source) on full rows and in the dense assemblies;
the matrix-free lower apply takes it from 1/|R|^3 alone, with the
numerator R . n from two GEMMs (_lower_apply).  PairGeometry.fields drops
the self-pair, and nothing else does.  The dense oracles take a chunk's
full kernel rows from _pair_sweep and only write them into a matrix, and
apply_pairs multiplies them by densities where a kernel needs full rows:
R_t takes the target's e_t, and a curved-minus-straight difference is
subtracted pair by pair.  The rest take a lower sweep
(kernels.lower_strips), which evaluates each unordered pair once and gives
G and K_D both ways: the dense assemblies in _assemble, from 1/|R| and
R/|R|^3, where assemble_first_kind keeps A = S_h diag(1/J), which is
symmetric, the theta-block sums B = (1/2 I - D_h) E of D_h and the column
sums of |A|, and assemble_D writes D_h out; and the matrix-free applies in
_lower_apply, from 1/|R| and 1/|R|^3, apply_pair's S_h and D_h and
apply_pairs' G and R_S3 (G on the source factor -eps khat).  Every pair
sweep runs through PairGeometry.sweep: row chunks or strips on every CPU
of the affinity mask, each computed whole by one thread, and a lower
sweep's mirrored sums added in strip order, so no output depends on the
thread count.  D' - D_h depends on the source only through s, so
centerline_kernel builds it with no pair sweep.

The remainder pieces of the curved-minus-straight operators are pair
kernels with plain eps weight, matching the operator identity R_S = S - Sbar
piece by piece:

    R_S0 = -(straight tail),            zero-s-mean densities only
    R_S1 = (1/4pi) (1/|R| - 1/|R_t|) eps
    R_S2 = (1/4pi) (1/|R_t| - 1/|R-bar|) eps
    R_S3 = -(1/4pi) (1/|R|) eps^2 khat(source)
    R_D0 = -(straight D tail)
    R_D1 = (K_D - K_D-bar) eps
    R_D2 = -K_D eps^2 khat(source)

so that S = Sbar + sum R_Sj on zero-s-mean densities and D = Dbar + sum R_Dj.
The scaling studies apply them matrix-free with apply_pairs, one evaluation
per pair (per unordered pair for G and R_S3) for one or more densities,
bound by memory per chunk and not by
DENSE_NODE_CAP; only the dense operators, which the solves need, are capped.
dense_RS_kernel, dense_RD_kernel and dense_tail build the same pieces one
dense matrix each, and dense_single_layer_direct and dense_double_layer_direct
build G_J and K_J: the oracles of apply_pairs and of the pair sweep.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import k0, k1

from .kernels import FOURPI, PairGeometry, offset_fields, rows_per_chunk
from .specfun import EULER_GAMMA
from .spectral import (FourierSymbol, apply_symbol, s_modes,
                       symbol_dense_matrix, symbol_template)
from .spectral import circulant_from_template as _circulant_from_template

TAIL_IMAGES = 20
# dense matrices capped at DENSE_NODE_CAP^2 entries; a slender-body solve
# holds one of them (S_h, factored in place), an exterior solve one
# (1/2 I + D', factored in place), and both have to fit in a small-memory
# environment.
# Matrix-free applies (apply_pairs, apply_pair) are not capped.
DENSE_NODE_CAP = 4096
# lattice-sum terms in K_nu(x) are dropped once x exceeds this (K_nu < 1e-18)
BESSEL_CUTOFF = 40.0


class AssemblyError(RuntimeError):
    pass


def _check_dense_cap(grid):
    if grid.n_nodes > DENSE_NODE_CAP:
        raise AssemblyError(
            f"dense assembly capped at {DENSE_NODE_CAP} nodes, "
            f"got {grid.n_nodes}")


# pair kernels ----------------------------------------------------------------

def _eps_weight(grid):
    """Source weight of the eps-weighted kernels: eps w/4pi, w the node weight."""
    return grid.epsilon * grid.node_weight / FOURPI


def _pair_kernel(grid, name):
    """(fn, need, templates) of a named pair kernel, without its 1/4pi.

    fn maps one row chunk's pair fields (the names in need, templates
    gathered) to the kernel's rows, in place on them.  Built from the
    punctured invR, invRt, invRbar and Rinv3, every kernel is 0 at the
    self-pair.  "G" is 1/|R| and "KD" is sum_k (R_k/|R|^3) n_k(src), as on
    the lower strips; "RS1".."RS3", "RD1" and "RD2" are the remainder
    pieces of the module docstring without 1/4pi and eps, and "RD" is
    K_D J/eps - K_D-bar - tail = 4pi (R_D0 + R_D1 + R_D2)/eps.
    """
    eps_kh = grid.epsilon * grid.khat.reshape(-1)  # R_S3's and R_D2's factor
    j_eps = grid.flat_jacobian() / grid.epsilon    # RD's source factor
    nrm = grid.flat_normals().T                    # (3, N): n_src for K_D
    sub, mul = np.subtract, np.multiply

    def kd(f):  # sum_k R_k/|R|^3 n_k(src), in place on R_0/|R|^3
        q = f["Rinv3"]
        d = mul(q[0], nrm[0], out=q[0])
        for k in (1, 2):
            d += mul(q[k], nrm[k], out=q[k])
        return d

    kd_need = ("invR", "Rinv3")
    kernels = {
        "G": (lambda f: f["invR"], ("invR",)),
        "KD": (kd, kd_need),
        "RS1": (lambda f: sub(f["invR"], f["invRt"], out=f["invRt"]),
                ("invR", "invRt")),
        "RS2": (lambda f: sub(f["invRt"], f["invRbar"], out=f["invRt"]),
                ("invRt", "invRbar")),
        "RS3": (lambda f: mul(f["invR"], -eps_kh, out=f["invR"]), ("invR",)),
        "RD1": (lambda f: sub(kd(f), f["KDbar"], out=f["Rinv3"][0]),
                (*kd_need, "KDbar")),
        "RD2": (lambda f: mul(kd(f), -eps_kh, out=f["Rinv3"][0]), kd_need),
        "RD": (lambda f: sub(mul(kd(f), j_eps, out=f["Rinv3"][0]), f["KDbar"],
                             out=f["Rinv3"][0]), (*kd_need, "KDbar")),
    }
    if name not in kernels:
        raise ValueError(f"unknown pair kernel '{name}'")
    fn, need = kernels[name]
    tail = TAIL_IMAGES if name == "RD" else 0  # RD's K_D-bar holds the tail
    return fn, need, ({"KDbar": straight_template(grid, "D", tail, central=True)}
                      if "KDbar" in need else {})


def _pair_sweep(grid, name, body):
    """body(lo, hi, rows) per row chunk, rows the chunk's full rows of the
    named pair kernel, made in place on its fields."""
    fn, need, templates = _pair_kernel(grid, name)
    PairGeometry(grid, templates=templates).sweep(
        need, lambda lo, hi, f: body(lo, hi, fn(f)))


def _density(grid, x, name, columns=False):
    """x as a float array of shape (n_s, n_theta), or with columns also
    (n_s, n_theta, k), else a ValueError naming the expected shape."""
    x = np.asarray(x, float)
    if x.shape[:2] != (grid.n_s, grid.n_theta) or x.ndim > 2 + columns:
        want = f"(n_s, n_theta) = {(grid.n_s, grid.n_theta)}"
        raise ValueError(f"{name} shape {x.shape} != {want}"
                         + (" or (n_s, n_theta, k)" if columns else ""))
    return x


def _lower_apply(grid, x, m=None):
    """(sum_a x[a]/|R_ia|, sum_a sum_k R_k(i, a) m[k, a]/|R_ia|^3) over the
    sources a != i, from one sweep of the lower strips; x is (N,) or (N, k),
    m (3, N) or None, which leaves the second out (None).

    G = 1/|R| is symmetric, so each strip's 1/|R| goes against x forward for
    its rows [lo, hi) over the sources [0, hi), and transposed for the
    targets [0, lo) from the sources [lo, hi).  K_D takes 1/|R|^3 alone:
    with q = p - c, c the strip's mean position, R(i, a) . m_a = q_i . m_a
    - q_a . m_a, so the forward sums are q_i . (1/|R|^3 @ m)_i - (1/|R|^3
    @ q.m)_i, one GEMM against the hi x 4 [m, q.m], and the mirrored ones
    come from [m, q.m]^T @ 1/|R|^3 with q_a likewise.  A pair loses about
    |q|/|R| of the accuracy of R's components: centred, |q| is the tube
    radius eps or the strip's extent (uncentred, the sums lost about 10x
    more).  The theta-neighbours' |q|/|R| ~ 1/h_theta is the baseline, so
    the ring offsets 0 < |j| with j h_s < eps h_theta (none at aspect >= 1)
    leave the GEMMs and add R . m exactly: at aspect 0.32 on the circle D
    was 1.2e-13 off assemble_D without them, 3e-15 with them.  The sweep
    adds the mirrored sums in strip order.
    """
    g_out = np.empty_like(x)
    d_out = None if m is None else np.empty(grid.n_nodes)
    if m is not None:
        p, m_t = grid.flat_positions(), np.ascontiguousarray(m.T)
        n_s, n_t = grid.n_s, grid.n_theta
        d = math.floor(2.0 * math.pi * grid.epsilon * n_s / n_t)
        offsets = np.concatenate([np.arange(-d, 0), np.arange(1, d + 1)])

    def near_pairs(lo, hi, inv3):
        """The strip's pairs at those ring offsets, with a < hi: their
        exact forward sums and mirrored sums, and 0 in inv3 for them."""
        rings = (np.arange(lo, hi) // n_t)[:, None] + offsets
        cols = ((rings % n_s)[:, :, None] * n_t + np.arange(n_t)).reshape(
            hi - lo, -1)
        rows = np.broadcast_to(np.arange(hi - lo)[:, None], cols.shape)
        keep = cols < hi
        rows, cols = rows[keep], cols[keep]
        w = inv3[rows, cols]
        inv3[rows, cols] = 0.0
        r = p[lo + rows] - p[cols]
        fwd = np.bincount(rows, w * np.einsum("pk,pk->p", r, m_t[cols]),
                          minlength=hi - lo)
        back = cols < lo
        mirror = np.bincount(cols[back], -w[back] * np.einsum(
            "pk,pk->p", r[back], m_t[lo + rows[back]]), minlength=lo)
        return fwd, mirror

    def strip(lo, hi, f):
        g, mirror_d = f["invR"], None
        np.matmul(g, x[:hi], out=g_out[lo:hi])
        if m is not None:
            inv3, q = f["invR3"], p[:hi] - p[lo:hi].mean(axis=0)
            near = near_pairs(lo, hi, inv3) if d else (0.0, 0.0)
            mq = np.empty((hi, 4))  # [m, q.m]
            mq[:, :3] = m_t[:hi]
            np.einsum("ik,ik->i", q, m_t[:hi], out=mq[:, 3])
            fwd = inv3 @ mq
            np.einsum("ik,ik->i", q[lo:], fwd[:, :3], out=d_out[lo:hi])
            d_out[lo:hi] -= fwd[:, 3] - near[0]
            back = mq[lo:].T @ inv3[:, :lo]
            mirror_d = (np.einsum("ik,ki->i", q[:lo], back[:3]) - back[3]
                        + near[1])
        return lo, g[:, :lo].T @ x[lo:hi], mirror_d

    def fold(mirrored):
        lo, mirror_g, mirror_d = mirrored
        g_out[:lo] += mirror_g
        if mirror_d is not None:
            d_out[:lo] += mirror_d

    need = ("invR",) if m is None else ("invR", "invR3")
    PairGeometry(grid, lower=True).sweep(need, strip, fold)
    return g_out, d_out


def apply_pairs(grid, name, x):
    """sum_a ker[i, a] (eps w/4pi) x[a] of a pair kernel, matrix-free.

    x holds one density, (n_s, n_theta), or k of them, (n_s, n_theta, k),
    and w is the node weight.  The kernel is evaluated once per pair for all
    k columns, and no N x N array is stored, so DENSE_NODE_CAP does not bind.
    G = 1/|R| is symmetric in the pair and R_S3 is G on the source factor
    -eps khat, so "G", "RS3" and the R_S3 of "RS2+RS3" take the lower
    strips (_lower_apply), with 1/|R| once per unordered pair.  The
    rest take _pair_sweep's full rows: R_t takes the target's e_t, and a
    curved-minus-straight difference (RS1, RS2, RD1, RD) is subtracted
    pair by pair: R_S2 with 1/|R-bar| applied apart by FFT was 1.3e-13
    off, relative, on the circle at 128x16 and eps 1/128.
    """
    x = _density(grid, x, "x", columns=True)
    xw = x.reshape(grid.n_nodes, -1) * _eps_weight(grid)
    # what is left for full rows once the kernel's G part took the strips
    rest = {"G": None, "RS3": None, "RS2+RS3": "RS2"}
    out = None
    if name in rest:
        eps_kh = grid.epsilon * grid.khat.reshape(-1, 1)
        out = _lower_apply(grid, xw if name == "G" else -eps_kh * xw)[0]
        name = rest[name]
    if name is not None:
        rows_out = np.empty_like(xw)
        _pair_sweep(grid, name, lambda lo, hi, rows: np.matmul(
            rows, xw, out=rows_out[lo:hi]))
        out = rows_out if out is None else np.add(rows_out, out, out=rows_out)
    return out.reshape(x.shape)


def _dense_from_pairs(grid, name, weight="eps"):
    """Dense ker[i, a] weight[a] w/4pi of a pair kernel: apply_pairs' oracle.

    weight is eps, or J for weight="jacobian"."""
    _check_dense_cap(grid)
    out = np.empty((grid.n_nodes,) * 2)
    weight = grid.jacobian if weight == "jacobian" else grid.epsilon
    w_src = np.reshape(weight, -1) * (grid.node_weight / FOURPI)
    _pair_sweep(grid, name,
                lambda lo, hi, rows: np.multiply(rows, w_src, out=out[lo:hi]))
    return out


# the one-matrix punctured trapezoids and remainder pieces: oracles of
# the assemblies and apply_pairs in tests/; perfbench/tracer.py wraps them
def dense_single_layer_direct(grid, weight="jacobian"):
    """Punctured trapezoid of G times J (or times eps for weight='eps')."""
    return _dense_from_pairs(grid, "G", weight)


def dense_double_layer_direct(grid, weight="jacobian"):
    return _dense_from_pairs(grid, "KD", weight)


def straight_template(grid, kind, n_images=TAIL_IMAGES, central=False):
    """(s-hat, theta-hat) template of the straight kernel, without its 1/4pi.

    kind "S" is G-bar = 1/|R-bar|, kind "D" is K_D-bar = R-bar . n-bar_src
    /|R-bar|^3 with R-bar . n-bar_src = -2 eps sin^2(theta-hat/2).  Sums the
    images at s-hat + m for 1 <= |m| <= n_images; with central it also holds
    the punctured one-period term (0 at zero offset).
    """
    f = offset_fields(grid)
    c2 = (2.0 * grid.epsilon * np.sin(0.5 * f["that"])) ** 2
    rbar_n = -2.0 * grid.epsilon * np.sin(0.5 * f["that"]) ** 2

    def kernel(inv_r):
        return inv_r if kind == "S" else rbar_n * inv_r * inv_r * inv_r

    t = kernel(f["invRbar"]) if central else np.zeros_like(c2)
    for m in range(1, n_images + 1):
        for sgn in (1.0, -1.0):
            t = t + kernel(1.0 / np.sqrt((f["shat"] + sgn * m) ** 2 + c2))
    return t


def dense_straight_central(grid, kind):
    """Punctured trapezoid of the straight kernel over one s-period, weight eps."""
    _check_dense_cap(grid)
    t = straight_template(grid, kind, n_images=0, central=True)
    return _circulant_from_template(t * _eps_weight(grid))


def dense_tail(grid, kind, n_images=TAIL_IMAGES):
    """Straight-kernel image sum over 1/2 < |s-hat| <= M + 1/2, weight eps."""
    _check_dense_cap(grid)
    return _circulant_from_template(straight_template(grid, kind, n_images)
                                    * _eps_weight(grid))


def dense_spectral(grid, symbol_name):
    tab = FourierSymbol(symbol_name, grid.epsilon).table(grid.n_s, grid.n_theta)
    return symbol_dense_matrix(tab)


def dense_RS_kernel(grid, which):
    """Single-layer remainder pieces R_S1, R_S2, R_S3 (weight eps)."""
    return _dense_from_pairs(grid, f"RS{which}")


def dense_RD_kernel(grid, which):
    """Double-layer remainder pieces R_D1, R_D2 (weight eps)."""
    return _dense_from_pairs(grid, f"RD{which}")


def centerline_kernel(grid, points):
    """1/|x_i - X(s_a)| (no 1/4pi), m x n_s, for m points and the n_s
    centerline nodes, one coordinate at a time: the kernel of D' - D."""
    r2 = 0.0
    for p, x in zip(np.asarray(points, float).T, grid.X.T):
        d = p[:, None] - x
        r2 += np.square(d, out=d)
    return 1.0 / np.sqrt(r2)


def _add_centerline_correction(grid, d):
    """d += 1/|x - X(s')| (no 1/4pi) times J w (full trapezoid) in place:
    centerline_kernel's rows over the source thetas, one row chunk at a
    time (no N x n_s table)."""
    pts, jw = grid.flat_positions(), grid.jacobian * grid.node_weight
    rows = rows_per_chunk(grid.n_nodes)
    d3 = d.reshape(grid.n_nodes, grid.n_s, grid.n_theta)
    for lo in range(0, grid.n_nodes, rows):
        corr = centerline_kernel(grid, pts[lo:lo + rows])
        d3[lo:lo + rows] += corr[:, :, None] * jw
    return d


def dense_centerline_correction(grid):
    """The correction of D' alone (_add_centerline_correction on zeros)."""
    _check_dense_cap(grid)
    return _add_centerline_correction(grid, np.zeros((grid.n_nodes,) * 2))


# singular corrections of the direct backend ---------------------------------

def _epstein_series(A, B):
    """Chowla-Selberg series of Z(A, B) and of -B dZ/dB, Poisson-summed along A.

    Z(A, B) = (2/A)[gamma + ln(B/(4 pi A))] + (8/A) sum_{k,n>=1} K_0(2 pi k n B/A);
    the double sum is sum_p d(p) K_0(2 pi p B/A) with d(p) the divisor count.
    Valid for either ordering; it converges fastest for A <= B.
    """
    A, B = np.asarray(A, float), np.asarray(B, float)
    p_max = max(1, math.ceil(BESSEL_CUTOFF * np.max(A / B) / (2.0 * math.pi)))
    p = np.arange(1, p_max + 1)
    d = np.array([np.count_nonzero(q % p[:q] == 0) for q in p], float)
    x = 2.0 * math.pi * p * (B / A)[..., None]
    z = (2.0 / A) * (EULER_GAMMA + np.log(B / (4.0 * math.pi * A))) \
        + (8.0 / A) * np.sum(d * k0(x), axis=-1)
    z_bb = -2.0 / A + (8.0 / A) * np.sum(d * x * k1(x), axis=-1)
    return z, z_bb


def epstein_zeta(a, b):
    """Lattice sums over (m a, n b), (m, n) != 0, analytically continued.

    Returns (Z, Z_aa) with Z = sum' |(m a, n b)|^-1 and
    Z_aa = -a dZ/da = sum' (m a)^2 / |(m a, n b)|^3.  Z is homogeneous of
    degree -1, so Z_aa + Z_bb = Z.
    """
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    z, z_bb = _epstein_series(np.minimum(a, b), np.maximum(a, b))
    return z, np.where(a <= b, z - z_bb, z_bb)


def straight_dlp_line_sum(a, theta, epsilon):
    """a sum_{m in Z} Kbar_D(m a, theta) by Poisson summation (theta != 0).

    With c = 2 eps |sin(theta/2)| the sum is
    -(2 eps sin^2(theta/2)/4pi) [2/c^2 + (8 pi/(a c)) sum_{j>=1} j K_1(2 pi j c/a)];
    a and theta broadcast.
    """
    a, theta = np.broadcast_arrays(np.asarray(a, float),
                                   np.asarray(theta, float))
    c = 2.0 * epsilon * np.abs(np.sin(0.5 * theta))
    x = 2.0 * math.pi * c / a
    # k1 is the cost: one call per distinct x (x repeats wherever a does,
    # as around a circle), on the sorted x_u whose live terms are a prefix
    x_u, where = np.unique(x, return_inverse=True)
    alias, j = np.zeros(x_u.size), 1
    while live := np.count_nonzero(j * x_u < BESSEL_CUTOFF):
        alias[:live] += j * k1(j * x_u[:live])
        j += 1
    alias = alias[where].reshape(x.shape)
    return -(2.0 * epsilon * np.sin(0.5 * theta) ** 2 / FOURPI) * (
        2.0 / c ** 2 + (8.0 * math.pi / (a * c)) * alias)


def _local_weights(grid):
    """The direct backend's local weights: the S diagonal and the D rings.

    At local spacings (a, b) (module docstring) the S diagonal is
    -a b Z(a, b)/4pi, and ring[i_s, i_t, j_t], the D weight of source
    (i_s, j_t) at target (i_s, i_t), is IDFT_l[m_D(0, l) - L(l)] at theta
    offset i_t - j_t: -1/(2 n_theta) minus the punctured lattice sum L of the
    straight kernel, exact on the straight tube's k = 0 modes.  At offset 0
    the along-s curvature term takes the lattice sum's place.
    """
    eps, n_t, khat = grid.epsilon, grid.n_theta, grid.khat.reshape(-1)
    a, b = (1.0 - eps * khat) / grid.n_s, 2.0 * math.pi * eps / n_t
    z, z_aa = epstein_zeta(a, b)
    by_offset = np.empty((grid.n_nodes, n_t))
    by_offset[:, 1:] = -0.5 / n_t - b * straight_dlp_line_sum(
        a[:, None], 2.0 * math.pi * np.arange(1, n_t)[None, :] / n_t, eps)
    kappa_a = khat / (1.0 - eps * khat)
    by_offset[:, 0] = -0.5 / n_t - a * b * kappa_a * z_aa / (2.0 * FOURPI)
    t = np.arange(n_t)[:, None]
    ring = by_offset.reshape(grid.n_s, n_t, n_t)[:, t, (t - t.T) % n_t]
    return -a * b * z / FOURPI, ring


# assembled operators ---------------------------------------------------------

def _split_templates(grid):
    """The C_S (P0 applied) and C_D offset templates, each averaged with its
    reflection: even to the last bit, as they are in exact arithmetic, so
    a lower strip's gathered block serves both directions."""
    flip = np.ix_(-np.arange(grid.n_s) % grid.n_s,
                  -np.arange(grid.n_theta) % grid.n_theta)

    def template(name, kind):
        tab = FourierSymbol(name, grid.epsilon).table(grid.n_s, grid.n_theta)
        return symbol_template(tab) - (straight_template(grid, kind, central=True)
                                       * _eps_weight(grid))

    t_s = template("m_S", "S")
    t_s -= t_s.mean(axis=0)  # P0 on the S template
    return tuple(0.5 * (t + t[flip]) for t in (t_s, template("m_D", "D")))


def _assemble(grid, backend, first_kind):
    """With first_kind (A, B, |A| column sums), A = S_h diag(1/J) and B =
    (1/2 I - D_h) E, N x n_s, else D_h alone, from one lower pair sweep.

    Each strip's 1/|R| times w/4pi, plus split's gathered C_S P0 / eps, is
    A's rows [lo, hi) over the sources [0, hi), written forward and
    transposed into [0, lo) x [lo, hi).  1/|R| and the split templates are
    even to the last bit, so A is exactly symmetric, and the |A| sums of
    the strip's rows and of its mirror's columns are A's column sums.  Its
    R_k/|R|^3 give D_h both ways (_lower_apply), source weight J w/4pi,
    plus split's C_D J/eps from the same gathered block.  B keeps only
    their theta-block sums, the mirrored ones by GEMMs against the block
    indicator, added in strip order like _lower_apply's.  Direct's S
    diagonal (over J) and D ring go on after the sweep.

    K_D stays on R's components here, not on _lower_apply's 1/|R|^3 and
    GEMMs: with the same K = 4 numerator, assemble_first_kind at 256x16
    went 197 -> 248 ms with 2 BLAS threads (each GEMM in a sweep thread
    starts its own), though 184 -> 177 ms with 1.
    """
    if backend not in ("direct", "split"):
        raise ValueError(f"unknown backend '{backend}'")
    _check_dense_cap(grid)
    n, n_s, n_t = grid.n_nodes, grid.n_s, grid.n_theta
    w = grid.node_weight / FOURPI
    jac = grid.flat_jacobian()
    nw = grid.flat_normals().T * (jac * w)  # (3, N): n_k J w/4pi at a source
    split = backend == "split"
    if split:  # strips of C_S and C_D are gathered
        t_s, t_d = _split_templates(grid)
        templates = ({"C_S": t_s / grid.epsilon, "C_D": t_d} if first_kind
                     else {"C_D": t_d})
        col = jac / grid.epsilon
    else:
        templates, (s_diag, ring) = {}, _local_weights(grid)
    if first_kind:
        a, a_sums, d_out = np.empty((n, n)), np.empty(n), np.zeros((n, n_s))
    else:
        d_out = np.empty((n, n))
    ones = np.ones(n_t)

    def strip(lo, hi, f):  # in place on the strip's fields
        q = f["Rinv3"]
        if first_kind:
            rows = np.multiply(f["invR"], w, out=a[lo:hi, :hi])
            if split:
                rows += f["C_S"]
            a[:lo, lo:hi] = rows[:, :lo].T
            mag = np.abs(rows, out=f["invR"])
            mag.sum(axis=1, out=a_sums[lo:hi])
            a_mirror = mag[:, :lo].sum(axis=0)
            # the theta-block sums of D_h[:lo, lo:hi], by GEMMs
            blocks = np.arange(lo, hi) // n_t
            e = blocks[:, None] == np.arange(blocks[0], blocks[-1] + 1)
            mirror = -sum(q[k][:, :lo].T @ (nw[k, lo:hi, None] * e)
                          for k in range(3))
            if split:
                mirror += f["C_D"][:, :lo].T @ (col[lo:hi, None] * e)
        else:  # D_h[:lo, lo:hi]: -sum_k R_k/|R|^3 n_k J w/4pi (+ C_D J/eps)
            mirror, tmp = f["invR3"][:, :lo], f["invR"][:, :lo]
            np.multiply(q[0][:, :lo], -nw[0, lo:hi, None], out=mirror)
            for k in (1, 2):
                mirror -= np.multiply(q[k][:, :lo], nw[k, lo:hi, None],
                                      out=tmp)
            if split:
                mirror += np.multiply(f["C_D"][:, :lo], col[lo:hi, None],
                                      out=tmp)
            d_out[:lo, lo:hi] = mirror.T
        # D_h's rows [lo, hi) over [0, hi), in place on R_0/|R|^3
        d = np.multiply(q[0], nw[0, :hi],
                        out=q[0] if first_kind else d_out[lo:hi, :hi])
        for k in (1, 2):
            d += np.multiply(q[k], nw[k, :hi], out=q[k])
        if split:
            d += np.multiply(f["C_D"], col[:hi], out=f["C_D"])
        if not first_kind:
            return None
        # their theta-block sums: whole blocks, then the part of one
        whole = hi // n_t
        np.negative(d[:, :whole * n_t].reshape(hi - lo, whole, n_t) @ ones,
                    out=d_out[lo:hi, :whole])
        if whole * n_t < hi:
            d_out[lo:hi, whole] = -d[:, whole * n_t:].sum(axis=1)
        return lo, a_mirror, mirror

    def fold(mirrored):
        lo, a_mirror, b_mirror = mirrored
        a_sums[:lo] += a_mirror
        d_out[:lo, lo // n_t:lo // n_t + b_mirror.shape[1]] -= b_mirror

    PairGeometry(grid, templates=templates, lower=True).sweep(
        ("invR", "Rinv3", *templates), strip, fold if first_kind else None)
    own = np.arange(n), np.arange(n) // n_t  # each row's own theta-block
    if not first_kind:
        if not split:
            d_out.reshape(n, n_s, n_t)[own] += ring.reshape(n, n_t)
        return d_out
    if not split:
        a_diag = s_diag / jac
        a.flat[::n + 1] += a_diag
        a_sums += np.abs(a_diag)
        d_out[own] -= ring.reshape(n, n_t).sum(axis=1)
    d_out[own] += 0.5
    return a, d_out, a_sums


def assemble_first_kind(grid, backend="direct"):
    """(A, B, |A| column sums) of the solves, from one pair sweep: A = S_h
    diag(1/J), symmetric, and B = (1/2 I - D_h) E the N x n_s theta-block
    sums of D_h, which is never stored: their data are theta-independent."""
    return _assemble(grid, backend, first_kind=True)


def apply_pair(grid, backend, phi, psi):
    """(S_h phi, D_h psi) of either backend: the dense assemblies' matrix-free
    twin.

    The same lower pair sweep (_lower_apply) evaluates each unordered pair
    once, against phi and n psi with the source weight J w/4pi folded into
    both, and stores no N x N array, so it is not capped.  The split
    corrections go on by FFT, so no template is gathered.
    """
    if backend not in ("direct", "split"):
        raise ValueError(f"unknown backend '{backend}'")
    phi, psi = _density(grid, phi, "phi"), _density(grid, psi, "psi")
    w_src = grid.jacobian * (grid.node_weight / FOURPI)
    n_psi = grid.flat_normals().T * (psi * w_src).reshape(-1)  # (3, N): n psi
    s_out, d_out = (y.reshape(phi.shape) for y in _lower_apply(
        grid, (phi * w_src).reshape(-1), n_psi))
    if backend == "split":
        t_s, t_d = _split_templates(grid)
        s_out += apply_symbol(np.fft.fftn(t_s), phi * grid.jacobian / grid.epsilon)
        d_out += apply_symbol(np.fft.fftn(t_d), psi * grid.jacobian / grid.epsilon)
    else:
        s_diag, ring = _local_weights(grid)
        s_out += s_diag.reshape(phi.shape) * phi
        d_out += np.einsum("stj,sj->st", ring, psi)
    return s_out, d_out


# assemble_S and assemble_D: perfbench/tracer.py wraps them
def assemble_S(grid, backend="direct"):
    """Single layer S[phi] = int G phi dS: S_h = A diag(J) of
    assemble_first_kind."""
    a = assemble_first_kind(grid, backend)[0]
    a *= grid.flat_jacobian()
    return a


def assemble_D(grid, backend="direct"):
    """Double layer D[psi] = int K_D psi dS: D_h of either backend, from one
    pair sweep of K_D alone."""
    return _assemble(grid, backend, first_kind=False)


def assemble_Dprime(grid, backend="direct"):
    """Modified double layer: D plus the centerline-distance correction.

    The correction kernel 1/|x - X(s')| is bounded by 1/eps on the surface
    and removes the constant null space of 1/2 I + D.
    """
    return _add_centerline_correction(grid, assemble_D(grid, backend))


def theta_integral(grid, x, weight):
    """int_0^{2pi} x(s, theta) weight(s, theta) dtheta per s-node.

    x holds surface samples as (n_s, n_theta) or as N rows, with any
    trailing columns, which are kept; weight is a scalar or (n_s, n_theta).
    """
    x = np.asarray(x)
    cols = x.shape[1:] if x.shape[0] == grid.n_nodes else x.shape[2:]
    w = np.broadcast_to(weight, (grid.n_s, grid.n_theta))
    q = np.einsum("itk,it->ik", x.reshape(grid.n_s, grid.n_theta, -1), w)
    return (q * (2.0 * math.pi / grid.n_theta)).reshape((grid.n_s,) + cols)


def mean_in_s_columns(grid, h_profile):
    """The two densities of mean_in_s_split's G apply, (n_s, n_theta, 2):
    h(theta) constant in s, and -eps khat h, on which G is R_S3."""
    ext = np.tile(np.asarray(h_profile, float), (grid.n_s, 1))
    return np.stack([ext, -grid.epsilon * grid.khat * ext], axis=-1)


def mean_in_s_split(grid, h_profile, g=None):
    """Split Sbar^{-1} int_0^{2pi} S[h(theta)] eps dtheta at |k| = 1/(2 pi eps).

    Returns (H_eps, H_plus) as (n_s,) arrays (arrays out, as everywhere
    but the solver's results): the high-pass part plus the curvature term,
    and the low-pass part.  The sharp Fourier cutoff at 1/(2 pi eps) stands
    in for the dyadic projection at the same frequency.  The k = 0 mode
    carries no information here (Sbar^{-1} is undefined there) and is
    projected out.  g is apply_pairs(grid, "G", mean_in_s_columns(grid,
    h_profile)), G at weight eps and R_S3 on h in one sweep; a caller with
    more G to apply passes it from a sweep they share.
    """
    if g is None:
        g = apply_pairs(grid, "G", mean_in_s_columns(grid, h_profile))
    h1, h2 = theta_integral(grid, g, grid.epsilon).T

    high = np.abs(s_modes(grid.n_s)) >= 1.0 / (2.0 * math.pi * grid.epsilon)
    tab = FourierSymbol("m_S_inv", grid.epsilon).table(grid.n_s)  # 0 at k = 0
    h_eps = apply_symbol(tab * high, h1) + apply_symbol(tab, h2)
    h_plus = apply_symbol(tab * ~high, h1)
    return h_eps, h_plus
