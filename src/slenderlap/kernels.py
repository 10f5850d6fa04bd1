r"""Kernel evaluations on the curved tube and their straight comparisons.

Displacement vectors between the target x(s, theta) and source
x(s - s-hat, theta - theta-hat):

    R      = x - x'                                    (curved, exact)
    R_t    = s-hat e_t(s) + eps (e_r(s,theta) - e_r(s-s-hat, theta-theta-hat))
    R-bar  : |R-bar|^2 = s-hat^2 + 4 eps^2 sin^2(theta-hat/2)   (straight)
    R_even : |R-bar|^2 + eps s-hat^2 Q_0(s,theta) + k3 eps^2 s-hat sin(theta-hat),
             Q_0 = -2 khat + eps khat^2 + eps k3^2

Kernels (all with the 1/(4 pi) fundamental-solution normalization, which the
pair-kernel table of operators moves into the source weight):

    G     = (1/4pi) / |R|
    K_D   = (1/4pi) (R . n_x') / |R|^3,   n_x' outward at the source
    G-bar = (1/4pi) / |R-bar|
    K_D-bar = (1/4pi) (-2 eps sin^2(theta-hat/2)) / |R-bar|^3

The curved kernels use exact surface positions; the truncated expansions
appear only in tests.
"""

from __future__ import annotations

import math
import os
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .grid import SurfaceGrid, offset_templates
from .spectral import circulant_rows, offset_windows

FOURPI = 4.0 * math.pi


def sweep_cpus():
    """CPUs a pair sweep runs on: those in the process's affinity mask."""
    return len(os.sched_getaffinity(0))


# pair sweeps go in row chunks of about this many pairs, one chunk in flight
# per CPU, each in its taker's scratch (PairGeometry.sweep).  Numpy releases
# the GIL once per call, so calls must be long: on 2 CPUs the RS2+RS3 apply
# at 128x16 took 85-94 ms with 2^15-pair chunks, 66-68 ms with 2^16 and 62-73
# with 2^17; a 2^16-pair chunk's two buffers of R_S2 (1 MB) fit one core's L2.
CHUNK_PAIRS = 1 << 16
# pairs of a lower strip against its sources (lower_strips): a constant, not
# CHUNK_PAIRS, so the strips follow the node count alone
STRIP_PAIRS = 1 << 16


def rows_per_chunk(n_nodes):
    """Rows per pair-sweep chunk: about CHUNK_PAIRS pairs, a multiple of 4
    (OpenBLAS's GEMV takes rows in fours, so any such chunking rounds alike)."""
    return 4 * max(1, CHUNK_PAIRS // (4 * n_nodes))


def _aligned_empty(shape):
    """np.empty(shape) on a 64-byte line (outputs 16 bytes off took 1.6x)."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    k = -raw.ctypes.data % 64 // 8
    return raw[k:k + size].reshape(shape)


# vectorized pair sweeps ------------------------------------------------------

def lower_strips(n_nodes):
    """Row strips [lo, hi) of a lower pair sweep: r = hi - lo is the largest
    multiple of 4 (at least 4) with r (lo + r) <= STRIP_PAIRS, so a strip
    against its sources [0, hi) is about one chunk of pairs.  The rule is
    fixed, not CHUNK_PAIRS, so the strips, and the order in which a sweep
    adds up their mirrored sums, depend on n_nodes alone."""
    lo = 0
    while lo < n_nodes:
        r = (math.isqrt(lo * lo + 4 * STRIP_PAIRS) - lo) // 2
        hi = min(lo + 4 * max(1, r // 4), n_nodes)
        yield lo, hi
        lo = hi


class PairGeometry:
    """Row-chunked pairwise geometry over (target, source) node pairs.

    Chunks iterate over flattened target indices, rows_per_chunk at a time,
    and sweep runs them on every CPU; every field of a chunk is an array of
    shape (chunk, N) against all N sources.
    With lower, the chunks are lower_strips instead, and each strip's fields
    are against its sources [0, hi) alone: every pair (i, a) with a <= i lies
    in exactly one strip, the one holding row i.  That serves kernels
    symmetric in the pair, and the offset templates, which are even: a
    strip gathers them over [0, hi) too.  R_t, which takes the target's
    e_t, has no strip form.
    """

    def __init__(self, grid: SurfaceGrid, templates=None, lower=False):
        self.grid = grid
        self.lower = lower
        g = grid
        self.P, self.NRM = g.flat_positions(), g.flat_normals()
        self.KH = g.khat.reshape(-1)
        self.i_s = np.arange(g.n_nodes) // g.n_theta
        self.eps = g.epsilon
        # positions and normals one component per row
        self._pt = np.ascontiguousarray(self.P.T)
        self._pt_n = np.ascontiguousarray(self.NRM.T)
        self._templates = {**offset_fields(g), **(templates or {})}
        self._tables = {}
        self._rt_factors = None  # R_t's GEMM factors, built on first use

    def chunks(self):
        n = self.grid.n_nodes
        if self.lower:
            yield from lower_strips(n)
            return
        rows = rows_per_chunk(n)
        for lo in range(0, n, rows):
            yield lo, min(lo + rows, n)

    def n_sources(self, hi):
        """Sources of the chunk ending at row hi: [0, hi) if lower, or all."""
        return hi if self.lower else self.grid.n_nodes

    def sweep(self, need, body, fold=None):
        """body(lo, hi, fields(lo, hi, need, scratch)) per chunk, and fold of
        each of its results in chunk order.

        The caller and sweep_cpus() - 1 pool threads take the chunks in turn,
        each with its own scratch of flat buffers of the largest chunk's
        pairs, carved on first use from one block that the caller allocates
        per sweep, so no chunk allocates a field (and glibc keeps the block's
        pages for the next sweep).  A chunk's fields are views into its
        taker's scratch that body may overwrite.  body writes only what
        belongs to its own pairs (rows [lo, hi), or their mirror images
        [0, lo) x [lo, hi) in a lower sweep); fold(result), which may add
        to any, runs under the sweep's lock as soon as every earlier chunk's
        result has been folded, so what it adds up does not depend on which
        thread ran which chunk; without fold, sweep returns the results in
        chunk order.  A failed chunk stops the sweep, and its exception is
        raised here.
        """
        todo, lock, failed = enumerate(self.chunks()), threading.Lock(), []
        results, pending, n_folded = [], {}, 0
        fold = fold or results.append
        n_pool = sweep_cpus() - 1
        # slots of whole 64-byte lines, as many as fields writes
        pairs = max((hi - lo) * self.n_sources(hi) for lo, hi in self.chunks())
        block = _aligned_empty((n_pool + 1, self.slots(need),
                                -(-pairs // 8) * 8))
        mine, *theirs = (defaultdict(iter(part).__next__) for part in block)

        def finish(i, result):  # under the lock
            nonlocal n_folded
            pending[i] = result
            while n_folded in pending:
                fold(pending.pop(n_folded))
                n_folded += 1

        _, (lo, hi) = next(todo)  # fills the lazy tables before any thread
        finish(0, body(lo, hi, self.fields(lo, hi, need, mine)))

        def take():
            with lock:
                return None if failed else next(todo, None)

        def work(buffers):
            for i, (lo, hi) in iter(take, None):
                try:
                    result = body(lo, hi, self.fields(lo, hi, need, buffers))
                    with lock:
                        finish(i, result)
                except BaseException:
                    failed.append(i)  # the others take no more chunks
                    raise

        with ThreadPoolExecutor(max(1, n_pool)) as pool:  # a thread per submit
            futures = [pool.submit(work, buffers) for buffers in theirs]
            work(mine)
        for f in futures:
            f.result()
        return results

    def slots(self, need):
        """Scratch buffers fields(need) writes: one per gathered template and
        for 1/|R_t|; |R| or 1/|R| (and 1/|R|^3) take two, and five with the
        components of R/|R|^3."""
        names = set(need)
        if "absReven" in names:
            names |= {"shat", "that", "absRbar"}
        n = len(names & self._templates.keys()) + ("invRt" in names)
        if "Rinv3" in names:
            return n + 5
        return n + 2 * bool(names & {"absR", "invR", "invR3"})

    def gather(self, name, lo, hi, out):
        """Offset template `name` at the pairs of rows [lo, hi), into out."""
        if name not in self._tables:
            self._tables[name] = offset_windows(self._templates[name])
        return circulant_rows(self._tables[name], lo, hi, out)

    def _rt_squared(self, lo, hi, out):
        """|R_t|^2 at rows [lo, hi) into out, one GEMM per target ring.

        With s = s-hat, n_i and n_a the target's and the source's e_r,
        |R_t|^2 = |s e_t + eps n_i - eps n_a|^2 is s^2 |e_t|^2
        + 2 eps s (e_t . n_i) + eps^2 |n_i|^2 - 2 eps s (e_t . n_a)
        - 2 eps^2 (n_i . n_a) + eps^2 |n_a|^2: per-row factors against the
        per-source rows (n_a, |n_a|^2, 1, s n_a, s, s^2), of which the first
        five do not depend on the ring and are built once.  Where |s| <= eps
        the terms cancel (same-theta pairs on nearby rings), so the GEMM
        lost about 3x the accuracy of the component form; those rings take
        the components s e_t + eps (n_i - n_a) instead, which also gives
        exactly 0 at the self-pair.
        """
        g, eps, n_t = self.grid, self.eps, self.grid.n_theta
        if self._rt_factors is None:
            nrm, e_t = self.NRM, g.e_t[self.i_s]
            nn = np.einsum("ik,ik->i", nrm, nrm)
            left = np.column_stack([
                -2.0 * eps * eps * nrm, np.full(g.n_nodes, eps * eps),
                eps * eps * nn, -2.0 * eps * e_t,
                2.0 * eps * np.einsum("ik,ik->i", e_t, nrm),
                np.einsum("ik,ik->i", e_t, e_t)])
            fixed = np.vstack([nrm.T, nn, np.ones(g.n_nodes)])
            # s-hat of the pair (ring, a) is shat[ring_a - ring] of this
            # doubled table: ring's row of sources is one window of it
            shat = np.repeat(np.tile(
                self._templates["shat"][-np.arange(g.n_s) % g.n_s, 0], 2), n_t)
            d = math.floor(eps * g.n_s)  # ring offsets with |s-hat| <= eps
            self._rt_factors = left, fixed, shat, np.arange(-d, d + 1)
        left, fixed, shat, near = self._rt_factors
        s_near = shat[near % g.n_s * n_t]
        n_by_ring = self._pt_n.reshape(3, g.n_s, n_t)
        right = np.empty((10, g.n_nodes))
        right[:5] = fixed
        a = lo
        while a < hi:
            ring = self.i_s[a]
            b = min((ring + 1) * n_t, hi)
            s = shat[-ring % g.n_s * n_t:][:g.n_nodes]
            np.multiply(fixed[:3], s, out=right[5:8])
            right[8] = s
            np.square(s, out=right[9])
            np.matmul(left[a:b], right, out=out[a - lo:b - lo])
            rings = (ring + near) % g.n_s
            c = self._pt_n[:, a:b, None, None] - n_by_ring[:, None, rings]
            c *= eps
            c += (g.e_t[ring][:, None] * s_near)[:, None, :, None]
            np.square(c, out=c)
            out[a - lo:b - lo].reshape(b - a, g.n_s, n_t)[:, rings] = (
                c[0] + c[1] + c[2])
            a = b
        return out

    def fields(self, lo, hi, need=("absR",), scratch=None):
        """Compute the requested pair fields for target rows [lo, hi).

        The offset_fields and the templates given at construction are
        gathered.  "diag": the target's column.  "absR": |R|; "absReven":
        |R_even|.  "invR" and "invRt" are 1/|R| and 1/|R_t|, 0 at the
        self-pair like "invRbar": the one place a pair sweep drops it.
        "invR3" (with invR) is 1/|R|^3, so 0 there too, and "Rinv3" (with
        invR and invR3) is the three components of R/|R|^3: K_D is their
        sum against n_src.  Only the requested fields are built, into
        scratch (see sweep and slots) or, without it, into new arrays.  |R|
        goes component by component, with no (chunk, N, 3) temporary, and
        1/|R|^3 alone takes the buffer of the components.  |R_t|^2 is one
        GEMM of K = 10 per target ring (_rt_squared).  A name it does not
        build is a ValueError.
        """
        g, rows, names = self.grid, hi - lo, set(need)
        cols = self.n_sources(hi)
        unknown = names - self._templates.keys() - {
            "diag", "absR", "invR", "invR3", "Rinv3", "invRt", "absReven"}
        if unknown:
            raise ValueError(f"unknown pair fields {sorted(unknown)}")

        def buf(name):
            return (np.empty((rows, cols)) if scratch is None
                    else scratch[name][:rows * cols].reshape(rows, cols))

        out = {}

        def distance(name, sq):
            """|.| from its square in place, or 1/|.| for an "inv" name:
            inf at the self-pair first, so 1/inf = 0 there."""
            r = np.sqrt(sq, out=sq).reshape(rows, -1)
            if name.startswith("inv"):
                r[np.arange(rows), np.arange(lo, hi)] = np.inf
                np.divide(1.0, r, out=r)
            out[name] = r

        for name in need:
            if name in self._templates:
                out[name] = self.gather(name, lo, hi, buf(name))
        if "diag" in names:
            out["diag"] = np.zeros((rows, cols), dtype=bool)
            out["diag"][np.arange(rows), np.arange(lo, hi)] = True
        if {"absR", "invR", "invR3", "Rinv3"} & names:
            name = "invR" if {"invR", "invR3", "Rinv3"} & names else "absR"
            keep = "Rinv3" in names  # R's components stay for R/|R|^3
            r2, t = buf(name), buf("t" if keep else "d")
            comps = [buf(f"R{k}") for k in range(3)] if keep else [t] * 3
            # sums start at their first term: 0.0 + it, up to -0.0
            for k, (p, d) in enumerate(zip(self._pt, comps)):
                np.subtract(p[lo:hi, None], p[:cols], out=d)
                sq = np.square(d, out=r2 if k == 0 else t)
                if k:
                    r2 += sq
            distance(name, r2)
            if {"invR3", "Rinv3"} & names:
                inv = out["invR"]
                inv3 = np.multiply(np.multiply(inv, inv, out=t), inv, out=t)
                out["invR3"] = inv3
                if keep:
                    out["Rinv3"] = [np.multiply(d, inv3, out=d) for d in comps]
        if "invRt" in names:
            distance("invRt", self._rt_squared(lo, hi, buf("invRt")))
        if "absReven" in names:
            shat, that, absrbar = (self.gather(k, lo, hi, buf(k))
                                   for k in ("shat", "that", "absRbar"))
            q0 = (-2.0 * self.KH[lo:hi] + self.eps * self.KH[lo:hi] ** 2
                  + self.eps * g.kappa3 ** 2)
            r2 = (absrbar ** 2 + self.eps * shat ** 2 * q0[:, None]
                  + g.kappa3 * self.eps ** 2 * shat * np.sin(that))
            out["absReven"] = np.sqrt(np.maximum(r2, 0.0))
        return out


def offset_fields(grid: SurfaceGrid):
    """(n_s, n_theta) templates over (s-hat, theta-hat) of the fields that
    depend on the offset alone: "shat", "that", "absRbar" = |R-bar| and
    "invRbar" = 1/|R-bar|, 0 at zero offset."""
    sh, th = np.meshgrid(*offset_templates(grid.n_s, grid.n_theta),
                         indexing="ij")
    absrbar = np.sqrt(sh ** 2 + (2.0 * grid.epsilon * np.sin(0.5 * th)) ** 2)
    invrbar = np.divide(1.0, absrbar, out=np.zeros_like(absrbar),
                        where=absrbar > 0.0)
    return {"shat": sh, "that": th, "absRbar": absrbar, "invRbar": invrbar}


def check_geometric_inequalities(grid: SurfaceGrid):
    """Sweep all grid pairs and verify the displacement-vector inequalities.

    Returns a report with the empirical constants and any violations:
      (i)   ||R| - |R-bar||  <= (kappa_*/2) s-hat^2 + c eps |s-hat|
      (ii)  |R| >= c |R-bar| with empirical c > 0
      (iii) ||R-bar| - sqrt(s-hat^2 + eps^2 theta-hat^2)|
               <= (sinh(pi) - pi) eps |theta-hat|^3   (analytic, zero tolerance)
      (iv)  |R-bar| >= c sqrt(s-hat^2 + eps^2 theta-hat^2) with c >= 0.2
    """
    eps = grid.epsilon
    kappa_star = grid.spec.frame.kappa_star
    sinh_const = math.sinh(math.pi) - math.pi

    def chunk(lo, hi, f):
        mask = ~f["diag"]
        absR, absRbar = f["absR"], f["absRbar"]
        shat, that = f["shat"], f["that"]
        # (i) empirical c in the eps |s-hat| slack
        gap = np.abs(absR - absRbar) - 0.5 * kappa_star * shat ** 2
        smask = mask & (np.abs(shat) > 0)
        c1 = np.max(gap[smask] / (eps * np.abs(shat[smask])), initial=0.0)
        # (ii)
        c2 = np.min(absR[mask] / absRbar[mask])
        # (iii) exact inequality
        flat = np.sqrt(shat ** 2 + (eps * that) ** 2)
        lhs = np.abs(absRbar - flat)
        rhs = sinh_const * eps * np.abs(that) ** 3
        bad = mask & (lhs > rhs + 1e-15)
        worst = np.max(lhs[bad] - rhs[bad], initial=-math.inf)
        # (iv)
        fmask = mask & (flat > 0)
        c4 = np.min(absRbar[fmask] / flat[fmask])
        return c1, c2, np.count_nonzero(bad), worst, c4

    c1, c2, viol, worst, c4 = zip(*PairGeometry(grid).sweep(
        ("absR", "absRbar", "shat", "that", "diag"), chunk))
    viol, c2_min, c4_min = int(sum(viol)), float(min(c2)), float(min(c4))
    return {
        "xest1_c_sup": float(max(c1)),
        "xest2_c_min": c2_min,
        "flat2cyl1_violations": viol,
        "flat2cyl1_worst_excess": float(max(worst)) if viol else None,
        "flat2cyl2_c_min": c4_min,
        "pass": (viol == 0) and (c2_min > 0.0) and (c4_min >= 0.2),
    }


def _punctured_row_sum(grid, target, need, fn):
    """eps w sum over sources a != target of fn(pair fields of the target row)."""
    lo = target[0] * grid.n_theta + target[1]
    f = PairGeometry(grid).fields(lo, lo + 1, (*need, "diag"))
    off = ~f.pop("diag")[0]
    vals = fn({k: v[0, off] for k, v in f.items()})  # the sources a != target
    return float(np.sum(vals) * grid.node_weight * grid.epsilon)


def oddness_residual(grid: SurfaceGrid, n_pow, m_pow, target=(0, 0)):
    """Punctured symmetric sum of s^n (eps sin(t/2))^m / |R_even|^{n+m+2}.

    Exactly zero in the principal-value sense for odd n+m; the discrete sum
    picks up O(h) boundary asymmetry from the unpaired s-hat = 1/2 and
    theta-hat = pi rows.
    """
    return _punctured_row_sum(
        grid, target, ("absReven", "shat", "that"),
        lambda f: (f["shat"] ** n_pow * (grid.epsilon * np.sin(0.5 * f["that"]))
                   ** m_pow / f["absReven"] ** (n_pow + m_pow + 2)))


def basic_integral(grid: SurfaceGrid, k_pow, alpha, target=(0, 0), use_straight=False):
    """Punctured trapezoid of |R|^{-(k-alpha)} eps over the offset torus."""
    r = "absRbar" if use_straight else "absR"
    return _punctured_row_sum(grid, target, (r,),
                              lambda f: f[r] ** -(k_pow - alpha))
