"""In-memory span tracer for slenderlap, applied from outside the library.

The tracer replaces the library's public entry points with timing wrappers
at the places where their callers look them up (a module attribute, or a
class attribute for methods and properties) and puts the originals back on
``restore``.  No library source is edited.

Each wrapped call records one span: its name, the name of the span that
caused it, its duration and its self time (duration minus the time covered
by its child spans).  Spans stay in memory; ``layer_metrics`` turns them
into the per-layer numbers of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

import numpy as np

from slenderlap import analysis, geometry, grid, kernels, operators, solver
from slenderlap import specfun, spectral

_DENSE_BUILDERS = ("dense_single_layer_direct", "dense_double_layer_direct",
                   "dense_straight_central", "dense_tail", "dense_spectral",
                   "dense_RS_kernel", "dense_RD_kernel",
                   "dense_centerline_correction")
_BESSEL = ("bessel_I", "bessel_I_scaled", "bessel_K", "bessel_K_scaled",
           "bessel_I_seq", "bessel_K_seq_scaled", "bessel_ratio_K1K0",
           "bessel_ratio_I1I0")

# per-layer time metric -> spans whose self time it sums; a (name, parent)
# pair selects only the spans of that name opened directly under the parent
LAYER_SECONDS = {
    "geometry.centerline_s": ["geometry.build_centerline"],
    "geometry.frame_s": ["geometry.build_frame"],
    "grid.make_grid_s": ["grid.make_grid"],
    "grid.holder_s": ["grid.holder_norm"],
    "kernels.pair_fields_s": ["kernels.pair_fields"],
    "operators.fill_s": ["operators.dense"],
    "operators.assemble_s": ["operators.assemble"],
    "spectral.symbol_table_s": ["spectral.symbol_table"],
    "spectral.circulant_s": ["spectral.circulant"],
    "specfun.bessel_s": ["specfun.bessel"],
    "solver.lu_s": ["solver.lu_S", ("solver.factor", "solver.lu_S")],
    "solver.cond_s": ["solver.cond_S", ("solver.factor", "solver.cond_S")],
    "solver.aug_lu_s": [("solver.factor", "solver.ntd")],
    "solver.greens_s": ["solver.greens"],
    "analysis.decompose_s": ["analysis.decompose_dtn"],
    "analysis.study_s": ["analysis.run_scaling_study"],
}
# per-call median self time, in ms
LAYER_MS_PER_CALL = {
    "solver.dtn_ms": "solver.dtn",
    "solver.ntd_ms": "solver.ntd",
    "solver.neumann_ms": "solver.neumann",
}
LAYER_COUNTS = ("kernels.pairs", "kernels.sweeps_per_matrix",
                "operators.dense_arrays", "operators.dense_bytes",
                "spectral.symbol_evals", "specfun.calls", "grid.holder_pairs")
ROOT_SPANS = ("bench.setup", "bench.item")
UNITS = {**{m: "s" for m in LAYER_SECONDS},
         **{m: "ms" for m in LAYER_MS_PER_CALL},
         **{m: "count" for m in LAYER_COUNTS},
         "operators.dense_bytes": "B", "solver.neumann_iters": "count",
         "trace.unattributed_s": "s"}


class Tracer:
    """Span recorder with install/restore of the library wrappers."""

    def __init__(self):
        self.active = False
        self.spans = []        # (name, parent, duration, self_time)
        self.counts = defaultdict(float)
        self.neumann_iters = []
        self._stack = []       # [name, start, child_time]
        self._patches = []

    # spans -----------------------------------------------------------------

    def open(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += dur
        self.spans.append((name, parent, dur, dur - child))

    def _wrap_fn(self, fn, name, after=None, nest=True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (
                    not nest and tracer._stack and tracer._stack[-1][0] == name):
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _count_fn(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # installation ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, property):
            new = property(make(raw.fget))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def wrap(self, owners, attr, name, after=None, nest=True):
        for owner in owners:
            self._patch(owner, attr,
                        lambda fn: self._wrap_fn(fn, name, after, nest))

    def install(self):
        """Wrap every layer entry point where its callers bind it."""
        w = self.wrap
        w([geometry], "build_centerline", "geometry.build_centerline")
        w([geometry], "build_frame", "geometry.build_frame")
        w([grid, analysis], "make_grid", "grid.make_grid")
        w([grid, analysis], "holder_norm", "grid.holder_norm",
          after=self._count_holder)
        w([kernels.PairGeometry], "fields", "kernels.pair_fields",
          after=self._count_pairs)
        for fn in _DENSE_BUILDERS:
            owners = [operators] + ([analysis] if hasattr(analysis, fn) else [])
            w(owners, fn, "operators.dense", after=self._count_dense)
        w([operators, solver], "assemble_S", "operators.assemble")
        w([operators, solver], "assemble_D", "operators.assemble")
        w([analysis], "decomposition_operators", "operators.assemble")
        w([spectral.FourierSymbol], "table", "spectral.symbol_table")
        self._patch(spectral.FourierSymbol, "evaluate",
                    lambda fn: self._count_fn(fn, "spectral.symbol_evals"))
        w([spectral, operators], "symbol_dense_matrix", "spectral.circulant")
        w([operators], "_circulant_from_template", "spectral.circulant")
        for fn in _BESSEL:
            w([specfun], fn, "specfun.bessel", after=self._count_bessel,
              nest=False)
        w([solver.SlenderBodySolver], "lu_S", "solver.lu_S")
        w([solver.SlenderBodySolver], "cond_S", "solver.cond_S")
        w([solver], "lu_factor", "solver.factor")
        w([solver], "_cond_estimate", "solver.factor")
        w([solver.SlenderBodySolver], "dtn", "solver.dtn")
        w([solver.SlenderBodySolver], "ntd", "solver.ntd")
        w([solver.SlenderBodySolver], "neumann_series_ntd", "solver.neumann",
          after=lambda args, out: self.neumann_iters.append(len(out[1])))
        w([solver], "greens_ladder", "solver.greens")
        w([solver], "greens_identity_residual", "solver.greens")
        w([analysis], "decompose_dtn", "analysis.decompose_dtn")
        w([analysis], "run_scaling_study", "analysis.run_scaling_study")

    def restore(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # counters ----------------------------------------------------------------

    def _count_pairs(self, args, out):
        pg, lo, hi = args[0], args[1], args[2]
        n = pg.grid.n_nodes
        self.counts["kernels.pairs"] += (hi - lo) * n
        self.counts["kernels.sweeps_per_matrix"] += (hi - lo) / n

    def _count_dense(self, args, out):
        if isinstance(out, np.ndarray) and out.ndim == 2 \
                and out.shape[0] == out.shape[1] and out.dtype == np.float64:
            self.counts["operators.dense_arrays"] += 1
            self.counts["operators.dense_bytes"] += out.nbytes

    def _count_bessel(self, args, out):
        self.counts["specfun.calls"] += 1

    def _count_holder(self, args, out):
        f = args[0]
        vals = f.values if isinstance(f, spectral.GridFunction) \
            else np.asarray(f)
        m = min(vals.size, grid.HOLDER_PAIR_CAP)
        self.counts["grid.holder_pairs"] += m * m

    # aggregation -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics over every span recorded so far, as (value, unit)."""
        self_by = defaultdict(float)
        self_by_parent = defaultdict(float)
        per_call = defaultdict(list)
        for name, parent, _, self_t in self.spans:
            self_by[name] += self_t
            self_by_parent[(name, parent)] += self_t
            per_call[name].append(self_t)
        out = {}
        for metric, sel in LAYER_SECONDS.items():
            out[metric] = sum(self_by_parent[s] if isinstance(s, tuple)
                              else self_by[s] for s in sel)
        for metric, name in LAYER_MS_PER_CALL.items():
            calls = per_call.get(name)
            out[metric] = 1e3 * statistics.median(calls) if calls else 0.0
        for key in LAYER_COUNTS:
            out[key] = self.counts.get(key, 0.0)
        out["solver.neumann_iters"] = (statistics.median(self.neumann_iters)
                                       if self.neumann_iters else 0)
        total = sum(d for name, parent, d, _ in self.spans
                    if name in ROOT_SPANS and parent is None)
        out["trace.unattributed_s"] = total - sum(out[m] for m in LAYER_SECONDS) \
            - sum(sum(per_call.get(n, ())) for n in LAYER_MS_PER_CALL.values())
        return {m: (v, UNITS[m]) for m, v in out.items()}

    def root_time(self, name):
        return sum(d for n, parent, d, _ in self.spans
                   if n == name and parent is None)
