"""The benchmark's tracer still finds every library name it wraps.

perfbench/tracer.py wraps library entry points by attribute lookup, so a
refactor that renames or deletes one of them breaks the traced benchmark
run; this test makes that a unit-test failure instead.
"""

import importlib
from pathlib import Path

import numpy as np

from slenderlap import analysis, grid, operators, solver, spectral

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    watched = [(analysis, "decomposition_operators"),
               (operators, "_circulant_from_template"),
               (spectral, "symbol_dense_matrix"),
               (solver, "lu_factor")]
    before = [getattr(owner, name) for owner, name in watched]
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        for (owner, name), fn in zip(watched, before):
            assert getattr(owner, name) is not fn, name
    finally:
        tr.restore()
    for (owner, name), fn in zip(watched, before):
        assert getattr(owner, name) is fn, name


def test_tracer_sees_the_scratch_sweep(monkeypatch, perturbed_grid_small):
    """PairGeometry.fields is still called per chunk with (lo, hi) first, so
    the tracer counts every pair of one split apply; grid.HOLDER_PAIR_CAP,
    which the tracer reads, is still there, and holder_norm is wrapped where
    grid and analysis bind it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    g = perturbed_grid_small
    assert (g.n_s, g.n_theta) == (64, 8)
    phi = np.cos(2.0 * np.pi * g.s_nodes)[:, None] * np.ones(g.n_theta)
    holder = (grid.holder_norm, analysis.holder_norm)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert grid.holder_norm is not holder[0]
        assert analysis.holder_norm is not holder[1]
        tr.active = True
        operators.apply_pair(g, "split", phi, phi)
        grid.holder_norm(phi, 0.25, g.epsilon)
        tr.active = False
    finally:
        tr.restore()
    assert tr.counts["kernels.pairs"] == g.n_nodes ** 2
    assert tr.counts["grid.holder_pairs"] == min(phi.size,
                                                 grid.HOLDER_PAIR_CAP) ** 2
    assert (grid.holder_norm, analysis.holder_norm) == holder
