"""The benchmark's tracer still finds every library name it wraps.

perfbench/tracer.py wraps library entry points by attribute lookup, so a
refactor that renames or deletes one of them breaks the traced benchmark
run; this test makes that a unit-test failure instead.
"""

import importlib
from pathlib import Path

from slenderlap import analysis, operators, solver, spectral

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
