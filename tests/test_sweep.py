"""The threaded pair-sweep driver, PairGeometry.sweep.

Every pair sweep of the library runs through it: the calling thread and
sweep_cpus() - 1 pool threads take row chunks in turn.  Its output must not
depend on how many threads take part or on how they interleave, an error in
any chunk must reach the caller with no thread left behind, and numpy's
thread-local error state must be entered where the chunk runs.
"""

import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from slenderlap import kernels as kn
from slenderlap import operators as op


def _densities(grid, k=1):
    x = np.random.default_rng(5).standard_normal((grid.n_s, grid.n_theta, k))
    return x[..., 0] if k == 1 else x


def _outputs(grid):
    """Every sweep the library runs, on one grid."""
    phi, psi = _densities(grid), np.roll(_densities(grid), 1, axis=0)
    out = {}
    for backend in ("direct", "split"):
        out[f"S_{backend}"] = op.assemble_S(grid, backend)
        out[f"D_{backend}"] = op.assemble_D(grid, backend)
        (out[f"A_{backend}"], out[f"B_{backend}"],
         out[f"A_sums_{backend}"]) = op.assemble_first_kind(grid, backend)
        out[f"apply_{backend}"] = np.stack(op.apply_pair(grid, backend, phi,
                                                         psi))
    for k in (1, 2):
        for name in ("RS1", "RD", "G", "RS2+RS3"):
            out[f"{name}_{k}"] = op.apply_pairs(grid, name, _densities(grid, k))
    rep = kn.check_geometric_inequalities(grid)
    out["geometry"] = np.array([np.nan if v is None else float(v)
                                for v in rep.values()])
    return out


def _assert_same(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key], equal_nan=True), key


@pytest.mark.parametrize("grid_name", ["trefoil_grid", "perturbed_grid_small"])
def test_threaded_sweep_is_bit_identical_to_one_participant(grid_name, request,
                                                            monkeypatch):
    grid = request.getfixturevalue(grid_name)
    assert grid.n_nodes // kn.rows_per_chunk(grid.n_nodes, grid.n_theta) >= 4
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 1)
    alone = _outputs(grid)
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 3)
    _assert_same(_outputs(grid), alone)
    # CHUNK_PAIRS follows the CPU count: the chunk size changes no bit either
    for cpus in (1, 3):
        monkeypatch.setattr(kn, "CHUNK_PAIRS", (1 << 16) // cpus)
        monkeypatch.setattr(kn, "sweep_cpus", lambda: cpus)
        _assert_same(_outputs(grid), alone)


def test_stale_scratch_changes_no_bit(perturbed_grid_small, monkeypatch):
    """Every chunk writes each field it reads: scratch left full of NaN
    before each chunk gives the bits of a one-participant sweep."""
    grid = perturbed_grid_small
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 1)
    alone = _outputs(grid)
    fields = kn.PairGeometry.fields

    def poisoned(self, lo, hi, need=("absR",), scratch=None):
        for buf in (scratch or {}).values():
            buf.fill(np.nan)
        return fields(self, lo, hi, need, scratch)

    monkeypatch.setattr(kn.PairGeometry, "fields", poisoned)
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 3)
    _assert_same(_outputs(grid), alone)


def test_pair_apply_allocates_only_its_scratch(monkeypatch):
    """A 128x16 RS2+RS3 apply is two sweeps, one after the other: R_S3 as G
    on the lower strips, then R_S2 on full rows.  Each one's tracemalloc
    peak is its own scratch block, made once per sweep, plus (for R_S2) the
    offset-window table of |R-bar| and small arrays, and the blocks are
    never held at once: one more (chunk, N) array per participant in
    either sweep would break its bound."""
    import tracemalloc

    from slenderlap import analysis, geometry, grid as gr
    cl = geometry.build_centerline({"preset": "circle"})
    spec = geometry.SurfaceSpec(centerline=cl, frame=geometry.build_frame(cl, 128),
                                epsilon=1.0 / 64.0)
    grid = gr.make_grid(spec, 128, 16)
    phi = analysis._bandlimited_density(grid)
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 2)
    op.apply_pairs(grid, "RS2+RS3", phi)  # symbol tables and imports first
    blocks, used, peaks = {}, {}, []
    fields, sweep = kn.PairGeometry.fields, kn.PairGeometry.sweep

    def recording(self, lo, hi, need=("absR",), scratch=None):
        out = fields(self, lo, hi, need, scratch)
        blocks.setdefault(self.lower, {}).update(
            {id(b.base): b.base.nbytes for b in scratch.values()})
        used.setdefault(self.lower, set()).update(
            id(b) for b in scratch.values())
        return out

    def measured(self, need, body, fold=None):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = sweep(self, need, body, fold)
        held, peak = tracemalloc.get_traced_memory()
        peaks.append((self.lower, peak - start, held - start))
        return out

    monkeypatch.setattr(kn.PairGeometry, "fields", recording)
    monkeypatch.setattr(kn.PairGeometry, "sweep", measured)
    tracemalloc.start()
    try:
        op.apply_pairs(grid, "RS2+RS3", phi)
    finally:
        tracemalloc.stop()
    assert [lower for lower, _, _ in peaks] == [True, False]
    assert all(len(blocks[lower]) == 1 for lower in (True, False))
    strip = max((hi - lo) * hi
                for lo, hi in kn.lower_strips(grid.n_nodes, grid.n_theta))
    chunk = kn.rows_per_chunk(grid.n_nodes, grid.n_theta) * grid.n_nodes
    # two participants with 2 slots each, both used: lower, 1/|R| and R's
    # components in turn; full, 1/|R_t| (one GEMM per ring) and the
    # gathered 1/|R-bar|
    sizes = {True: (2, 2, strip), False: (2, 2, chunk)}
    table = grid.n_theta * 2 * grid.n_nodes * 8  # offset_windows of |R-bar|
    small = 1 << 20  # O(N) arrays and numpy's iterator buffers
    for lower, peak, held in peaks:
        assert held <= small, (lower, held)  # the block goes with its sweep
        slots, n_used, pairs = sizes[lower]
        block = blocks[lower].popitem()[1]
        assert block == 2 * slots * pairs * 8 + 64
        assert len(used[lower]) == 2 * n_used
        assert peak <= block + (0 if lower else table) + small, (lower, peak)


def test_symmetric_kernels_take_invR_on_the_lower_strips(perturbed_grid,
                                                         monkeypatch):
    """1/|R| is built only by lower-strip fields calls for the symmetric
    kernels and parts: G (also mean_in_s_split's), RS3, and RS2+RS3, whose
    full-row sweep builds only 1/|R_t| and 1/|R-bar|, and apply_pair's S_h
    and D_h, which share one lower sweep of 1/|R| and 1/|R|^3.  RS1, whose
    1/|R| - 1/|R_t| is subtracted pair by pair, keeps it on full rows.
    Each sweep covers the N rows once."""
    grid = perturbed_grid
    n = grid.n_nodes
    calls, fields = [], kn.PairGeometry.fields

    def counted(self, lo, hi, need=("absR",), scratch=None):
        calls.append((self.lower, hi - lo, tuple(need)))
        return fields(self, lo, hi, need, scratch)

    monkeypatch.setattr(kn.PairGeometry, "fields", counted)
    want = {"G": {True: ("invR",)}, "RS3": {True: ("invR",)},
            "RS2+RS3": {True: ("invR",), False: ("invRt", "invRbar")},
            "RS1": {False: ("invR", "invRt")},
            "apply_pair": {True: ("invR", "invR3")}}
    phi = _densities(grid)
    for name, sweeps in want.items():
        calls.clear()
        if name == "apply_pair":
            op.apply_pair(grid, "split", phi, phi)
        else:
            op.apply_pairs(grid, name, _densities(grid, 2))
        for lower, need in sweeps.items():
            assert {c[2] for c in calls if c[0] == lower} == {need}, name
            assert sum(c[1] for c in calls if c[0] == lower) == n, name
        assert {c[0] for c in calls} == set(sweeps), name
    calls.clear()
    op.mean_in_s_split(grid, 1.0 + np.cos(grid.theta_nodes))
    assert calls and all(lower and need == ("invR",)
                         for lower, _, need in calls)
    assert sum(rows for _, rows, _ in calls) == n


@pytest.mark.parametrize("backend", ["direct", "split"])
def test_dense_assemblies_take_one_sweep_each(perturbed_grid_small, backend,
                                              monkeypatch):
    """assemble_first_kind is one lower sweep of 1/|R| and R/|R|^3 (and
    split's C_S and C_D); assemble_D is one full-row sweep of the "KD"
    kernel's fields (and split's C_D), the route of
    dense_double_layer_direct.  Each covers the N rows once."""
    grid = perturbed_grid_small
    calls, fields = [], kn.PairGeometry.fields

    def counted(self, lo, hi, need=("absR",), scratch=None):
        calls.append((self.lower, hi - lo, tuple(need)))
        return fields(self, lo, hi, need, scratch)

    monkeypatch.setattr(kn.PairGeometry, "fields", counted)
    split = ("C_S", "C_D") if backend == "split" else ()
    want = {op.assemble_first_kind: (True, ("invR", "Rinv3", *split)),
            op.assemble_D: (False, ("invR", "Rinv3", *split[1:]))}
    for assemble, sweep in want.items():
        calls.clear()
        assemble(grid, backend)
        assert {(lower, need) for lower, _, need in calls} == {sweep}
        assert sum(rows for _, rows, _ in calls) == grid.n_nodes


def test_rd_eps_group_sweeps_1_over_R_twice_per_rung(perturbed_grid_small,
                                                     monkeypatch):
    """A rung of Rd-eps-group makes three pair sweeps: the first-kind
    assembly of its solve, one G sweep that serves both the R_S3 of
    R_S2 + R_S3 and mean_in_s_split's two columns, and R_S2's full rows."""
    from slenderlap import analysis
    calls, sweep = [], kn.PairGeometry.sweep

    def recorded(self, need, body, fold=None):
        calls.append((self.lower, tuple(need)))
        return sweep(self, need, body, fold)

    monkeypatch.setattr(kn.PairGeometry, "sweep", recorded)
    analysis._rd_eps_group(perturbed_grid_small)
    assert calls == [(True, ("invR", "Rinv3", "C_S", "C_D")),
                     (True, ("invR",)), (False, ("invRt", "invRbar"))]


def _recorded_strips(grid, monkeypatch):
    """(lo, hi, shape of the invR field) of each fields call of one
    apply_pair, in chunk order."""
    seen, fields = {}, kn.PairGeometry.fields

    def recording(self, lo, hi, need=("absR",), scratch=None):
        out = fields(self, lo, hi, need, scratch)
        seen[lo] = (lo, hi, out["invR"].shape)
        return out

    monkeypatch.setattr(kn.PairGeometry, "fields", recording)
    phi = _densities(grid)
    op.apply_pair(grid, "split", phi, phi)
    monkeypatch.setattr(kn.PairGeometry, "fields", fields)
    return [seen[lo] for lo in sorted(seen)]


def test_strips_cover_each_unordered_pair_once(perturbed_grid, monkeypatch):
    """apply_pair's strips take rows [lo, hi) against sources [0, hi): each
    pair (i, a) with a <= i, the self-pair included, lies in exactly one
    strip; only the strips' own square blocks hold pairs with a > i."""
    grid = perturbed_grid
    n = grid.n_nodes
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 2)
    strips = _recorded_strips(grid, monkeypatch)
    assert len(strips) > 4
    hits = np.zeros((n, n), np.int8)
    for lo, hi, shape in strips:
        assert shape == (hi - lo, hi)
        hits[lo:hi, :hi] += 1
    lower = np.tril(np.ones((n, n), bool))
    assert np.all(hits[lower] == 1)
    square = np.zeros((n, n), bool)
    for lo, hi, _ in strips:
        square[lo:hi, lo:hi] = True
    assert np.array_equal(hits[~lower] == 1, square[~lower])
    assert [(lo, hi) for lo, hi, _ in strips] == list(
        kn.lower_strips(n, grid.n_theta))


@pytest.mark.parametrize("n", [256, 1024, 4096, 16384, 20000])
def test_strip_rule(n):
    """Strips of whole theta-rings ending at n: r rows, the multiple of
    n_theta nearest the largest x with x (lo + x) <= 2^16, or one ring
    where x is under half of one.  At 256x16 that is as many strips as a
    step of 4 rows made, 141, of at most 87,040 pairs."""
    n_theta = {256: 4, 1024: 8, 20000: 32}.get(n, 16)  # 20000 = 625 rings
    strips = list(kn.lower_strips(n, n_theta))
    assert strips[0][0] == 0 and strips[-1][1] == n
    for (lo, hi), (nxt, _) in zip(strips, strips[1:]):
        r = hi - lo
        x = max(k for k in range(257) if k * (lo + k) <= 1 << 16)
        assert nxt == hi and r % n_theta == 0
        assert abs(r - x) <= n_theta / 2 or r == n_theta > 2 * x, (lo, r, x)
    if (n, n_theta) == (4096, 16):
        assert len(strips) == 141
        assert max((hi - lo) * hi for lo, hi in strips) == 87040


def test_strip_bounds_follow_the_node_count_alone(perturbed_grid,
                                                  monkeypatch):
    """Neither the CPU count nor CHUNK_PAIRS moves a strip, so the order in
    which apply_pair adds the mirrored sums is fixed too."""
    grid = perturbed_grid
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 1)
    want = _recorded_strips(grid, monkeypatch)
    for cpus in (2, 3):
        monkeypatch.setattr(kn, "sweep_cpus", lambda: cpus)
        assert _recorded_strips(grid, monkeypatch) == want
    for chunk_pairs in (1 << 12, 1 << 18):
        monkeypatch.setattr(kn, "CHUNK_PAIRS", chunk_pairs)
        assert _recorded_strips(grid, monkeypatch) == want


@pytest.mark.parametrize("backend", ["direct", "split"])
def test_apply_pair_allocates_only_its_scratch(backend, monkeypatch):
    """The tracemalloc peak of a 128x16 apply_pair is its scratch block, made
    once per sweep (two participants, 2 slots each of the largest strip's
    pairs, both used: 1/|R|, and 1/|R|^3 in the buffer of R's components),
    plus O(N) arrays: [m, q.m], the mirrored sums and the backend's
    corrections.  One more strip buffer per participant would break the
    bound."""
    import tracemalloc

    from slenderlap import geometry, grid as gr
    cl = geometry.build_centerline({"preset": "circle"})
    spec = geometry.SurfaceSpec(centerline=cl, frame=geometry.build_frame(cl, 128),
                                epsilon=1.0 / 64.0)
    grid = gr.make_grid(spec, 128, 16)
    phi = _densities(grid)
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 2)
    op.apply_pair(grid, backend, phi, phi)  # symbol tables and imports first
    blocks, used = {}, set()
    fields = kn.PairGeometry.fields

    def recording(self, lo, hi, need=("absR",), scratch=None):
        out = fields(self, lo, hi, need, scratch)
        blocks.update({id(b.base): b.base.nbytes for b in scratch.values()})
        used.update(id(b) for b in scratch.values())
        return out

    monkeypatch.setattr(kn.PairGeometry, "fields", recording)
    tracemalloc.start()
    try:
        op.apply_pair(grid, backend, phi, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = max((hi - lo) * hi
                for lo, hi in kn.lower_strips(grid.n_nodes, grid.n_theta))
    assert pairs == 48 * 1632  # the strip [1584, 1632), three rings
    assert len(blocks) == 1 and len(used) == 2 * 2
    block = blocks.popitem()[1]
    assert block == 2 * 2 * pairs * 8 + 64
    small = 1 << 20  # O(N) arrays and numpy's iterator buffers, 0.7 MB
    assert peak <= block + small


def test_one_cpu_starts_no_thread(perturbed_grid_small, monkeypatch):
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 1)
    monkeypatch.setattr(kn, "CHUNK_PAIRS", 8 * perturbed_grid_small.n_nodes)
    seen = set()
    kn.PairGeometry(perturbed_grid_small).sweep(
        ("absR",), lambda lo, hi, f: seen.add(threading.current_thread()))
    assert seen == {threading.main_thread()}


def test_stress_every_row_once(perturbed_grid_small, monkeypatch):
    """More threads than cores and a short switch interval: each row is
    written exactly once, the results come back in chunk order, and the
    library's outputs do not change."""
    grid = perturbed_grid_small
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 1)
    alone = _outputs(grid)
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        hits = np.zeros(grid.n_nodes, int)
        threads = set()

        def body(lo, hi, f):
            threads.add(threading.current_thread())
            hits[lo:hi] += 1
            return lo, hi

        with monkeypatch.context() as m:  # chunks of one ring
            m.setattr(kn, "CHUNK_PAIRS", 4 * grid.n_nodes)
            pg = kn.PairGeometry(grid)
            spans = pg.sweep(("absR", "shat"), body)
            assert spans == list(pg.chunks())
            assert all(hi - lo == grid.n_theta for lo, hi in spans)
        threaded = _outputs(grid)
    finally:
        sys.setswitchinterval(old)
    assert np.all(hits == 1)
    assert len(threads) > 1
    _assert_same(threaded, alone)


def _joined(threads):
    """Join the pool threads among threads; True when none is left alive."""
    pool = threads - {threading.main_thread()}
    for t in pool:
        t.join(timeout=10.0)
    return not any(t.is_alive() for t in pool)


def test_error_in_a_pool_thread_reaches_the_caller(perturbed_grid_small,
                                                   monkeypatch):
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 2)
    pool_started = threading.Event()
    threads = set()

    def body(lo, hi, f):
        threads.add(threading.current_thread())
        if threading.current_thread() is threading.main_thread():
            if lo > 0:  # the caller runs chunk 0 before the pool starts
                pool_started.wait(timeout=10.0)  # a pool thread takes one
            return None
        pool_started.set()
        raise ZeroDivisionError(f"chunk {lo}:{hi}")

    monkeypatch.setattr(kn, "CHUNK_PAIRS", 4 * perturbed_grid_small.n_nodes)
    with pytest.raises(ZeroDivisionError, match="chunk"):
        kn.PairGeometry(perturbed_grid_small).sweep(("absR",), body)
    assert len(threads) == 2
    assert _joined(threads)


def test_error_in_any_chunk_stops_the_sweep(perturbed_grid_small, monkeypatch):
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 4)
    threads, done = set(), []

    def body(lo, hi, f):
        threads.add(threading.current_thread())
        if lo == perturbed_grid_small.n_theta:  # the second ring
            raise ValueError("bad chunk")
        time.sleep(0.05)
        done.append(lo)

    monkeypatch.setattr(kn, "CHUNK_PAIRS", 4 * perturbed_grid_small.n_nodes)
    pg = kn.PairGeometry(perturbed_grid_small)
    with pytest.raises(ValueError, match="bad chunk"):
        pg.sweep(("absR",), body)
    assert _joined(threads)
    # the others take no more chunks: each finishes the one it holds
    assert len(done) <= len(threads) + 1 < len(list(pg.chunks())) // 4


def test_no_runtime_warning_from_any_thread(perturbed_grid_small,
                                            monkeypatch):
    """np.errstate is thread-local, so each chunk must enter its own."""
    monkeypatch.setattr(kn, "sweep_cpus", lambda: 3)
    phi = _densities(perturbed_grid_small)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for backend in ("direct", "split"):
            op.assemble_first_kind(perturbed_grid_small, backend)
            op.assemble_D(perturbed_grid_small, backend)
            op.apply_pair(perturbed_grid_small, backend, phi, phi)
        op.apply_pairs(perturbed_grid_small, "RS1", phi)
        op.apply_pairs(perturbed_grid_small, "RD", phi)


def test_import_starts_no_thread():
    code = ("import threading, slenderlap; "
            "print(threading.active_count(), "
            "[t.name for t in threading.enumerate()])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split()[0] == "1", proc.stdout
