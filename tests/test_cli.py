"""CLI behavior: exit codes, outputs, determinism, dry runs."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import slenderlap
from slenderlap.cli import main


def test_check_bessel_passes(capsys):
    rc = main(["check-bessel", "--epsilon", "0.01"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Wronskian" in out


@pytest.mark.parametrize("argv", [
    ["dtn", "--epsilon", "nan", "--ns", "64", "--ntheta", "8"],
    ["symbols", "--epsilon", "0", "--kmax", "2", "--lmax", "1"],
    ["check-bessel", "--epsilon", "-1"],
])
def test_bad_epsilon_is_a_usage_error(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "argument --epsilon: must be positive and finite" in err


def test_symbols_csv(tmp_path):
    out = tmp_path / "symbols.csv"
    rc = main(["symbols", "--epsilon", "0.01", "--kmax", "8", "--lmax", "4",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,l,m_S,m_D,m_eps_inv,m_eps"
    assert len(lines) == 1 + 9 * 5


def test_symbols_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["symbols", "--epsilon", "0.02", "--kmax", "6", "--lmax", "3",
          "--out", str(a)])
    main(["symbols", "--epsilon", "0.02", "--kmax", "6", "--lmax", "3",
          "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_geometry_report_json(capsys):
    rc = main(["geometry", "--curve", "circle", "--ns", "64",
               "--epsilon", "0.015625", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("c_gamma", "kappa_star", "kappa3", "r_star"):
        assert key in payload


def test_check_geometry(capsys):
    rc = main(["check-geometry", "--curve", "circle", "--ns", "64",
               "--ntheta", "8", "--epsilon", "0.015625"])
    assert rc == 0
    assert "flat2cyl1_violations: 0" in capsys.readouterr().out


def test_check_geometry_on_the_trefoil_preset(capsys):
    assert main(["check-geometry", "--curve", "trefoil"]) == 0
    assert "flat2cyl1_violations: 0" in capsys.readouterr().out
    assert main(["geometry", "--curve", "trefoil", "--epsilon", "0.015625",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["kappa3"] - 2.2250406424345) < 1e-12
    assert abs(payload["kappa_star"] - 22.39) < 0.01


def test_trefoil_preset_rejects_a_wide_tube(capsys):
    # kappa_* ~ 22.4, so eps 0.03 puts eps * kappa_* past 1/2
    assert main(["dtn", "--curve", "trefoil", "--epsilon", "0.03"]) == 1
    assert "eps*kappa_* = 0.672 >= 1/2" in capsys.readouterr().err


def test_dtn_writes_csv(tmp_path, capsys):
    out = tmp_path / "dtn.csv"
    rc = main(["dtn", "--curve", "circle", "--epsilon", "0.015625",
               "--ns", "64", "--ntheta", "8", "--dirichlet", "cos:1",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,f"
    assert len(lines) == 65


def test_ntd_json_array_input(tmp_path):
    vals = json.dumps([0.1] * 64)
    out = tmp_path / "ntd.csv"
    rc = main(["ntd", "--curve", "circle", "--epsilon", "0.015625",
               "--ns", "64", "--ntheta", "8", "--neumann", vals,
               "--out", str(out)])
    assert rc == 0


def test_ntd_json_reports_cond_dtn(tmp_path, capsys):
    rc = main(["ntd", "--curve", "circle", "--epsilon", "0.015625",
               "--ns", "64", "--ntheta", "8", "--neumann", "cos:1",
               "--out", str(tmp_path / "ntd.csv"), "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    cond = payload["conditioning"]
    assert set(cond) == {"cond_S", "cond_dtn"}
    assert all(1.0 <= c < 1e12 for c in cond.values())


@pytest.mark.parametrize("cmd,extra,keys", [
    ("dtn", ["--dirichlet", "cos:1"], {"residuals", "conditioning", "csv"}),
    ("ntd", ["--neumann", "cos:1"], {"residuals", "conditioning", "csv"}),
    ("decompose", [], {"pass", "relative_mismatch", "term_norms"}),
])
def test_json_reports_its_keys(cmd, extra, keys, tmp_path, capsys,
                               monkeypatch):
    """The top-level keys of a solve's JSON, at eps 1/64 on the circle."""
    monkeypatch.chdir(tmp_path)
    assert main([cmd, "--curve", "circle", "--epsilon", "0.015625", "--ns",
                 "64", "--ntheta", "8", "--json"] + extra) == 0
    out = capsys.readouterr().out
    assert set(json.loads(out[out.index("{"):])) == keys


def test_indefinite_first_kind_system_is_a_one_line_error(tmp_path, capsys,
                                                          monkeypatch):
    """At eps 1/16 the circle's shifted A is indefinite on 64x8: exit 1 with
    the solver's one-line refusal, and no CSV."""
    monkeypatch.chdir(tmp_path)
    assert main(["dtn", "--curve", "circle", "--epsilon", "0.0625", "--ns",
                 "64", "--ntheta", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: first-kind system indefinite on the 64 x 8 grid "
        "(h_s/(eps h_theta) = 0.32, eps kappa_* = 0.393): use a finer grid "
        "or a smaller eps\n")
    assert not list(tmp_path.iterdir())


def test_scaling_study(tmp_path, capsys):
    rc = main(["scaling", "--study", "RS2-sup", "--eps", "1/16,1/64",
               "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "RS2-sup.json").read_text())
    assert rep["pass"]
    csv_lines = (tmp_path / "RS2-sup.csv").read_text().splitlines()
    assert csv_lines[0] == "epsilon,value,norm"


def test_usage_error_exit_code():
    assert main(["dtn", "--dirichlet", "nonsense:zz", "--ns", "64",
                 "--ntheta", "8", "--epsilon", "0.015625"]) == 1
    assert main(["scaling", "--study", "not-a-study"]) == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_dry_runs(capsys):
    for argv in (
        ["greens-check", "--dry-run"],
        ["dtn", "--dry-run"],
        ["scaling", "--study", "RS1-sup", "--dry-run"],
        ["decompose", "--dry-run"],
        ["exterior", "--dry-run"],
        ["check-bessel", "--dry-run"],
    ):
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 0, argv
        assert "dry run" in out


@pytest.mark.parametrize("argv, plan", [
    (["check-bessel", "--epsilon", "0.03125"],
     "Bessel invariant suite, symbol bound checks at eps 0.03125"),
    (["symbols"], "585 symbol rows of m_S, m_D, m_eps_inv, m_eps to symbols.csv"),
    (["geometry"], "geometry report from a 128-sample frame"),
])
def test_gridless_dry_runs_state_what_they_compute(argv, plan, capsys):
    """These runs build no surface grid, so their dry runs name none."""
    assert main(argv + ["--dry-run"]) == 0
    out = capsys.readouterr().out
    assert out == f"dry run: {plan}\n"
    assert "dense operator" not in out and "nodes" not in out


@pytest.mark.parametrize("cmd", ["dtn", "ntd", "decompose", "exterior"])
def test_solve_dry_run_states_the_dense_peak(cmd, tmp_path, capsys,
                                             monkeypatch):
    """The dry run's count of N x N arrays held at once is the real run's
    tracemalloc peak in whole N x N arrays, at 64x8."""
    from slenderlap import cli, kernels
    argv = [cmd, "--ns", "64", "--ntheta", "8"]
    assert main(argv + ["--dry-run"]) == 0
    out = capsys.readouterr().out
    count = int(re.search(r"(\d+) dense N x N arrays at once", out).group(1))
    one = 512 * 512 * 8
    assert f"~{count * one / 1e9:.2f} GB (~{one / 1e9:.2f} GB per dense " \
           f"operator)" in out
    # at 64x8 two fixed costs outweigh one N x N array, so take them out:
    # the curve's 512 x 512 chord matrix (the spec is built beforehand) and
    # the sweep's scratch (chunks of 4 x 512 pairs)
    spec = cli._build_spec(cli.build_parser().parse_args(argv))
    monkeypatch.setattr(cli, "_build_spec", lambda args: spec)
    monkeypatch.setattr(kernels, "CHUNK_PAIRS", 1 << 11)
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        # exit 2: exterior's 1e-3 accuracy check fails on a grid this coarse
        assert main(argv) in (0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count <= peak / one < count + 0.5, peak / one


@pytest.mark.parametrize("argv", [["dtn"], ["ntd"], ["decompose"],
                                  ["scaling", "--study", "Rd-eps-group"]])
def test_solve_dry_run_names_the_factored_array(argv, capsys):
    """A slender-body solve holds S_h alone, factored in place."""
    from slenderlap import solver
    assert main(argv + ["--dry-run"]) == 0
    out = capsys.readouterr().out
    assert solver.SOLVE_DENSE == (1, "S_h, factored in place")
    assert "1 dense N x N arrays at once (S_h, factored in place), " in out
    assert "LU" not in out


def test_greens_check_dry_run_is_matrix_free(capsys):
    assert main(["greens-check", "--ladder", "256,512,1024", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "16384 nodes" in out and "matrix-free" in out and "GB" not in out


@pytest.mark.parametrize("argv", [
    ["dtn", "--ns", "100"],
    ["ntd", "--ntheta", "6"],
    ["exterior", "--ns", "16"],
    ["decompose", "--ns", "96"],
    ["check-geometry", "--ntheta", "2"],
    ["greens-check", "--ladder", "100,200"],
    ["greens-check", "--ladder", "64,100"],
])
def test_dry_run_rejects_bad_grid_sizes(argv, capsys):
    # the real runs fail in make_grid; the dry run must not pass them
    assert main(argv + ["--dry-run"]) == 1
    err = capsys.readouterr().err
    assert "grid sizes must be powers of two" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, text", [
    (["geometry", "--ns", "100"], "power of two"),
    (["dtn", "--epsilon", "0.2"], "eps*kappa_* = 1.257 >= 1/2"),
    (["exterior", "--curve", "nosuch"], "nosuch"),
    (["greens-check", "--curve", "trefoil", "--epsilon", "0.03"],
     "eps*kappa_*"),
    (["scaling", "--study", "RS1-sup", "--curve", "trefoil"],
     "eps*kappa_* = 1.400 >= 1/2"),
], ids=["geometry-frame-size", "dtn-eps", "exterior-curve", "greens-eps",
        "scaling-ladder-eps"])
def test_dry_run_rejects_what_the_run_rejects(argv, text, capsys):
    # a dry run builds the curve, the frame and the SurfaceSpec of every eps,
    # so it fails with the real run's error (which comes before any solve)
    errors = []
    for extra in ([], ["--dry-run"]):
        assert main(argv + extra) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error:") and text in errors[0]


@pytest.mark.parametrize("ladder", ["64", "64,64"])
def test_single_rung_ladder_is_a_usage_error(ladder, capsys):
    for extra in ([], ["--dry-run"]):
        assert main(["greens-check", "--ladder", ladder] + extra) == 1
        err = capsys.readouterr().err
        assert "at least 2 distinct n_s" in err and "Traceback" not in err


def test_check_bessel_json_reports_scipy_version(capsys):
    import scipy
    assert main(["check-bessel", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["scipy_version"] == scipy.__version__


def test_greens_check_json_reports_rungs(capsys):
    rc = main(["greens-check", "--epsilon", "0.015625", "--ladder", "32,64",
               "--ntheta", "8", "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert [r["n_nodes"] for r in payload["rungs"]] == [256, 512]
    # h_s/(eps h_theta) = (1/32)/((1/64)(2 pi/8)) = 8/pi at n_s = 32
    assert payload["rungs"][0]["aspect"] == pytest.approx(8.0 / np.pi)
    assert payload["rungs"][1]["aspect"] == pytest.approx(4.0 / np.pi)
    assert all(len(payload[b]["residuals"]) == 2 for b in ("direct", "split"))


def test_console_entry_point(tmp_path):
    # the child imports the same slenderlap as this suite, installed or not
    src = str(Path(slenderlap.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "slenderlap.cli", "symbols", "--kmax", "2",
         "--lmax", "1", "--out", str(tmp_path / "sym.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_scaling_csv_reproducible(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        rc = main(["scaling", "--study", "RS3-sup", "--eps", "1/16,1/32",
                   "--out", str(d)])
        assert rc == 0
    assert (d1 / "RS3-sup.csv").read_bytes() == (d2 / "RS3-sup.csv").read_bytes()


def test_scaling_eps_errors(tmp_path, capsys):
    for eps in ("1/0", "1/32", "0,1/32"):
        rc = main(["scaling", "--study", "RS2-sup", "--eps", eps,
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1, eps
        assert err.startswith("error:") and "Traceback" not in err, eps
    assert not list(tmp_path.iterdir())


def test_scaling_dry_run_sizes(capsys):
    assert main(["scaling", "--study", "RS-holder-group", "--eps",
                 "1/512,1/1024", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "16384 nodes" in out and "matrix-free" in out and "GB" not in out
    assert main(["scaling", "--study", "Rd-eps-group", "--dry-run"]) == 0
    assert "GB per dense operator" in capsys.readouterr().out
    assert main(["scaling", "--study", "Rd-eps-group", "--eps",
                 "1/512,1/1024", "--dry-run"]) == 1
    assert "capped" in capsys.readouterr().err


# nodal data on a 64-node s-circle with one NaN or inf
_NAN_64 = "[NaN" + ", 0" * 63 + "]"
_INF_64 = "[0" + ", 1" * 62 + ", Infinity]"


@pytest.mark.parametrize("argv, text", [
    (["symbols", "--lmax", "100"], "order cap 64 exceeded"),
    (["symbols", "--kmax", "-3"], "--kmax and --lmax must be >= 0"),
    (["symbols", "--lmax", "-1"], "--kmax and --lmax must be >= 0"),
    (["decompose", "--alpha", "-1"], "--alpha must lie in (0, 1]"),
    (["decompose", "--alpha", "1.5", "--dry-run"], "--alpha must lie in (0, 1]"),
    (["dtn", "--ns", "64", "--ntheta", "8", "--dirichlet", _NAN_64, "--json"],
     "non-finite"),
    (["ntd", "--ns", "64", "--ntheta", "8", "--neumann", _NAN_64], "non-finite"),
    (["ntd", "--ns", "64", "--ntheta", "8", "--neumann", _INF_64], "non-finite"),
    (["check-bessel", "--epsilon", "1e-110", "--json"], "are not finite"),
    (["check-bessel", "--epsilon", "1e-300"], "are not finite"),
], ids=["lmax-past-order-cap", "kmax-negative", "lmax-negative",
        "alpha-negative", "alpha-above-1-dry-run", "dtn-nan-data",
        "ntd-nan-data", "ntd-inf-data", "bessel-eps-1e-110",
        "bessel-eps-1e-300"])
def test_out_of_range_inputs_are_one_line_errors(argv, text, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and text in err and err.count("\n") == 1
    assert not list(tmp_path.iterdir())  # no symbols.csv


@pytest.mark.parametrize("eps", ["1e-320", "5e-324"])
def test_eps_whose_cutoff_overflows_is_a_usage_error(eps, capsys):
    """1/(2 pi eps) must be finite: the symbols split there."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-bessel", "--epsilon", eps]) == 1
    err = capsys.readouterr().err
    assert f"argument --epsilon: 1/(2 pi eps) overflows, got '{eps}'" in err


@pytest.mark.parametrize("cmd, flag", [("dtn", "--dirichlet"),
                                       ("ntd", "--neumann")])
def test_bad_data_fails_before_assembly(cmd, flag, monkeypatch, capsys):
    """A NaN, or 64 values in an 8 x 8 array at n_s = 64, is refused by the
    solver's own check before the pair sweep."""
    from slenderlap import operators, solver

    def no_sweep(*args, **kwargs):
        raise AssertionError("assembled before the data were checked")

    for owner in (operators, solver):  # solver binds its own name
        monkeypatch.setattr(owner, "assemble_first_kind", no_sweep)
    for data, text in ((_NAN_64, "data holds non-finite values (NaN or inf)"),
                       (json.dumps([[0.5] * 8] * 8),
                        "data shape (8, 8) != (n_s,) = (64,)")):
        assert main([cmd, "--ns", "64", "--ntheta", "8", flag, data]) == 1
        assert capsys.readouterr().err == f"error: {text}\n"


def test_exterior_points_clear_the_whole_curve(capsys):
    """Each point is 5-8 eps from X(i/8) in its normal plane and, drawn again
    if need be, 4 eps from the whole centerline, so the solver's 3 eps rule
    admits it.  On the circle at eps 1/32 and the trefoil (twisted frame,
    k3 ~ 2.2) at 1/64 a first draw came within 2.42 and 0.87 eps of the
    centerline's nodes elsewhere.  At eps 1/64 the circle and the perturbed
    circle keep their first draws (test_solver's exterior_points)."""
    from test_solver import exterior_points
    from slenderlap import cli, geometry
    for curve, eps in (("circle", 1 / 32), ("trefoil", 1 / 64)):
        assert main(["exterior", "--curve", curve, "--epsilon", str(eps),
                     "--ns", "128", "--ntheta", "16"]) == 0
        assert capsys.readouterr().out.endswith(": PASS\n")
        spec = geometry.surface_specs({"preset": curve}, [eps])[0]
        cl = spec.centerline
        samples = cl.position(np.arange(cl.N_FINE) / cl.N_FINE)
        pts = cli._exterior_points(spec)
        assert pts.shape == (8, 3)
        dist = np.linalg.norm(pts[:, None] - samples, axis=2).min(axis=1)
        assert np.all(dist >= 4.0 * eps), curve
    for curve in ("circle", "perturbed_circle"):
        spec = geometry.surface_specs({"preset": curve}, [1 / 64])[0]
        assert np.array_equal(cli._exterior_points(spec), exterior_points(spec))


@pytest.mark.parametrize("argv", [
    ["scaling", "--study", "RS-holder-group", "--eps", "1/512,1/1024"],
    ["greens-check", "--ladder", "256,512,1024"]])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_dry_run_states_the_sweep_chunks(argv, cpus, capsys, monkeypatch):
    """The largest chunk of either pair sweep, full rows or lower strips,
    whatever the run sweeps, and how many participants hold its fields."""
    from slenderlap import kernels
    monkeypatch.setattr(kernels, "sweep_cpus", lambda: cpus)
    assert main(argv + ["--dry-run"]) == 0
    out = capsys.readouterr().out
    # at 16384 nodes each sweep's largest chunk is 2^16 pairs: 4 full rows,
    # or a lower strip (the first is 256 x 256, the last 4 x 16384)
    assert kernels.CHUNK_PAIRS == 1 << 16
    assert kernels.default_chunk_rows(16384) * 16384 == 1 << 16
    strips = list(kernels.lower_strips(16384))
    assert strips[0] == (0, 256) and strips[-1] == (16380, 16384)
    assert max((hi - lo) * hi for lo, hi in strips) == 1 << 16
    assert (f"matrix-free, chunks of at most 65536 pairs (~0.52 MB per "
            f"field, held by each of {cpus} sweep participant(s))") in out
