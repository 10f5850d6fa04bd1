"""Command-line entry point for every verification harness.

Subcommands: check-bessel, symbols, geometry, check-geometry, greens-check,
dtn, ntd, exterior, decompose, scaling: each a thin layer over the library,
called through module attributes (dtn/ntd data get solver._finite's check).
Exit codes: 0 success/PASS, 2 verification FAIL (inequality or slope
breach), 1 usage or config error.  CSV output uses a header row, '.'
decimals, 17 significant digits; JSON summaries go to files and, with
--json, to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from . import analysis, geometry, grid, kernels, solver, specfun, spectral


def _fmt(x):
    return f"{x:.17g}"


def _emit_json(args, payload):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, default=float))


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if isinstance(x, float) else str(x)
                             for x in row) + "\n")


def _epsilon(text):
    """argparse type of --epsilon: a positive finite float, 1/(2 pi eps) finite."""
    eps = float(text)
    if not math.isfinite(eps) or eps <= 0:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    if not math.isfinite(1.0 / (2.0 * math.pi * eps)):
        raise argparse.ArgumentTypeError(f"1/(2 pi eps) overflows, got {text!r}")
    return eps


def _parse_eps_list(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if "/" in tok:
            num, den = tok.split("/")
            if float(den) == 0.0:
                raise ValueError(f"eps '{tok}' divides by zero")
            out.append(float(num) / float(den))
        else:
            out.append(float(tok))
    return out


def _curve_config(args):
    if args.curve.endswith(".json") or os.path.sep in args.curve:
        with open(args.curve) as fh:
            return json.load(fh)
    return {"preset": args.curve}


def _build_spec(args, n_frame=geometry.FRAME_SAMPLES):
    return geometry.surface_specs(_curve_config(args), [args.epsilon], n_frame)[0]


def _dry_run(plan):
    print(f"dry run: {plan}")
    return 0


def _dry_run_report(n_s, n_theta, n_systems=1, dense=None):
    """Print the run's size on its n_s x n_theta grid, which must be valid:
    dense is (count, what) of the N x N arrays it holds at once, or None for
    the largest chunk of either pair sweep (full rows or lower strips)."""
    grid.check_grid_sizes(n_s, n_theta)
    n = n_s * n_theta
    if dense:
        count, held = dense
        gb = n * n * 8 / 1e9
        size = (f"{count} dense N x N arrays at once ({held}), "
                f"~{count * gb:.2f} GB (~{gb:.2f} GB per dense operator)")
    else:
        pairs = max(min(kernels.rows_per_chunk(n), n) * n,
                    *((hi - lo) * hi for lo, hi in kernels.lower_strips(n)))
        size = (f"matrix-free, chunks of at most {pairs} pairs "
                f"(~{pairs * 8 / 1e6:.2f} MB per field, held by each of "
                f"{kernels.sweep_cpus()} sweep participant(s))")
    return _dry_run(f"grid {n_s} x {n_theta} ({n} nodes), {size}, "
                    f"{n_systems} system(s)")


# subcommand implementations -------------------------------------------------

def cmd_check_bessel(args):
    if args.dry_run:
        return _dry_run(f"Bessel invariant suite, symbol bound checks at eps "
                        f"{args.epsilon:g}")
    rep = specfun.check_suite()
    for name in ("m_S_inv", "m_eps_inv", "m_eps"):
        rep[f"bounds_{name}"] = spectral.finite_diff_symbol_bounds(name, args.epsilon)
    ok = bool(rep["wronskian_sup"] <= 1e-12 and rep["recurrence_sup"] <= 1e-10)
    print(f"max Wronskian deviation: {rep['wronskian_sup']:.3e} "
          f"(limit 1e-12): {'PASS' if ok else 'FAIL'}")
    for k, v in rep.items():
        if isinstance(v, float):
            print(f"  {k}: {_fmt(v)}")
    _emit_json(args, {"pass": ok, "scipy_version": scipy.__version__, **rep})
    return 0 if ok else 2


def cmd_symbols(args):
    if args.kmax < 0 or args.lmax < 0:
        raise ValueError(f"--kmax and --lmax must be >= 0, got {args.kmax} "
                         f"and {args.lmax}")
    names = ("m_S", "m_D", "m_eps_inv", "m_eps")
    if args.dry_run:
        return _dry_run(f"{(args.kmax + 1) * (args.lmax + 1)} symbol rows "
                        f"of {', '.join(names)} to {args.out}")
    rows = []
    for k in range(0, args.kmax + 1):
        # one row of l = 0..lmax per symbol; m_S(0, 0) is NaN (undefined)
        cols = [spectral._symbol_row(name, args.epsilon, k, args.lmax)
                for name in names]
        rows += [(k, ell, *(float(c[ell]) for c in cols))
                 for ell in range(0, args.lmax + 1)]
    _write_csv(args.out, ("k", "l") + names, rows)
    print(f"wrote {len(rows)} symbol rows to {args.out}")
    return 0


def cmd_geometry(args):
    spec = _build_spec(args, n_frame=args.ns)
    if args.dry_run:
        return _dry_run(f"geometry report from a {args.ns}-sample frame")
    rep = geometry.geometry_report(spec)
    _emit_json(args, rep)
    if not args.json:
        for k, v in rep.items():
            print(f"{k}: {v}")
    return 0


def cmd_check_geometry(args):
    spec = _build_spec(args)
    if args.dry_run:
        return _dry_run_report(args.ns, args.ntheta)
    g = grid.make_grid(spec, args.ns, args.ntheta)
    rep = kernels.check_geometric_inequalities(g)
    for n, m in ((1, 0), (0, 1), (2, 1)):
        rep[f"oddness_n{n}_m{m}"] = kernels.oddness_residual(g, n, m)
    for k, v in rep.items():
        print(f"{k}: {v}")
    _emit_json(args, rep)
    return 0 if rep["pass"] else 2


def cmd_greens_check(args):
    ladder = [int(x) for x in args.ladder.split(",")]
    spec = _build_spec(args)
    if args.dry_run:
        solver.check_ladder(ladder, args.ntheta)
        return _dry_run_report(max(ladder), args.ntheta, len(ladder))
    out, ok = {}, True
    for backend in ("direct", "split"):
        resids, order = solver.greens_ladder(spec, [(1.0, 0.0)], ladder,
                                             args.ntheta, backend)
        out[backend] = {"residuals": resids, "order": order}
        ok = ok and order >= 1.0
        print(f"{backend}: residuals " +
              " ".join(_fmt(r) for r in resids) + f"  order {order:.3f}")
    out["rungs"] = [{"n_s": n_s, "n_nodes": n_s * args.ntheta,
                     "aspect": grid.aspect_ratio(n_s, args.ntheta, args.epsilon)}
                    for n_s in ladder]
    _emit_json(args, {"pass": ok, **out})
    return 0 if ok else 2


def _parse_data_spec(text, n_s):
    s = np.arange(n_s) / n_s
    if text.startswith("cos:"):
        return np.cos(2 * np.pi * int(text[4:]) * s)
    if text.startswith("sin:"):
        return np.sin(2 * np.pi * int(text[4:]) * s)
    return solver._finite(json.loads(text), "data", {"(n_s,)": (n_s,)})


def cmd_solve(args):
    """dtn or ntd (args.command) on args.data, checked before the sweep."""
    spec = _build_spec(args)
    if args.dry_run:
        return _dry_run_report(args.ns, args.ntheta, dense=solver.SOLVE_DENSE)
    data = _parse_data_spec(args.data, args.ns)  # before the sweep
    g = grid.make_grid(spec, args.ns, args.ntheta)
    res = getattr(solver.SlenderBodySolver(g, "split"), args.command)(data)
    label = "f" if args.command == "dtn" else "v"
    out_csv = args.out or f"{args.command}_result.csv"
    _write_csv(out_csv, ("s", label), [
        (float(s), float(x)) for s, x in zip(g.s_nodes, getattr(res, label).values)])
    print(f"wrote {out_csv}; cond(S) ~ {res.conditioning['cond_S']:.3e}")
    _emit_json(args, {"residuals": res.residuals, "conditioning": res.conditioning,
                      "csv": str(out_csv)})
    return 0


def cmd_exterior(args):
    spec = _build_spec(args)
    if args.dry_run:
        return _dry_run_report(args.ns, args.ntheta, dense=solver.EXTERIOR_DENSE)
    g = grid.make_grid(spec, args.ns, args.ntheta)
    charges = [(1.0, 0.0)]
    v_exact, w_exact = solver.point_charge_data(g, charges)
    pts = _exterior_points(spec, count=8)
    u_ref = solver.exact_point_charge_potential(g, pts, charges)
    u_dp, info = solver.solve_exterior_dirichlet(g, v_exact, pts, "split")
    u_gr = solver.green_representation_eval(g, pts, v_exact, w_exact)
    err_dp = float(np.max(np.abs(u_dp - u_ref)))
    err_gr = float(np.max(np.abs(u_gr - u_ref)))
    gap = float(np.max(np.abs(u_dp - u_gr)))
    ok = err_dp <= 1e-3 and err_gr <= 1e-3 and gap <= 1e-3
    print(f"D'-route error {err_dp:.3e}, Green-route error {err_gr:.3e}, "
          f"route gap {gap:.3e}: {'PASS' if ok else 'FAIL'}")
    _emit_json(args, {"pass": ok, "err_Dprime": err_dp, "err_green": err_gr,
                      "gap": gap, "cond": info["cond_Dprime"]})
    return 0 if ok else 2


def _exterior_points(spec, count=8, seed=3):
    """A point 5-8 eps from X(i/count) in its normal plane, for each i < count,
    drawn again while it is within 4 eps of the centerline (by the solver's
    Centerline.distance_bound): the solver refuses points within 3 eps."""
    rng, cl = np.random.default_rng(seed), spec.centerline
    pts = []
    for i in range(count):
        s0 = np.array([i / count])
        x0, (_, e_n1, e_n2, _, _) = cl.position(s0)[0], spec.frame_at(s0)
        for _ in range(100):  # draws, before the curve is deemed too tight
            ang = 2 * np.pi * rng.random()
            dist = spec.epsilon * (5.0 + 3.0 * rng.random())
            p = x0 + dist * (np.cos(ang) * e_n1[0] + np.sin(ang) * e_n2[0])
            if cl.distance_bound(p)[0] >= 4.0 * spec.epsilon:
                break
        else:
            raise ValueError(f"no point 4 eps clear of the curve near s = {s0[0]:g}")
        pts.append(p)
    return np.array(pts)


def cmd_decompose(args):
    if not 0.0 < args.alpha <= 1.0:
        raise ValueError(f"--alpha must lie in (0, 1], got {args.alpha}")
    spec = _build_spec(args)
    if args.dry_run:
        return _dry_run_report(args.ns, args.ntheta, dense=solver.SOLVE_DENSE)
    g = grid.make_grid(spec, args.ns, args.ntheta)
    rep = analysis.decompose_dtn(g, np.cos(2 * np.pi * g.s_nodes),
                                 alpha=args.alpha)
    ok = rep["relative_mismatch"] <= 1e-5
    print(f"term-sum vs direct mismatch: {rep['relative_mismatch']:.3e} "
          f"({'PASS' if ok else 'FAIL'})")
    for name, norm in rep["term_norms"].items():
        print(f"  {name}: C^(0,{args.alpha}) size {_fmt(norm)}")
    _emit_json(args, {"pass": ok, "relative_mismatch": rep["relative_mismatch"],
                      "term_norms": rep["term_norms"]})
    return 0 if ok else 2


def cmd_scaling(args):
    eps = _parse_eps_list(args.eps) if args.eps else None
    study = analysis.make_study(
        args.study, epsilons=eps,
        curve_config=_curve_config(args) if args.curve else None)
    if args.dry_run:
        geometry.surface_specs(study.curve_config, study.epsilons)
        ns = max(study.grid_ns(e) for e in study.epsilons)
        return _dry_run_report(ns, study.n_theta, len(study.epsilons),
                               dense=solver.SOLVE_DENSE if study.solves else None)
    rep = analysis.run_scaling_study(study)
    outdir = Path(args.out or ".")
    _write_csv(outdir / f"{args.study}.csv", ("epsilon", "value", "norm"),
               [(float(e), float(v), study.study_id)
                for e, v in zip(rep["epsilons"], rep["values"])])
    with open(outdir / f"{args.study}.json", "w") as fh:
        json.dump(rep, fh, indent=2, default=float)
    print(f"{args.study}: slope {rep['slope']:.3f} "
          f"(target {rep['target_slope']} +- {rep['margin']}, "
          f"{rep['direction']}): {'PASS' if rep['pass'] else 'FAIL'}")
    _emit_json(args, rep)
    return 0 if rep["pass"] else 2


def build_parser():
    ap = argparse.ArgumentParser(
        prog="slenderlap",
        description="slender-body Laplace NtD/DtN maps and their "
                    "verification harnesses")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, epsilon=True, grid=False, curve="circle"):
        """A subcommand with the common flags (no --curve for curve=False)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true",
                       help="print the JSON summary to stdout")
        p.add_argument("--dry-run", action="store_true",
                       help="validate config and geometry, print planned "
                            "sizes, assemble and solve nothing")
        if epsilon:
            p.add_argument("--epsilon", type=_epsilon, default=1.0 / 64.0)
        if grid:
            p.add_argument("--ns", type=int, default=128)
            p.add_argument("--ntheta", type=int, default=16)
        if curve is not False:
            p.add_argument("--curve", default=curve)
        return p

    command("check-bessel", cmd_check_bessel, "Bessel invariant suite",
            curve=False)
    p = command("symbols", cmd_symbols, "emit symbol table CSV", curve=False)
    p.add_argument("--kmax", type=int, default=64)
    p.add_argument("--lmax", type=int, default=8)
    p.add_argument("--out", default="symbols.csv")
    p = command("geometry", cmd_geometry, "geometry report for a curve")
    p.add_argument("--ns", type=int, default=128)
    command("check-geometry", cmd_check_geometry,
            "displacement inequality sweep", grid=True)
    p = command("greens-check", cmd_greens_check, "Green identity ladder")
    p.add_argument("--ladder", default="64,128,256")
    p.add_argument("--ntheta", type=int, default=16)
    p = command("dtn", cmd_solve, "Dirichlet -> total Neumann solve", grid=True)
    p.add_argument("--dirichlet", dest="data", metavar="DIRICHLET", default="cos:1",
                   help='"cos:k", "sin:k", or a JSON array of nodal values')
    p.add_argument("--out", default=None)
    p = command("ntd", cmd_solve, "total Neumann -> Dirichlet solve", grid=True)
    p.add_argument("--neumann", dest="data", metavar="NEUMANN", default="cos:1")
    p.add_argument("--out", default=None)
    command("exterior", cmd_exterior, "exterior Dirichlet cross-validation",
            grid=True)
    p = command("decompose", cmd_decompose, "DtN decomposition identity",
                grid=True)
    p.add_argument("--alpha", type=float, default=0.25)
    p = command("scaling", cmd_scaling, "epsilon-scaling slope study",
                epsilon=False, curve=None)
    p.add_argument("--study", required=True)
    p.add_argument("--eps", default=None,
                   help="comma list, fractions allowed: 1/16,1/32,...")
    p.add_argument("--out", default=".")
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
