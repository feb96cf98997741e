"""Batch command-line front end: verification suites, sweeps, and fits.

Subcommands

* ``wpneck verify <suite>``: run a named invariant suite and write a strict
  JSON report {suite, checks: [{name, value, bound, pass}]}, with null for
  a missing or non-finite value or bound; exit 0 iff all checks pass, 1 on
  any failure, 2 for usage/config errors, and for a ``--grid-n`` that a
  suite's solver refuses (one ``wpneck: config error`` line, as a sweep
  does).  Measurements that the tests also make come
  from :mod:`wpneck.checks`; the names and bounds are the suites' own.
* ``wpneck sweep <quantity>``: CSV emission (header ``ell,quantity,value``;
  the wp quantity uses ``ell,g_ll,g_lw,g_ww``), full double precision,
  rows sorted by ell; reruns are byte-identical.
* ``wpneck fit <csv>``: least-squares half-integer/log expansion fit of a
  sweep file of one quantity, JSON output; ill-conditioning exits nonzero,
  and a file whose ``quantity`` column holds more than one exits 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .config import CONFIG_ENV_VAR, RunConfig, load_config

__all__ = ["main", "build_parser", "run_suite", "SUITES"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _number(x) -> float | None:
    """A finite float, or None (JSON null) for a missing or non-finite one."""
    return float(x) if x is not None and np.isfinite(x) else None


def _check(name: str, value: float, bound: float | None, ok=None) -> dict:
    passed = bool(value <= bound) if ok is None else bool(ok)
    return {"name": name, "value": _number(value), "bound": _number(bound),
            "pass": passed}


# -- verification suites -------------------------------------------------------

def _capped(where: str, name: str, value: int, cap: int) -> int:
    """min(value, cap), with a note on stderr when the cap changes the value."""
    if value > cap:
        print(f"wpneck: note: {where} caps {name} at {cap} (got {value})",
              file=sys.stderr)
    return min(value, cap)


def _note_coarse_grid(quantity: str, ells: list[float], n: int) -> None:
    """Note on stderr the sweep rows whose ell the period-4 grid cannot resolve."""
    h = 4.0 / n
    below = sum(ell < h for ell in ells)
    if below:
        print(f"wpneck: note: sweep {quantity}: {below} of {len(ells)} rows "
              f"have ell below the grid spacing 4/{n} = {h:.6g}", file=sys.stderr)


def _note_unweighted(quantity: str, ells: list[float], rows: int) -> None:
    """Note on stderr the sweep rows at ``ells`` that have no conformal factor (phi = 0)."""
    if ells:
        print(f"wpneck: note: sweep {quantity}: {len(ells)} of {rows} rows use phi = 0 "
              f"(the neck curvature is not negative), the first at ell = {min(ells):.6g}",
              file=sys.stderr)


def _suite_cylinder(cfg: RunConfig) -> list[dict]:
    from .cylinder import (CylinderMetric, boundary_distance, make_chart,
                           metric_components, plumbing_substitution_check,
                           profile_curvature)
    from .grids import uniform_grid

    checks = []
    m = CylinderMetric(0.5)
    gtt, gqq = metric_components(m, 0.0)
    checks.append(_check("metric_components(l=0.5,tau=0)", abs(gtt - 4.0)
                         + abs(gqq - 0.25), 1e-14))
    grid = uniform_grid(-1, 1, 1025)
    K = profile_curvature(m.F(grid.nodes), grid)
    checks.append(_check("curvature_hyperbolic", float(np.max(np.abs(K[2:-2] + 1))),
                         1e-9))
    from scipy.integrate import quad

    for ell in (1.0, 0.1):
        mm = CylinderMetric(ell)
        oracle, _ = quad(lambda t: 1.0 / np.sqrt(t * t + ell * ell), 0.0, 1.0)
        checks.append(_check(f"boundary_distance(l={ell})",
                             abs(boundary_distance(mm) - oracle), 1e-10))
    for kind in ("arcsinh", "rescaled", "plumbing"):
        chart = make_chart(kind, CylinderMetric(np.pi / np.log(100.0)))
        pts = (np.linspace(*chart.domain, 33) if kind == "plumbing"
               else np.linspace(-0.9, 0.9, 33))
        checks.append(_check(f"chart_roundtrip({kind})",
                             chart.roundtrip_error(pts), 1e-12))
    checks.append(_check("plumbing_substitution", plumbing_substitution_check(
        np.pi / np.log(100.0), 50), 1e-10))
    return checks


def _suite_weitzenboeck(cfg: RunConfig) -> list[dict]:
    from .cylinder import CylinderMetric
    from .grids import uniform_grid
    from .modefields import ModeField, Rank
    from .operators import weitzenboeck_residual

    checks = []
    m = CylinderMetric(0.5)
    for k in (0, 2, 5):
        res = []
        for n in (cfg.grid_n // 4 + 1, cfg.grid_n // 2 + 1):
            grid = uniform_grid(-1, 1, n)
            x = grid.nodes
            data = np.vstack([np.cos(np.pi * x / 2) * np.sin(np.pi * x),
                              np.sin(np.pi * x / 2)])
            res.append(weitzenboeck_residual(
                m, ModeField(k, Rank.ONE_FORM, grid, data)))
        checks.append(_check(f"weitzenboeck_residual(k={k})", res[1],
                             cfg.identity_tol))
        ratio = res[0] / res[1]
        checks.append(_check(f"weitzenboeck_order(k={k})", ratio, 3.5,
                             ok=ratio >= 3.5))
    return checks


def _suite_l2norms(cfg: RunConfig) -> list[dict]:
    from .ttbasis import tt_l2norm_error

    return [_check(f"l2norm(k={k},l={ell})", tt_l2norm_error("kappa", k, ell)[1], 1e-8)
            for ell in (0.5, 0.1, 0.02) for k in range(1, min(cfg.tt_k_max, 8) + 1)]


def _suite_green(cfg: RunConfig) -> list[dict]:
    from .checks import smooth_bump
    from .green import HomogeneousSolutions, solve_zero_mode, solve_zero_mode_fd

    checks = []
    bump = smooth_bump(0.5, 0.75)
    for ell in (1.0, 0.1, 0.01):
        hom = HomogeneousSolutions(ell)
        ts = np.linspace(-1, 1, 257)
        checks.append(_check(f"wronskian(l={ell})", hom.wronskian_check(ts), 1e-9))
        rep = solve_zero_mode(ell, bump, 0.2, -0.1, n=4097)
        checks.append(_check(f"explicit_zero_mode_residual(l={ell})",
                             rep.residual, 1e-8))
        checks.append(_check(f"explicit_zero_mode_bc(l={ell})", rep.bc_error, 1e-10))
    ell = 0.1
    rep = solve_zero_mode(ell, bump, 0.2, -0.1, n=8193)
    tau_fd, w_fd = solve_zero_mode_fd(ell, bump, 0.2, -0.1, n=8193)
    rel = float(np.max(np.abs(rep.solution - w_fd)) / np.max(np.abs(w_fd)))
    checks.append(_check("explicit_vs_fd_oracle(l=0.1)", rel, 1e-6))
    return checks


def _suite_barrier(cfg: RunConfig) -> list[dict]:
    from .checks import barrier_excess, smooth_bump
    from .green import certify_barrier

    checks = []
    ells = (1e-3, 1e-2, 0.1)
    cert = certify_barrier(ells, tuple(range(1, 33)), cfg.barrier_alpha, cfg.cutoff_c)
    # an ell certified at no radius inside the cutoff leaves nothing to
    # compare against, so both checks fail instead of passing vacuously
    covered = all(cert.inner_radius[ell] <= cfg.cutoff_c for ell in ells)
    checks.append(_check("barrier_certified_margin", -cert.min_margin_certified,
                         0.0, ok=covered and cert.min_margin_certified >= 0.0))

    worst = 0.0 if covered else np.inf
    for ell in (ells if covered else ()):
        worst = max(worst, barrier_excess(cert, ell, (1, 4, 16, 32), (+1,),
                                          smooth_bump(0.5, 0.75), 2049))
    checks.append(_check("barrier_bound_excess", worst, 0.0, ok=worst <= 0.0))
    return checks


def _suite_parametrix(cfg: RunConfig) -> list[dict]:
    from .checks import parametrix_reports
    from .grids import periodic_grid
    from .parametrix import ParametrixFamily

    checks = []
    grid = periodic_grid(-2, 2, _capped("verify parametrix", "grid_n",
                                        cfg.grid_n, 2048))
    modes = _capped("verify parametrix", "modes", cfg.modes, 4)
    fam = ParametrixFamily(grid, ks=range(0, modes + 1))
    for ell, rep, prev in parametrix_reports(fam, cfg.seed):
        checks.append(_check(f"S_norm(l={ell})", rep.norm_S, 1.0,
                             ok=rep.norm_S < 1.0))
        checks.append(_check(f"S_decreasing(l={ell})", rep.norm_S, prev,
                             ok=prev is None or rep.norm_S < prev))
        checks.append(_check(f"neumann_residual(l={ell})", rep.residual,
                             cfg.identity_tol))
    return checks


def _suite_projection(cfg: RunConfig) -> list[dict]:
    from .checks import projection_defects
    from .grids import periodic_grid
    from .parametrix import SolverBank
    from .surface import ModelSurfaceMetric

    checks = []
    grid = periodic_grid(-2, 2, _capped("verify projection", "grid_n",
                                        cfg.grid_n, 4096))
    for ell in (0.1, 0.05):
        d = projection_defects(SolverBank(ModelSurfaceMetric(ell=ell), grid))
        checks.append(_check(f"idempotency(l={ell})", d["idempotency"], 1e-10))
        checks.append(_check(f"divergence_free(l={ell})", d["divergence"], 1e-9))
        checks.append(_check(f"gauge_annihilated(l={ell})", d["gauge"], 1e-6))
        checks.append(_check(f"projection_constant(l={ell})", d["constant"], 10.0))
    return checks


def _suite_uniformization(cfg: RunConfig) -> list[dict]:
    from .surface import ModelSurfaceMetric
    from .uniformize import curvature_after, solve_conformal_factor

    checks = []
    for ell in (0.05, 0.02, 0.01):
        surf = ModelSurfaceMetric(ell=ell)
        cf = solve_conformal_factor(surf)
        checks.append(_check(f"residual(l={ell})", cf.residual, 1e-10))
        checks.append(_check(f"bound(l={ell})", float(np.max(np.abs(cf.u))),
                             cf.bound))
        dev = float(np.max(np.abs(curvature_after(surf, cf) + 1.0)))
        checks.append(_check(f"curvature_after(l={ell})", dev, 1e-2))
    return checks


SUITES = {
    "cylinder": _suite_cylinder,
    "weitzenboeck": _suite_weitzenboeck,
    "l2norms": _suite_l2norms,
    "green": _suite_green,
    "barrier": _suite_barrier,
    "parametrix": _suite_parametrix,
    "projection": _suite_projection,
    "uniformization": _suite_uniformization,
}


def run_suite(name: str, cfg: RunConfig) -> dict:
    checks = SUITES[name](cfg)
    return {"suite": name, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


# -- sweeps ---------------------------------------------------------------------

def _sweep_rows(quantity: str, cfg: RunConfig) -> tuple[list[str], list[list[str]]]:
    ells = cfg.ell_grid()
    if quantity == "wp":
        from .wp import sweep_wp_coefficients

        _note_coarse_grid(quantity, ells, cfg.sweep_grid_n)
        rows = sweep_wp_coefficients(ells, grid_n=cfg.sweep_grid_n,
                                     jobs=cfg.jobs)
        _note_unweighted(quantity, [r["ell"] for r in rows
                                    if np.isnan(r["conformal_bound"])], len(rows))
        header = ["ell", "g_ll", "g_lw", "g_ww"]
        return header, [[_fmt(r["ell"]), _fmt(r["g_ll"]), _fmt(r["g_lw"]),
                         _fmt(r["g_ww"])] for r in rows]
    header = ["ell", "quantity", "value"]
    out = []
    if quantity == "divergence":
        from .grids import periodic_grid
        from .parametrix import cutoff_div_norm
        from .surface import ModelSurfaceMetric

        grid = periodic_grid(-2, 2, _capped("sweep divergence", "sweep_grid_n",
                                            cfg.sweep_grid_n, 16384))
        _note_coarse_grid(quantity, ells, grid.n)
        for ell in ells:
            out.append([_fmt(ell), "divergence_norm",
                        _fmt(cutoff_div_norm(ModelSurfaceMetric(ell=ell), grid))])
    elif quantity == "ttnorm":
        from .ttbasis import tt_l2norm

        for ell in ells:
            for k in range(1, cfg.tt_k_max + 1):
                out.append([_fmt(ell), f"ttnorm_k{k}",
                            _fmt(tt_l2norm("kappa", k, ell))])
    elif quantity == "conformal":
        from .surface import ModelSurfaceMetric
        from .uniformize import solve_conformal_factor

        for ell in ells:
            try:
                cf = solve_conformal_factor(ModelSurfaceMetric(ell=ell))
                val = float(np.max(np.abs(cf.u)))
            except ValueError:
                val = float("nan")
            out.append([_fmt(ell), "conformal_sup", _fmt(val)])
        _note_unweighted(quantity, [ell for ell, row in zip(ells, out)
                                    if row[2] == "nan"], len(ells))
    else:
        raise KeyError(quantity)
    return header, out


# -- entry point ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--ell-min", type=float, dest="ell_min")
    common.add_argument("--ell-max", type=float, dest="ell_max")
    common.add_argument("--ell-count", type=int, dest="ell_count")
    common.add_argument("--grid-n", type=int, dest="grid_n")
    common.add_argument("--modes", type=int, dest="modes")
    common.add_argument("--jobs", type=int, dest="jobs")
    common.add_argument("--out", dest="out", help="output path ('-' = stdout)")

    p = argparse.ArgumentParser(
        prog="wpneck",
        description="Degenerating-cylinder numerics: verification suites, "
                    "sweeps, and expansion fits.",
        epilog=f"Default config path comes from ${CONFIG_ENV_VAR}.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common],
                       help="run a named invariant suite")
    v.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")

    s = sub.add_parser("sweep", parents=[common], help="emit a CSV sweep")
    s.add_argument("quantity", choices=["wp", "ttnorm", "divergence", "conformal"])

    f = sub.add_parser("fit", parents=[common],
                       help="fit a sweep CSV against the expansion grading")
    f.add_argument("csv", help="input CSV with ell in the first column")
    f.add_argument("--column", default=None,
                   help="value column name (default: second column)")
    f.add_argument("--half-powers", type=int, dest="half_powers", default=None)
    f.add_argument("--log-powers", type=int, dest="log_powers", default=None)
    return p


def _write_out(text: str, out: str):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(f"wpneck: cannot write {out}: {exc}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {k: getattr(args, k, None)
                 for k in ("ell_min", "ell_max", "ell_count", "grid_n",
                           "modes", "jobs", "out")}
    if args.command == "sweep":
        # sweeps run on sweep_grid_n; --grid-n names that grid here
        overrides["sweep_grid_n"] = overrides.pop("grid_n")
    try:  # a config, or a grid a solver cannot serve: no report or row is written
        cfg = load_config(args.config, overrides)
        if args.command == "verify":
            if args.suite not in SUITES:
                print(f"wpneck: unknown suite {args.suite!r}; choose from "
                      f"{', '.join(sorted(SUITES))}", file=sys.stderr)
                return 2
            report = run_suite(args.suite, cfg)
        elif args.command == "sweep":
            header, rows = _sweep_rows(args.quantity, cfg)
    except (ValueError, OSError) as exc:
        print(f"wpneck: config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "verify":
        _write_out(json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
                   + "\n", cfg.out)
        return 0 if report["pass"] else 1

    if args.command == "sweep":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")  # RFC 4180
        writer.writerow(header)
        writer.writerows(rows)
        _write_out(buf.getvalue(), cfg.out)
        return 0

    if args.command == "fit":
        from .wp import FitConditionError, fit_polyhomogeneous

        try:
            with open(args.csv, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or len(reader.fieldnames) < 2:
                    print("wpneck: fit input needs a header with >= 2 columns",
                          file=sys.stderr)
                    return 2
                if args.column:
                    col = args.column
                elif "value" in reader.fieldnames:
                    col = "value"
                else:
                    col = reader.fieldnames[1]
                rows = list(reader)
                data = [(float(row["ell"]), float(row[col])) for row in rows]
        except (OSError, KeyError, TypeError, ValueError) as exc:  # TypeError: a short row
            print(f"wpneck: cannot read fit input: {exc}", file=sys.stderr)
            return 2
        # one fit is of one function of ell
        kinds = list(dict.fromkeys(row.get("quantity") for row in rows))
        if len(kinds) > 1:
            print(f"wpneck: fit input mixes quantities {', '.join(map(str, kinds))}; "
                  "fit one at a time", file=sys.stderr)
            return 2
        ells = [d[0] for d in data]
        vals = [d[1] for d in data]
        K = cfg.fit_half_powers if args.half_powers is None else args.half_powers
        J = cfg.fit_log_powers if args.log_powers is None else args.log_powers
        try:
            fit = fit_polyhomogeneous(ells, vals, K, J)
        except FitConditionError as exc:
            print(f"wpneck: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"wpneck: fit error: {exc}", file=sys.stderr)
            return 2
        payload = {
            "terms": [{"half_power": k, "log_power": j, "coeff": a}
                      for k, j, a in fit.terms],
            "residual": fit.residual,
            "condition_number": fit.condition_number,
            "residual_path": list(fit.residual_path),
            "samples": fit.sample_count,
        }
        _write_out(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
                   + "\n", cfg.out)
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
