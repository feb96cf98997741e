import contextlib
import csv
import io
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpneck.cli as cli
from wpneck.cli import _check, main, run_suite
from wpneck.config import RunConfig, load_config
from wpneck.surface import ELL_CEILING, ELL_FLOOR
from wpneck.wp import sweep_wp_coefficients


def test_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "nosuch"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_cylinder_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "cylinder", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "cylinder"
    assert report["pass"] is True
    for check in report["checks"]:
        assert set(check) == {"name", "value", "bound", "pass"}


def test_sweep_divergence_csv_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "divergence", "--ell-count", "5", "--ell-min", "1e-2",
            "--ell-max", "1e-1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0].strip() == "ell,quantity,value"
    assert len(lines) == 6
    # rows sorted ascending in ell
    ells = [float(row.split(",")[0]) for row in lines[1:]]
    assert ells == sorted(ells)


def test_sweep_wp_header(tmp_path):
    out = tmp_path / "wp.csv"
    code = main(["sweep", "wp", "--ell-count", "3", "--ell-min", "3e-2",
                 "--ell-max", "1e-1", "--grid-n", "2048", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0].strip()
    assert header == "ell,g_ll,g_lw,g_ww"


def test_sweep_honours_grid_n(tmp_path):
    # --grid-n sets grid_n, as a config file line would
    flag, conf, plain = (tmp_path / f"{x}.csv" for x in ("flag", "conf", "plain"))
    cfg_file = tmp_path / "n.cfg"
    cfg_file.write_text("grid_n = 512\n")
    args = ["sweep", "wp", "--ell-count", "2"]
    assert main(args + ["--grid-n", "512", "--out", str(flag)]) == 0
    assert main(args + ["--config", str(cfg_file), "--out", str(conf)]) == 0
    assert main(args + ["--out", str(plain)]) == 0
    assert flag.read_bytes() == conf.read_bytes()
    assert flag.read_bytes() != plain.read_bytes()
    row = sweep_wp_coefficients(RunConfig(ell_count=2).ell_grid(), grid_n=512)[0]
    assert float(flag.read_text().splitlines()[1].split(",")[1]) == row["g_ll"]


def test_a_given_grid_is_used_as_given(monkeypatch, capsys):
    # no command caps a grid_n that is set, and none notes one
    assert main(["verify", "projection", "--grid-n", "4098"]) == 0
    assert capsys.readouterr().err == ""

    import wpneck.parametrix

    built = []

    class Family:  # stands in for the costly parametrix family
        def __init__(self, grid, ks):
            built.append((grid.n, list(ks)))

        def report(self, ell, norm_seed):
            return SimpleNamespace(norm_S=ell, residual=0.0)

    monkeypatch.setattr(wpneck.parametrix, "ParametrixFamily", Family)
    # unset, grid_n is the suite's own 2048; its modes are criterion 7's k = 0 ... 4
    run_suite("parametrix", RunConfig(grid_n=4096))
    run_suite("parametrix", RunConfig())
    assert built == [(4096, [0, 1, 2, 3, 4]), (2048, [0, 1, 2, 3, 4])]
    assert capsys.readouterr().err == ""


def test_a_command_refuses_a_flag_it_does_not_read(tmp_path, capsys):
    # argparse's usage error: exit 2 before any run, with the flag named
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("ell,value\n0.01,1.0\n")
    for argv in (["verify", "cylinder", "--ell-count", "5"], ["verify", "cylinder", "--jobs", "2"],
                 ["sweep", "ttnorm", "--modes", "3"], ["fit", str(csv_path), "--grid-n", "2048"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert not out and f"unrecognized arguments: {' '.join(argv[-2:])}" in err, argv


def test_fit_refuses_a_negative_power(tmp_path, capsys):
    # a negative power leaves no term to fit: refused by name, not by numpy
    csv_path = tmp_path / "series.csv"
    ells = np.geomspace(1e-3, 1e-1, 36)
    csv_path.write_text("\n".join(["ell,value"] + [f"{e},1.0" for e in ells]) + "\n")
    for flags in (["--half-powers", "-1"], ["--log-powers", "-1"]):
        assert main(["fit", str(csv_path), *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "wpneck: fit error: max_half_power and max_log_power must be non-negative"), err


def _unweighted_note(flat: int, rows: int, first: str = "0.1") -> str:
    """The stderr note of a sweep wp whose ``flat`` rows from ell = ``first`` have phi = 0."""
    return (f"wpneck: note: sweep wp: {flat} of {rows} rows use phi = 0 (the neck "
            f"curvature is not negative), the first at ell = {first}\n")


def test_coarse_sweep_grid_is_noted_on_stderr(tmp_path, capsys):
    # at --grid-n 512 the spacing 4/512 exceeds the five smallest of the
    # twelve default ells; the CSV itself is unchanged by the note.  A wp
    # sweep notes its rows without a conformal factor too: above ell ~ 0.0736
    # the neck curvature is not negative on |tau| <= 7/8, and phi = 0
    for quantity in ("wp", "divergence"):
        out = tmp_path / f"{quantity}.csv"
        assert main(["sweep", quantity, "--grid-n", "512", "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            f"wpneck: note: sweep {quantity}: 5 of 12 rows have ell below "
            "the grid spacing 4/512 = 0.0078125\n"
            + (_unweighted_note(1, 12) if quantity == "wp" else ""))
    for args, err in ((["divergence"], ""), (["wp", "--ell-count", "2"], _unweighted_note(1, 2)),
                      (["wp", "--ell-min", "0.05", "--ell-max", "0.9", "--ell-count", "3"],
                       _unweighted_note(2, 3, "0.212132")),
                      (["wp", "--ell-count", "2", "--ell-max", "0.07"], "")):
        assert main(["sweep", *args, "--out", str(tmp_path / "d.csv")]) == 0
        assert capsys.readouterr().err == err


def test_sweep_conformal_notes_its_nan_rows(tmp_path, capsys):
    # a row without a conformal factor is written as nan, and noted with the
    # line that sweep wp prints for its phi = 0 rows; the exit code stays 0
    out = tmp_path / "c.csv"
    for args, flat, first in ((["--ell-count", "12"], 1, "0.1"),
                              (["--ell-min", "0.05", "--ell-max", "0.9",
                                "--ell-count", "3"], 2, "0.212132")):
        assert main(["sweep", "conformal", *args, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert sum(row.endswith(",nan") for row in rows) == flat
        assert capsys.readouterr().err == _unweighted_note(flat, len(rows), first).replace(
            "sweep wp", "sweep conformal")
    assert main(["sweep", "conformal", "--ell-count", "2", "--ell-max", "0.07",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_divergence_refuses_a_grid_without_transition_nodes(tmp_path, capsys):
    # on 16 nodes none lies strictly inside 1/2 < |tau| < 3/4, where the
    # divergence lives: every row would read 0.  Refused before any row
    out = tmp_path / "d.csv"
    assert main(["sweep", "divergence", "--grid-n", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("wpneck: config error: the 16-node grid")
    assert not out.exists()
    assert main(["sweep", "divergence", "--grid-n", "18", "--ell-count", "2",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2 and all(float(r.split(",")[2]) > 0.0 for r in rows)


def test_sweep_divergence_builds_no_projection(monkeypatch, tmp_path):
    # a row is the closed-form norm alone: no factored solver is built for it
    from wpneck.surface import FactoredGlobalSolver

    def refuse(*args, **kwargs):
        raise AssertionError("built a FactoredGlobalSolver")

    monkeypatch.setattr(FactoredGlobalSolver, "__init__", refuse)
    assert main(["sweep", "divergence", "--ell-count", "2",
                 "--out", str(tmp_path / "d.csv")]) == 0


def test_fit_roundtrip_through_files(tmp_path):
    csv_path = tmp_path / "series.csv"
    ells = np.geomspace(1e-3, 1e-1, 36)
    vals = 1.5 + 0.25 * np.sqrt(ells)
    rows = ["ell,value"] + [f"{e},{v}" for e, v in zip(ells, vals)]
    csv_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit.json"
    code = main(["fit", str(csv_path), "--half-powers", "2", "--log-powers", "0",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    terms = {(t["half_power"], t["log_power"]): t["coeff"]
             for t in payload["terms"]}
    assert terms[(0, 0)] == pytest.approx(1.5, abs=1e-8)
    assert terms[(1, 0)] == pytest.approx(0.25, abs=1e-8)


def test_fit_ill_conditioned_nonzero_exit(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    ells = np.geomspace(1e-3, 1e-1, 200)
    rows = ["ell,value"] + [f"{e},1.0" for e in ells]
    csv_path.write_text("\n".join(rows) + "\n")
    code = main(["fit", str(csv_path), "--half-powers", "14",
                 "--log-powers", "3"])
    assert code == 1
    assert "condition number" in capsys.readouterr().err


def test_fit_missing_file_is_usage_error(capsys):
    assert main(["fit", "/nonexistent/file.csv"]) == 2


def test_fit_refuses_a_short_row_with_one_line(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("ell,value\n0.01,1.0\n0.02\n0.03,1.2\n")
    assert main(["fit", str(csv_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("wpneck: cannot read fit input"), err


def test_fit_refuses_a_csv_of_mixed_quantities(tmp_path, capsys):
    # sweep ttnorm writes one quantity per k, which no one function of ell
    # fits: one line names them and the exit is 2.  One quantity's rows fit
    sweep = tmp_path / "ttnorm.csv"
    assert main(["sweep", "ttnorm", "--ell-count", "6", "--out", str(sweep)]) == 0
    capsys.readouterr()
    args = ["--half-powers", "1", "--log-powers", "0", "--out", str(tmp_path / "fit.json")]
    assert main(["fit", str(sweep), *args]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("wpneck: fit input mixes quantities ttnorm_k1, ttnorm_k2, "), err
    lines = sweep.read_text().splitlines()
    one = tmp_path / "ttnorm_k1.csv"
    one.write_text("\n".join([lines[0]] + [r for r in lines[1:] if ",ttnorm_k1," in r]) + "\n")
    assert main(["fit", str(one), *args]) == 0
    assert json.loads((tmp_path / "fit.json").read_text())["samples"] == 6


def test_config_file_and_env(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nell_min = 0.002\ntt_k_max = 4\n")
    cfg = load_config(str(cfg_file))
    assert cfg.ell_min == 0.002
    assert cfg.tt_k_max == 4
    monkeypatch.setenv("WPNECK_CONFIG", str(cfg_file))
    cfg2 = load_config()
    assert cfg2.ell_min == 0.002
    cfg3 = load_config(str(cfg_file), overrides={"tt_k_max": 6})
    assert cfg3.tt_k_max == 6


def test_config_rejects_unknown_keys(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("elll_min = 0.1\n")
    with pytest.raises(ValueError):
        load_config(str(bad))
    with pytest.raises(ValueError):
        load_config(None, overrides={"nonsense": 3})
    # identity_tol could loosen a verify bound; fit_*_powers repeated the
    # fit's flags; grid_n is the one grid; modes, seed, cutoff_c and
    # barrier_alpha are the suites' own constants, and jobs only slowed a sweep
    for retired in ("frame_size = 6", "solver_tol = 1e-10", "identity_tol = 1",
                    "fit_half_powers = 4", "fit_log_powers = 1", "sweep_grid_n = 512",
                    "modes = 0", "seed = 7", "cutoff_c = 2", "barrier_alpha = 0.99",
                    "jobs = 2"):
        bad.write_text(retired + "\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(str(bad))
        assert main(["verify", "cylinder", "--config", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unknown key" in err[0], err


def test_readme_states_the_config_keys_and_their_defaults():
    # README's "The config keys, with their defaults, are ..." sentence, held
    # to RunConfig: `key = value` for a default, a bare `key` for an unset one
    import re
    from dataclasses import fields
    from pathlib import Path

    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").split())
    sentence = re.search(r"The config keys, with their defaults, are (.*?)\.(?:\s|$)", text)
    stated = dict(re.findall(r"`(\w+)(?: = ([^`]+))?`", sentence.group(1)))
    defaults = {f.name: f.default for f in fields(RunConfig)}
    assert list(stated) == list(defaults)
    for key, raw in stated.items():
        default = defaults[key]
        assert (raw == "") if default is None else (type(default)(raw) == default), key


def test_config_refuses_a_repeated_key(tmp_path, capsys):
    # the last value would win silently
    cfg_file = tmp_path / "twice.cfg"
    cfg_file.write_text("ell_min = 0.002\n# comment\nell_min = 0.003\n")
    with pytest.raises(ValueError, match=r"twice.cfg:3: duplicate key 'ell_min'"):
        load_config(str(cfg_file))
    assert main(["sweep", "wp", "--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (f"wpneck: config error: {cfg_file}:3: duplicate key "
                            "'ell_min'\n")


def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["verify", "cylinder", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"wpneck: cannot write {out}: "), err
    assert not out.parent.exists()


def test_config_validation(capsys, tmp_path):
    with pytest.raises(ValueError):
        RunConfig(ell_min=0.5, ell_max=0.1)
    for bad in ({"grid_n": 0}, {"grid_n": -5}, {"grid_n": 1}, {"grid_n": 2049},
                {"grid_n": 16383}, {"grid_n": 2}, {"tt_k_max": 0}, {"tt_k_max": -1}):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    assert RunConfig(grid_n=4).grid_n == 4
    for flag in (["--grid-n", "-5"], ["--grid-n", "2049"]):
        assert main(["verify", "cylinder"] + flag) == 2
        assert "wpneck: config error" in capsys.readouterr().err
    assert main(["sweep", "wp", "--grid-n", "2049"]) == 2
    assert "config error: grid_n must be even" in capsys.readouterr().err
    # a two-node grid leaves the odd sector no node: refused at load, not a traceback
    assert main(["sweep", "wp", "--grid-n", "2"]) == 2
    assert "config error: grid_n must be at least 4" in capsys.readouterr().err
    assert main(["verify", "projection", "--grid-n", "2"]) == 2
    assert "grid_n must be at least 4" in capsys.readouterr().err
    # a grid that a suite's solver refuses is a config error too
    for suite, n in (("weitzenboeck", 16), ("projection", 16), ("parametrix", 16),
                     ("parametrix", 40)):
        assert main(["verify", suite, "--grid-n", str(n)]) == 2
        assert "wpneck: config error" in capsys.readouterr().err
    for suite, n in (("weitzenboeck", 28), ("projection", 18), ("parametrix", 52)):
        run_suite(suite, RunConfig(grid_n=n))
    # a config file that would empty the ttnorm sweep is refused at load
    cfg_file = tmp_path / "ttnorm.cfg"
    cfg_file.write_text("tt_k_max = 0\n")
    assert main(["sweep", "ttnorm", "--config", str(cfg_file)]) == 2
    assert "wpneck: config error" in capsys.readouterr().err
    # below the model's ell floor the conformal Newton raises (1e-12, 3e-12)
    # or the WP row is NaN (1e-200): refused at load, and the floor runs
    for lo in (1e-12, 3e-12, 1e-200):
        with pytest.raises(ValueError, match="ell floor"):
            RunConfig(ell_min=lo)
    for quantity in ("wp", "conformal"):
        for lo, code in (("1e-12", 2), ("1e-200", 2), ("1e-10", 0)):
            assert main(["sweep", quantity, "--ell-count", "2", "--ell-min", lo,
                         "--ell-max", "1e-9"]) == code, (quantity, lo)
            err = capsys.readouterr().err.splitlines()
            if code:
                assert len(err) == 1 and err[0].startswith("wpneck: config error"), err
            else:
                assert not any("config error" in line for line in err), err
    grid = RunConfig(ell_min=1e-2, ell_max=1e-1, ell_count=4).ell_grid()
    assert len(grid) == 4 and grid[0] == pytest.approx(1e-2)
    # above pi / log 4 the collar is no plumbing annulus, and a profile
    # overflows (1e300) or a WP row is NaN (1e100): refused at load, and the
    # ceiling runs
    for hi in (ELL_CEILING * (1.0 + 1e-15), 2.27, 1e100, 1e300):
        with pytest.raises(ValueError, match="ell ceiling"):
            RunConfig(ell_max=hi)
    assert RunConfig(ell_max=ELL_CEILING).ell_grid()[-1] == pytest.approx(ELL_CEILING)


def test_an_ell_above_the_ceiling_is_a_config_error(capsys):
    for quantity in ("wp", "ttnorm", "divergence", "conformal"):
        assert main(["sweep", quantity, "--ell-count", "2", "--ell-max", "1e300"]) == 2
        out, err = capsys.readouterr()
        assert not out and err.splitlines() == [
            "wpneck: config error: ell_max must be at most 2.26618 = pi/log 4, the "
            "model's ell ceiling (got 1e+300)"], quantity


def test_sweep_ttnorm_runs_down_to_the_ell_floor(capsys):
    # the closed-form norms are finite down to the ell floor; their quadrature
    # cross-check is verify l2norms' (test_ttbasis checks it at the floor)
    assert main(["sweep", "ttnorm", "--ell-min", "1e-10", "--ell-max", "2.2"]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 + 12 * 8 and not err


@given(quantity=st.sampled_from(["wp", "ttnorm", "divergence", "conformal"]),
       half_n=st.integers(2, 128), count=st.integers(2, 4),
       exponents=st.lists(st.floats(math.log10(ELL_FLOOR), math.log10(ELL_CEILING)),
                          min_size=2, max_size=2, unique=True))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_an_accepted_sweep_is_finite_or_a_config_error(quantity, half_n, count, exponents):
    # any sweep over the accepted ell window: exit 0 with finite values (but
    # for the noted NaN rows of sweep conformal), or exit 2 with a config error
    # line, and never a traceback
    lo, hi = sorted(10.0 ** x for x in exponents)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", quantity, "--grid-n", str(2 * half_n), "--ell-count",
                     str(count), "--ell-min", repr(lo), "--ell-max", repr(hi)])
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert lines[-1].startswith("wpneck: config error"), lines
        return
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
    values = [float(cell) for row in rows
              for cell in (row if quantity == "wp" else row[::2])]
    nan = sum(math.isnan(v) for v in values)
    if nan:
        assert quantity == "conformal", rows
        assert any(f"sweep conformal: {nan} of {count} rows use phi = 0" in line
                   for line in lines), lines
    assert all(math.isfinite(v) for v in values if not math.isnan(v)), rows


def test_no_coarse_grid_prints_a_traceback(capsys):
    # every even grid_n up to where each suite runs: a JSON report and exit
    # 0 or 1, or exit 2 with one config error line
    for suite, top in (("weitzenboeck", 28), ("projection", 18), ("parametrix", 56)):
        for n in range(4, top + 1, 2):
            code = main(["verify", suite, "--grid-n", str(n)])
            out, err = capsys.readouterr()
            assert "Traceback" not in err, (suite, n)
            if code == 2:
                assert not out, (suite, n)
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("wpneck: config error:"), \
                    (suite, n, lines)
            else:
                assert code in (0, 1) and json.loads(out)["suite"] == suite, (suite, n)
    assert main(["verify", "parametrix", "--grid-n", "54"]) == 2


def test_config_refuses_non_finite_floats(capsys, tmp_path):
    # NaN passes every ordering check and inf passes as a bound; unrefused, a
    # NaN ell_min stalls the Newton line search
    for key, raw in (("ell_min", "nan"), ("ell_max", "inf")):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            RunConfig(**{key: float(raw)})
        cfg_file = tmp_path / f"{key}.cfg"
        cfg_file.write_text(f"{key} = {raw}\n")
        assert main(["sweep", "wp", "--config", str(cfg_file)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
    for flag in (["--ell-max", "inf"], ["--ell-min", "nan"]):
        assert main(["sweep", "wp"] + flag) == 2
        assert "must be finite" in capsys.readouterr().err


def test_verify_barrier_fails_when_nothing_is_certified(tmp_path, monkeypatch):
    # alpha near 1 certifies no radius at any ell: both checks must fail,
    # in a strict JSON report, rather than crash or pass on an inf margin
    monkeypatch.setattr(cli, "_BARRIER_ALPHA", 0.99)
    out = tmp_path / "barrier.json"
    assert main(["verify", "barrier", "--out", str(out)]) == 1
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["pass"] is False
    checks = {c["name"]: c for c in report["checks"]}
    assert set(checks) == {"barrier_certified_margin", "barrier_bound_excess"}
    assert all(c["pass"] is False for c in checks.values())


def test_verify_barrier_prints_its_pinned_values(capsys):
    # the certificate and the channel solves must not drift by a bit
    assert main(["verify", "barrier"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert [(c["name"], c["value"], c["bound"], c["pass"])
            for c in report["checks"]] == [
        ("barrier_certified_margin", -0.9010995568590547, 0.0, True),
        ("barrier_bound_excess", 0.0, 0.0, True)]


def test_run_suite_registry():
    cfg = RunConfig(grid_n=2048)
    report = run_suite("cylinder", cfg)
    assert report["pass"]


def test_verify_failure_exits_one(tmp_path, monkeypatch):
    # absurd identity tolerance forces check failures -> exit code 1
    monkeypatch.setattr(cli, "_IDENTITY_TOL", 1e-30)
    cfg_file = tmp_path / "strict.cfg"
    cfg_file.write_text("grid_n = 2048\n")
    out = tmp_path / "r.json"
    code = main(["verify", "weitzenboeck", "--config", str(cfg_file),
                 "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    orders = [c for c in report["checks"]
              if c["name"].startswith("weitzenboeck_order")]
    assert len(orders) == 3
    for check in orders:
        # value is the measured refinement ratio, bound the required 3.5
        assert check["bound"] == 3.5
        assert check["value"] >= 3.5 and check["pass"] is True


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_verify_parametrix_report_is_strict_json(tmp_path):
    out = tmp_path / "parametrix.json"
    assert main(["verify", "parametrix", "--out", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    first = next(c for c in report["checks"]
                 if c["name"].startswith("S_decreasing"))
    assert first["bound"] is None and first["pass"] is True


def test_check_writes_null_for_non_finite_numbers():
    entry = _check("margin", -np.inf, 0.0, ok=False)
    assert entry["value"] is None and entry["bound"] == 0.0
    json.dumps(entry, allow_nan=False)


def test_fit_rejects_non_finite_samples(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    ells = np.geomspace(1e-3, 1e-1, 36)
    rows = ["ell,value"] + [f"{e},{'nan' if i == 3 else 1.0}"
                            for i, e in enumerate(ells)]
    csv_path.write_text("\n".join(rows) + "\n")
    assert main(["fit", str(csv_path), "--half-powers", "2",
                 "--log-powers", "0"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_package_version_matches_the_project_metadata():
    # benchmark records report wpneck.__version__; pyproject.toml states it too
    import tomllib
    from pathlib import Path

    import wpneck

    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert wpneck.__version__ == tomllib.load(fh)["project"]["version"]
