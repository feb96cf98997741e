"""The benchmark's span table and run-time hooks against the real package.

``perfbench/spans.py`` names wpneck functions and methods by string and
resolves them with ``getattr`` when it instruments the package; a rename
or deletion in ``src/`` would break ``perfbench/run.py --trace 1`` with an
``AttributeError``.  The ``marks`` hooks of ``perfbench/workloads.py``
rebind ``wpneck.wp`` module globals the same way on every run.
"""

import importlib.util
import sys
from pathlib import Path

import wpneck

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def _load_spans():
    return _load("spans")


def test_span_table_instruments_and_restores_the_package():
    spans = _load_spans()
    grids, surface = wpneck.grids, wpneck.surface
    before = (grids.periodic_grid, wpneck.periodic_grid,
              vars(surface.FactoredGlobalSolver)["solve_sigma"])
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        assert wpneck.periodic_grid is not before[1]
        wpneck.periodic_grid(-2.0, 2.0, 16)
    finally:
        restore()
    assert [s[spans.NAME] for s in tracer.spans] == ["periodic_grid"]
    assert (grids.periodic_grid, wpneck.periodic_grid,
            vars(surface.FactoredGlobalSolver)["solve_sigma"]) == before


def test_wp_sweep_hooks_resolve_and_one_row_passes():
    # a missing wpneck.wp global fails every row of the sweep
    workloads = _load("workloads")
    tally = workloads.Tally()
    rows = workloads.WpSweep().run(None, {"ells": [0.05]}, tally)
    assert (tally.attempted, tally.failed) == (1, 0), tally.notes
    assert [r["ell"] for r in rows] == [0.05]


def test_parametrix_norms_hooks_resolve_and_two_items_pass():
    # the marks read ParametrixFamily.block, ModeParametrix.apply_S and
    # apply_S_T, and each block's surface.ell and k; a renamed one fails
    # every item of the workload
    workloads = _load("workloads")
    tally = workloads.Tally()
    family = wpneck.ParametrixFamily(wpneck.periodic_grid(-2.0, 2.0, 512), ks=[0, 2])
    out = workloads.ParametrixNorms().run(
        family, {"ells": [0.2, 0.1], "norm_seeds": [0, 1]}, tally)
    assert (tally.attempted, tally.failed) == (2, 0), tally.notes
    assert [r["ell"] for r in out] == [0.2, 0.1]
