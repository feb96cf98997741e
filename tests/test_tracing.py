"""The benchmark's span table against the real package.

``perfbench/spans.py`` names wpneck functions and methods by string and
resolves them with ``getattr`` when it instruments the package; a rename
or deletion in ``src/`` would break ``perfbench/run.py --trace 1`` with an
``AttributeError``.
"""

import importlib.util
from pathlib import Path

import wpneck

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
