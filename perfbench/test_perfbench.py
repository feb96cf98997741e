"""Tests of the benchmark's own logic; none of them imports wpneck.

    python3 -m pytest perfbench
"""

import types

import pytest

from run import items_per_s
from spans import END, PARENT, START, Tracer, instrument, layer_metrics, self_times
from workloads import (Tally, WpSweep, check_decreasing, marks, run_item, segments,
                       stratified_log_uniform, wp_row_matches)


def _span(sid, parent, start, end, kind="k", name="f", phase="timed"):
    return [sid, parent, kind, name, phase, start, end, True]


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4];  root > c [7, 9]
    spans = [_span(0, -1, 0.0, 10.0), _span(1, 0, 1.0, 6.0),
             _span(2, 1, 2.0, 4.0), _span(3, 0, 7.0, 9.0)]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def _fake_package():
    """Two modules: ``a`` defines the functions, ``b`` imported one by name."""
    a = types.ModuleType("wpneck.a")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) + inner(x)\n"
        "class Solver:\n"
        "    def __init__(self):\n"
        "        self.v = inner(0)\n",
        a.__dict__,
    )
    b = types.ModuleType("wpneck.b")
    b.outer_alias = a.outer
    return {"wpneck.a": a, "wpneck.b": b}


TABLE = {
    "grids.build": ("wpneck.a", ["inner"]),
    "wp.self": ("wpneck.a", ["outer"]),
    "surface.factor": ("wpneck.a", ["Solver.__init__"]),
}


def test_instrument_wraps_every_binding_and_times_a_nested_tree():
    mods = _fake_package()
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0,   # outer > inner, inner
                  20.0, 21.0, 22.0, 25.0])         # Solver() > inner
    tracer = Tracer(clock=lambda: next(ticks))
    restore = instrument(tracer, modules=mods, table=TABLE)
    tracer.phase = "timed"
    assert mods["wpneck.b"].outer_alias(1) == 4   # the alias is wrapped too
    mods["wpneck.a"].Solver()
    restore()

    assert [(s[START], s[END], s[PARENT]) for s in tracer.spans] == [
        (0.0, 10.0, -1), (1.0, 3.0, 0), (4.0, 7.0, 0), (20.0, 25.0, -1),
        (21.0, 22.0, 3)]
    m = layer_metrics(tracer.spans, tracer.counters)
    assert m["wp.self_s"] == 5.0            # 10 - (2 + 3)
    assert m["grids.build_s"] == 6.0        # 2 + 3 + 1
    assert m["grids.builds"] == 3
    assert m["surface.factor_s"] == 4.0     # 5 - 1
    assert m["surface.factors"] == 1

    # restored: no further spans
    mods["wpneck.b"].outer_alias(1)
    mods["wpneck.a"].Solver()
    assert len(tracer.spans) == 5


def test_layer_metrics_split_setup_from_timed_phase():
    spans = [_span(0, -1, 0.0, 2.0, kind="surface.factor", phase="setup"),
             _span(1, -1, 3.0, 4.0, kind="surface.factor")]
    m = layer_metrics(spans, {})
    assert m["surface.factor_s"] == 1.0 and m["surface.factors"] == 1
    assert m["setup.surface.factor_s"] == 2.0


REF = {"ell": 0.01, "g_ll": 7.0e3, "g_lw": 0.0, "g_ww": 3.0e-5}


@pytest.mark.parametrize("key", ["g_ll", "g_ww"])
def test_comparator_flags_a_row_perturbed_by_1e_11_relative(key):
    row = dict(REF)
    assert wp_row_matches(row, REF)
    row[key] = REF[key] * (1.0 + 1e-11)
    assert not wp_row_matches(row, REF)
    ok, _ = WpSweep.check_row(row, REF["ell"], {REF["ell"]: REF})
    assert not ok


def test_comparator_scales_the_cross_term_by_the_diagonal():
    scale = (REF["g_ll"] * REF["g_ww"]) ** 0.5
    assert wp_row_matches(dict(REF, g_lw=1e-13 * scale), REF)
    assert not wp_row_matches(dict(REF, g_lw=1e-11 * scale), REF)


def test_a_raising_item_raises_fail_ratio():
    tally = Tally()

    def good(x):
        return True, x

    def bad(x):
        raise ArithmeticError("did not converge")

    assert run_item(tally, "good", good, 1) == 1
    assert tally.fail_ratio == 0.0
    assert run_item(tally, "bad", bad, 2) is None
    assert (tally.attempted, tally.failed, tally.fail_ratio) == (2, 1, 0.5)
    assert "ArithmeticError" in tally.notes[0]


def test_a_failed_check_counts_as_a_failure():
    tally = Tally()
    assert run_item(tally, "x", lambda: (False, "too big")) is None
    assert tally.fail_ratio == 1.0


def test_norms_out_of_order_fail_no_more_items_than_were_attempted():
    tally = Tally()
    outputs = [run_item(tally, str(ell), lambda e: (True, {"ell": e, "norm_S": 0.5}), ell)
               for ell in (0.4, 0.2, 0.1, 0.05)]   # ||S|| flat: every pair out of order
    check_decreasing(tally, outputs)
    assert (tally.attempted, tally.failed) == (4, 3)

    tally = Tally()
    check_decreasing(tally, [{"ell": 0.1, "norm_S": 0.2}, {"ell": 0.2, "norm_S": 0.3}])
    assert tally.failed == 0


def test_seeded_inputs_repeat_and_cover_every_stratum():
    import math
    import random

    a = stratified_log_uniform(random.Random(7), 1e-3, 1e-1, 36)
    assert a == stratified_log_uniform(random.Random(7), 1e-3, 1e-1, 36)
    assert a != stratified_log_uniform(random.Random(8), 1e-3, 1e-1, 36)
    strata = [int((math.log(e) - math.log(1e-3)) / math.log(100.0) * 36) for e in a]
    assert strata == list(range(36))


def test_items_per_s_takes_each_key_at_its_fastest_repeat():
    # batch 1 ran its first solve slowly, batch 2 its second; "k=1" is done twice
    slow_first = {"attempted": 3, "failed": 0,
                  "segments": [("k=1", 2.0), ("k=2", 1.0), ("k=1", 1.5), ("other", 0.5)]}
    slow_second = {"attempted": 3, "failed": 0,
                   "segments": [("k=1", 1.0), ("k=2", 3.0), ("k=1", 1.0), ("other", 0.7)]}
    # k=1 at 1.0 twice, k=2 at 1.0, other at 0.5
    assert items_per_s([slow_first, slow_second]) == 3 / 3.5
    # within one batch too: k=1 at 1.5 twice
    assert items_per_s([slow_first]) == 3 / 4.5


def test_segments_key_by_context_label_and_count():
    events = [(0.0, "start", "", None), (1.0, "item", "solve", None),
              (1.5, "grid", None, None), (2.0, "grid", None, None),
              (3.0, "item", "solve", None), (3.5, "grid", None, None)]
    assert segments(events, 4.0) == [
        ("/start#0", 1.0), ("solve/item#0", 0.5), ("solve/grid#0", 0.5),
        ("solve/grid#1", 1.0), ("solve/item#0", 0.5), ("solve/grid#0", 0.5)]


def test_segments_key_a_whole_call_by_its_work_alone():
    events = [(0.0, "item", "a", None), (1.0, "apply", None, "k=1"),
              (1.5, "end apply", None, None), (2.0, "apply", None, "k=1"),
              (2.25, "end apply", None, None),
              # a call cut short by another mark is keyed like any segment
              (3.0, "apply", None, "k=1"), (3.5, "grid", None, None),
              (4.0, "end apply", None, None)]
    assert segments(events, 5.0) == [
        ("a/item#0", 1.0), ("apply k=1", 0.5), ("a/end apply#0", 0.5),
        ("apply k=1", 0.25), ("a/end apply#1", 0.75), ("a/apply#0", 0.5),
        ("a/grid#0", 0.5), ("a/end apply#2", 1.0)]


def test_run_item_starts_a_context_under_its_key():
    tally = Tally()
    run_item(tally, "a", lambda: (True, 1))
    run_item(tally, "b", lambda: (False, 2), key="shared")
    run_item(tally, "c", lambda: 1 / 0, key="shared")
    assert [(label, ctx) for _, label, ctx, _ in tally.events] == [
        ("item", "a"), ("item", "shared"), ("item", "shared")]


def test_marks_cut_at_each_hooked_call_and_restore_the_hooks():
    class Surface:
        def __init__(self, ell):
            self.ell = ell

        def solve(self):
            return 2 * self.ell

    def matrix(surface):
        return surface.solve() + 1

    wp = types.SimpleNamespace(ModelSurfaceMetric=Surface, wp_matrix=matrix)
    tally = Tally()
    hooks = [(wp, "ModelSurfaceMetric", True), (wp, "wp_matrix", False),
             (Surface, "solve", lambda surface: f"ell={surface.ell}")]
    with marks(tally, hooks):
        out = [wp.wp_matrix(wp.ModelSurfaceMetric(ell=e)) for e in (1, 2)]
    assert out == [3, 5]
    assert [event[1:] for event in tally.events] == [
        ("ModelSurfaceMetric", "ModelSurfaceMetric 0", None),
        ("wp_matrix", None, None), ("solve", None, "ell=1"), ("end solve", None, None),
        ("ModelSurfaceMetric", "ModelSurfaceMetric 1", None),
        ("wp_matrix", None, None), ("solve", None, "ell=2"), ("end solve", None, None)]
    assert (wp.ModelSurfaceMetric, wp.wp_matrix) == (Surface, matrix)
    assert Surface(3).solve() == 6 and "wrapper" not in repr(Surface.solve)
