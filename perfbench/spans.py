"""Outside-in spans around the public functions of each wpneck layer.

The program is not edited: :func:`instrument` replaces each listed function
in every ``wpneck.*`` module namespace that binds it (and each listed method
or property on its class) with a wrapper that records a span.  Spans stay in
memory; :meth:`Tracer.dump` writes them when the traced run ends.

A span's self time is its duration minus the durations of its direct child
spans.  Execution is single-threaded, so children nest inside their parent
and never overlap each other.  A layer metric such as ``surface.factor_s``
is the summed self time of the spans of that kind.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# kind -> (module, [names]).  A dotted name is a class attribute (method or
# property); "Class.*" wraps every property of the class.  A bare name is a
# module-level function, rebound in every wpneck namespace that holds it.
LAYER_TABLE: dict[str, tuple[str, list[str]]] = {
    # RadialGrid constructors; arcsinh_grid only forwards to uniform_grid
    "grids.build": ("wpneck.grids", ["uniform_grid", "periodic_grid",
                                     "chebyshev_grid"]),
    "operators.lookup": ("wpneck.operators", ["mode_operators"]),
    "operators.assemble": ("wpneck.operators", [
        "ModeOperators.__init__", "ModeOperators.channel_matrix",
        "ModeOperators.*"]),
    "surface.factor": ("wpneck.surface", [
        "SubdomainSolver.__init__", "GlobalModeSolver.__init__",
        "FactoredGlobalSolver.__init__", "discrete_near_null"]),
    "surface.solve": ("wpneck.surface", [
        "SubdomainSolver.solve_channels", "GlobalModeSolver.solve_channels",
        "FactoredGlobalSolver.solve_sigma"]),
    "parametrix.apply_S": ("wpneck.parametrix", [
        "ModeParametrix.apply_S", "ModeParametrix.apply_S_T"]),
    "parametrix.other": ("wpneck.parametrix", [
        "ParametrixFamily.__init__", "ParametrixFamily.block",
        "ParametrixFamily.report", "ModeParametrix.__init__",
        "ModeParametrix.operator_norm", "ModeParametrix.neumann_solve",
        "SolverBank.get", "project_tt", "build_cutoff_tensors",
        "assemble_tt_frame"]),
    "uniformize.newton": ("wpneck.uniformize", ["solve_conformal_factor"]),
    "green.solve": ("wpneck.green", [
        "solve_nonzero_mode", "solve_zero_mode", "solve_zero_mode_fd",
        "cylinder_dirichlet_inverse"]),
    "green.certify": ("wpneck.green", ["certify_barrier"]),
    "modefields.pair": ("wpneck.modefields", ["mode_inner_product"]),
    "wp.self": ("wpneck.wp", [
        "sweep_wp_coefficients", "wp_matrix", "wp_inner_product",
        "length_variation", "twist_variation"]),
}

# the per-layer metric names of BENCHMARK.json, in its order
LAYER_METRICS = (
    ("grids.build_s", "s"), ("grids.builds", "count"),
    ("operators.assemble_s", "s"), ("operators.assemblies", "count"),
    ("operators.lookups", "count"), ("operators.hit_ratio", "1"),
    ("surface.factor_s", "s"), ("surface.factors", "count"),
    ("surface.solve_s", "s"), ("surface.solves", "count"),
    ("parametrix.self_s", "s"), ("parametrix.apply_S_calls", "count"),
    ("parametrix.neumann_terms", "count"),
    ("uniformize.newton_s", "s"), ("uniformize.newton_iterations", "count"),
    ("uniformize.solved_ratio", "1"),
    ("green.solve_s", "s"), ("green.solves", "count"), ("green.certify_s", "s"),
    ("modefields.pair_s", "s"), ("modefields.pairs", "count"),
    ("wp.self_s", "s"),
    ("setup.operators.assemble_s", "s"), ("setup.surface.factor_s", "s"),
)

# span record fields
ID, PARENT, KIND, NAME, PHASE, START, END, OK = range(8)
FIELDS = ("id", "parent", "kind", "name", "phase", "start", "end", "ok")


class Tracer:
    """In-memory span recorder plus counters read from returned values."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.phase = "setup"
        self._stack: list[int] = []

    def wrap(self, fn, kind: str, name: str, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(tracer.spans), tracer._stack[-1] if tracer._stack else -1,
                   kind, name, tracer.phase, tracer.clock(), 0.0, False]
            tracer.spans.append(rec)
            tracer._stack.append(rec[ID])
            try:
                out = fn(*args, **kwargs)
                rec[OK] = True
            finally:
                rec[END] = tracer.clock()
                tracer._stack.pop()
            if on_return is not None:
                on_return(tracer.counters, tracer.phase, out)
            return out

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _count_newton(counters, phase, cf):
    counters[f"{phase}.uniformize.newton_iterations"] += cf.newton_iterations


def _count_neumann(counters, phase, report):
    counters[f"{phase}.parametrix.neumann_terms"] += report.neumann_terms


_ON_RETURN = {
    "solve_conformal_factor": _count_newton,
    "ParametrixFamily.report": _count_neumann,
}


def instrument(tracer: Tracer, modules=None, table=LAYER_TABLE):
    """Wrap every listed function; return a callable that undoes it all.

    ``modules`` maps module names to module objects (default: the loaded
    ``wpneck`` modules).  A function is replaced in every one of them that
    binds it under any name.
    """
    if modules is None:
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "wpneck" or n.startswith("wpneck."))}
    undo = []
    for kind, (modname, names) in table.items():
        home = modules[modname]
        for name in names:
            if "." not in name:
                orig = getattr(home, name)
                wrapped = tracer.wrap(orig, kind, name, _ON_RETURN.get(name))
                for mod in modules.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            undo.append((mod, attr, orig))
                continue
            cls_name, attr = name.split(".")
            cls = getattr(home, cls_name)
            attrs = ([a for a, v in vars(cls).items() if isinstance(v, property)]
                     if attr == "*" else [attr])
            for a in attrs:
                orig = vars(cls)[a]
                label = f"{cls_name}.{a}"
                if isinstance(orig, property):
                    new = property(tracer.wrap(orig.fget, kind, label))
                else:
                    new = tracer.wrap(orig, kind, label, _ON_RETURN.get(label))
                setattr(cls, a, new)
                undo.append((cls, a, orig))

    def restore():
        for target, attr, orig in reversed(undo):
            setattr(target, attr, orig)

    return restore


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics of the timed phase of a traced run, plus the
    ``setup.*`` layer times of its set-up phase."""
    selfs = self_times(spans)
    time_by_kind: Counter = Counter()
    count_by_kind: Counter = Counter()
    count_by_name: Counter = Counter()
    ok_by_name: Counter = Counter()
    setup_time: Counter = Counter()
    for s, t in zip(spans, selfs):
        if s[PHASE] == "setup":
            setup_time[s[KIND]] += t
        if s[PHASE] != "timed":
            continue
        time_by_kind[s[KIND]] += t
        count_by_kind[s[KIND]] += 1
        count_by_name[s[NAME]] += 1
        ok_by_name[s[NAME]] += s[OK]

    lookups = count_by_kind["operators.lookup"]
    assemblies = count_by_name["ModeOperators.__init__"]
    attempts = count_by_name["solve_conformal_factor"]
    return {
        "grids.build_s": time_by_kind["grids.build"],
        "grids.builds": count_by_kind["grids.build"],
        "operators.assemble_s": (time_by_kind["operators.assemble"]
                                 + time_by_kind["operators.lookup"]),
        "operators.assemblies": assemblies,
        "operators.lookups": lookups,
        "operators.hit_ratio": 1.0 - assemblies / lookups if lookups else 0.0,
        "surface.factor_s": time_by_kind["surface.factor"],
        "surface.factors": count_by_kind["surface.factor"],
        "surface.solve_s": time_by_kind["surface.solve"],
        "surface.solves": count_by_kind["surface.solve"],
        "parametrix.self_s": (time_by_kind["parametrix.apply_S"]
                              + time_by_kind["parametrix.other"]),
        "parametrix.apply_S_calls": count_by_kind["parametrix.apply_S"],
        "parametrix.neumann_terms": counters.get("timed.parametrix.neumann_terms", 0),
        "uniformize.newton_s": time_by_kind["uniformize.newton"],
        "uniformize.newton_iterations": counters.get(
            "timed.uniformize.newton_iterations", 0),
        "uniformize.solved_ratio": (ok_by_name["solve_conformal_factor"] / attempts
                                    if attempts else 0.0),
        "green.solve_s": time_by_kind["green.solve"],
        "green.solves": count_by_kind["green.solve"],
        "green.certify_s": time_by_kind["green.certify"],
        "modefields.pair_s": time_by_kind["modefields.pair"],
        "modefields.pairs": count_by_kind["modefields.pair"],
        "wp.self_s": time_by_kind["wp.self"],
        "setup.operators.assemble_s": (setup_time["operators.assemble"]
                                       + setup_time["operators.lookup"]),
        "setup.surface.factor_s": setup_time["surface.factor"],
    }
