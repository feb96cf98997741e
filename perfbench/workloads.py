"""The benchmark's workloads: seeded inputs, shared set-up, items and checks.

Each workload drives wpneck only through its public API and only with the
inputs made here from the seed.  Every bound checked below is one the
repository already states (acceptance criteria 6, 7 and 9, and the 1e-12
relative drift that ROADMAP allows sweep output); none is new.

Why these three:

* ``wp_sweep`` is the paper's headline output and the factor-heavy use of
  ``surface`` (one bordered LU and two solves per row).  It is the only
  workload that runs ``uniformize``, ``wp`` and the k = 0 TT projection, and
  the per-row state the operator cache retains dominates its peak RSS.
* ``parametrix_norms`` is the solve-heavy use of the same ``surface`` layer
  (thousands of LU solves against tens of factorizations), on a second grid
  size (2048 against 16384).  No ``uniformize`` or ``green`` work runs.
* ``green_barrier`` bypasses ``surface``, ``operators`` and ``parametrix``;
  its time is Dirichlet channel solves and the grids they build.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

DEFAULT_SEED = 0
WP_REL_TOL = 1e-12       # ROADMAP: sweep drift must stay below 1e-12 relative
NORM_REL_TOL = 1e-6      # the power iteration's own stopping tolerance


@dataclass
class Tally:
    """Items attempted and failed, with a short note per failure.

    ``events`` holds the (time, label, context, work) marks that cut the
    batch's timed phase into segments; see :func:`segments`.
    """

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    events: list[tuple] = field(default_factory=list)

    def mark(self, label: str, context: str | None = None,
             work: str | None = None) -> None:
        """Start a segment now; a ``context`` also starts a new context."""
        self.events.append((time.perf_counter(), label, context, work))

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def run_item(tally: Tally, label: str, fn, *args, key: str | None = None):
    """Run one item; a raise or a False check counts as one failure.

    The item starts a context named ``key`` (default ``label``) in the
    tally's segments.  Returns fn's output if its check passed, else None.
    """
    tally.attempted += 1
    tally.mark("item", label if key is None else key)
    try:
        ok, out = fn(*args)
    except Exception as exc:  # an item that raises is a failed item
        tally.fail(f"{label}: {type(exc).__name__}: {exc}")
        return None
    if not ok:
        tally.fail(f"{label}: check failed: {out}")
        return None
    return out


def segments(events, end: float) -> list[tuple[str, float]]:
    """Cut the timed phase at each event, up to ``end``: (key, seconds).

    Work repeats exactly from batch to batch, and contexts of one name do
    the same work, so a segment's key is its context, its label and the
    number of segments of that label before it in the context.  A whole
    hooked call whose hook names its ``work`` (see :func:`marks`) is keyed
    by that alone: every call of that work costs the same, wherever it runs.
    """
    out = []
    context, seen = "", Counter()
    nxt = [e[1] for e in events[1:]] + [None]
    stops = [e[0] for e in events[1:]] + [end]
    for (start, label, ctx, work), stop, following in zip(events, stops, nxt):
        if ctx is not None:
            context, seen = ctx, Counter()
        if work is not None and following == f"end {label}":
            key = f"{label} {work}"
        else:
            key = f"{context}/{label}#{seen[label]}"
            seen[label] += 1
        out.append((key, stop - start))
    return out


@contextmanager
def marks(tally: Tally, hooks):
    """While inside, each call to a hooked callable marks ``tally``.

    ``hooks`` lists (owner, name, role): ``owner.name``, a module global or
    a method, is rebound to a wrapper that marks the tally with ``name``
    when called.  A ``role`` of True starts a context, named after the hook
    and the number of such calls before it, so the third sweep row is
    "ModelSurfaceMetric 2"; False only cuts.  A callable ``role`` names the
    work of the call from its arguments, and the wrapper marks its end too,
    so that calls of the same work are compared with each other; the
    hooked callable must call no other hook.  The cost is a clock read or
    two per call.
    """
    calls: Counter = Counter()

    def hooked(fn, name, role):
        def wrapper(*args, **kwargs):
            if callable(role):
                tally.mark(name, work=role(*args, **kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tally.mark(f"end {name}")
            tally.mark(name, f"{name} {calls[name]}" if role else None)
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    undo = []
    for owner, name, role in hooks:
        orig = getattr(owner, name)
        setattr(owner, name, hooked(orig, name, role))
        undo.append((owner, name, orig))
    try:
        yield
    finally:
        for owner, name, orig in reversed(undo):
            setattr(owner, name, orig)


def stratified_log_uniform(rng: random.Random, lo: float, hi: float,
                           count: int) -> list[float]:
    """One log-uniform draw in each of ``count`` equal log-width strata."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + rng.random()) / count)
            for i in range(count)]


def rel_close(a: float, b: float, rtol: float, scale: float | None = None) -> bool:
    return abs(a - b) <= rtol * (abs(b) if scale is None else scale)


def wp_row_matches(row: dict, ref: dict) -> bool:
    """g_ll and g_ww within WP_REL_TOL relative; g_lw, which is zero by
    parity, within WP_REL_TOL of sqrt(g_ll g_ww)."""
    scale = math.sqrt(abs(ref["g_ll"] * ref["g_ww"]))
    return (row["ell"] == ref["ell"]
            and rel_close(row["g_ll"], ref["g_ll"], WP_REL_TOL)
            and rel_close(row["g_ww"], ref["g_ww"], WP_REL_TOL)
            and rel_close(row["g_lw"], ref["g_lw"], WP_REL_TOL, scale))


def norms_match(out: dict, ref: dict) -> bool:
    return (out["ell"] == ref["ell"]
            and rel_close(out["norm_S"], ref["norm_S"], NORM_REL_TOL)
            and rel_close(out["norm_R"], ref["norm_R"], NORM_REL_TOL)
            and all(rel_close(out["per_mode_S"][k], v, NORM_REL_TOL)
                    for k, v in ref["per_mode_S"].items()))


# -- wp_sweep -------------------------------------------------------------------

class WpSweep:
    name = "wp_sweep"
    grid_n = 16384
    rows = 36
    batch_s = 10.0   # about one batch's wall time, process start included

    def inputs(self, seed: int) -> dict:
        # both sides of the ell ~ 0.073 zero-conformal-weight fallback
        rng = random.Random(seed)
        return {"ells": stratified_log_uniform(rng, 1e-3, 1e-1, self.rows)}

    def setup(self, inputs: dict):
        return None

    def run(self, state, inputs: dict, tally: Tally, reference=None) -> list:
        import wpneck

        ells = sorted(inputs["ells"])
        wp = wpneck.wp
        # a row builds its surface, solves the conformal factor on a grid of
        # its own, then projects two variations and pairs them
        hooks = [(wp, "ModelSurfaceMetric", True),
                 (wpneck.uniformize, "uniform_grid", lambda a, b, n: f"n={n}")] + [
            (wp, name, False) for name in (
                "solve_conformal_factor", "wp_matrix", "length_variation",
                "twist_variation", "project_tt", "mode_inner_product")]
        try:
            with marks(tally, hooks):
                rows = wpneck.sweep_wp_coefficients(
                    ells, grid_n=self.grid_n, use_conformal=True, jobs=1)
        except Exception as exc:  # one call makes every row; all of them fail
            tally.attempted += len(ells)
            for ell in ells:
                tally.fail(f"ell={ell}: sweep raised {type(exc).__name__}: {exc}")
            return []
        outputs = [{key: float(r[key]) for key in ("ell", "g_ll", "g_lw", "g_ww")}
                   for r in rows]
        refs = {r["ell"]: r for r in reference} if reference else None
        for i, ell in enumerate(ells):
            run_item(tally, f"ell={ell}", self.check_row,
                     outputs[i] if i < len(outputs) else None, ell, refs)
        return outputs

    @staticmethod
    def check_row(row, ell, refs):
        if row is None or row["ell"] != ell:
            return False, f"missing row for ell={ell}"
        g_ll, g_lw, g_ww = row["g_ll"], row["g_lw"], row["g_ww"]
        if not (math.isfinite(g_ll) and math.isfinite(g_ww) and g_ll > 0 and g_ww > 0):
            return False, f"g_ll={g_ll}, g_ww={g_ww} not finite and positive"
        cross = abs(g_lw) / math.sqrt(g_ll * g_ww)
        if not cross <= 1e-10:  # criterion 9
            return False, f"normalized |g_lw| = {cross:.3e} > 1e-10"
        if refs is not None and not (ell in refs and wp_row_matches(row, refs[ell])):
            return False, f"row {row} differs from reference {refs.get(ell)}"
        return True, row


# -- parametrix_norms -----------------------------------------------------------

class ParametrixNorms:
    name = "parametrix_norms"
    grid_n = 2048
    batch_s = 6.5
    # criterion 7's lengths: the only ones at which the repository states that
    # ||S|| decreases as ell falls (||S|| vanishes at the interior reference
    # lengths 0.06 and 0.25, and exceeds 1 near ell = 0.365)
    ells = (0.4, 0.2, 0.1, 0.05)
    ks = range(0, 9)

    def inputs(self, seed: int) -> dict:
        # one power-iteration start per item, so the batch's iteration count
        # averages over several starts
        rng = random.Random(seed)
        return {"ells": list(self.ells),
                "norm_seeds": [rng.randrange(2**31) for _ in self.ells]}

    def setup(self, inputs: dict):
        import wpneck

        grid = wpneck.periodic_grid(-2.0, 2.0, self.grid_n)
        return wpneck.ParametrixFamily(grid, ks=self.ks)

    def run(self, family, inputs: dict, tally: Tally, reference=None) -> list:
        from wpneck.parametrix import ModeParametrix, ParametrixFamily

        refs = {r["ell"]: r for r in reference} if reference else None
        outputs = []
        # an item is some hundreds of applications of S and S^T to blocks
        # of one (ell, k); each costs the same for its block
        def block(blk, w):
            return f"ell={blk.surface.ell!r} k={blk.k}"

        hooks = [(ParametrixFamily, "block", False), (ModeParametrix, "apply_S", block),
                 (ModeParametrix, "apply_S_T", block)]
        with marks(tally, hooks):
            for ell, norm_seed in zip(inputs["ells"], inputs["norm_seeds"]):
                out = run_item(tally, f"ell={ell}", self.item, family, ell,
                               norm_seed, refs)
                if out is not None:
                    outputs.append(out)
        check_decreasing(tally, outputs)
        return outputs

    @staticmethod
    def item(family, ell: float, norm_seed: int, refs):
        import numpy as np
        import wpneck
        from wpneck.surface import GlobalModeSolver

        rep = family.report(ell, norm_seed=norm_seed)
        out = {"ell": ell, "norm_S": rep.norm_S, "norm_R": rep.norm_R,
               "per_mode_S": {str(k): v for k, v in rep.per_mode_S.items()},
               "neumann_terms": rep.neumann_terms}
        if not (rep.norm_S < 1.0 and rep.residual <= 1e-6):
            return False, f"||S|| = {rep.norm_S}, residual = {rep.residual}"

        # Neumann series against the direct solve, criterion 7's right-hand side
        x = family.grid.nodes
        surface = wpneck.ModelSurfaceMetric(ell=ell)
        worst = 0.0
        for k in (0, 2):
            direct = GlobalModeSolver(surface, family.grid, k)
            rhs = direct.project_out_kernel(
                np.vstack([np.exp(np.cos(np.pi * x / 2.0)), np.sin(np.pi * x / 2.0)]))
            sol_n, _ = family.block(ell, k).neumann_solve(rhs, tol=1e-14)
            sol_d = direct.project_out_kernel(direct.solve_channels(rhs))
            worst = max(worst, float(np.linalg.norm(sol_n - sol_d)
                                     / np.linalg.norm(sol_d)))
        out["neumann_vs_direct"] = worst
        if not worst <= 1e-6:
            return False, f"Neumann vs direct rel err {worst:.3e} > 1e-6"
        if refs is not None and not (ell in refs and norms_match(out, refs[ell])):
            return False, f"norms {out} differ from reference {refs.get(ell)}"
        return True, out


def check_decreasing(tally: Tally, outputs: list[dict]) -> None:
    """||S|| must fall strictly as ell falls, across the items that passed.

    An out-of-order pair fails its smaller-ell item; each passed item is the
    smaller one of at most one pair, so failed never exceeds attempted.
    """
    by_ell = sorted(outputs, key=lambda o: o["ell"])
    for lower, upper in zip(by_ell, by_ell[1:]):
        if not lower["norm_S"] < upper["norm_S"]:
            tally.fail(f"||S|| at ell={lower['ell']} ({lower['norm_S']}) not "
                       f"below ||S|| at ell={upper['ell']} ({upper['norm_S']})")


# -- green_barrier --------------------------------------------------------------

def smooth_bump(a: float, b: float):
    """C-infinity bump supported on (a, b) with unit sup norm."""
    import numpy as np

    def f(x):
        x = np.asarray(x, float)
        y = np.zeros_like(x)
        inside = (x > a) & (x < b)
        z = (x[inside] - a) / (b - a)
        y[inside] = np.exp(4.0) * np.exp(-1.0 / np.maximum(z * (1.0 - z), 1e-300))
        return y

    return f


class GreenBarrier:
    name = "green_barrier"
    grid_n = 2049
    batch_s = 25.0
    alpha, c = 0.3, 0.5     # criterion 6
    ks = range(1, 33)
    ell_count = 5

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"ells": stratified_log_uniform(rng, 1e-3, 0.1, self.ell_count)}

    def setup(self, inputs: dict):
        import wpneck  # noqa: F401  (import cost belongs to set-up)

        return smooth_bump(0.5, 0.75)

    def run(self, bump, inputs: dict, tally: Tally, reference=None) -> list:
        import wpneck

        ells = tuple(inputs["ells"])
        cert = wpneck.certify_barrier(ells, self.ks, self.alpha, self.c)
        # every solve is judged on the certified region, so a negative margin
        # fails them all
        margin = cert.min_margin_certified
        for ell in ells:
            for k in self.ks:
                for sign in (+1, -1):
                    # every solve does the same work: ell, k and the sign
                    # change the values on the n-node grid, not the steps
                    run_item(tally, f"ell={ell} k={k} sign={sign}", self.item,
                             bump, ell, k, sign, cert.inner_radius[ell], margin,
                             key="solve")
        return []

    def item(self, bump, ell, k, sign, r_in, margin):
        import numpy as np
        import wpneck

        tau, w = wpneck.solve_nonzero_mode(ell, k, bump, sign=sign,
                                           n=self.grid_n, c=self.c)
        C = float(np.max(np.abs(bump(tau))))
        zeta = wpneck.BarrierProfile(self.alpha, self.c, C, k)(tau)
        mask = (np.abs(tau) >= r_in) & (np.abs(tau) <= self.c)
        excess = float(np.max((np.abs(w) - zeta)[mask]) / C)
        return (margin >= 0.0 and excess <= 0.0,
                {"ell": ell, "k": k, "sign": sign, "excess": excess, "margin": margin})


WORKLOADS = {w.name: w for w in (WpSweep(), ParametrixNorms(), GreenBarrier())}
