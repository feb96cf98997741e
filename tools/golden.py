"""The refactor gate: the twelve default outputs of the command line, kept as files.

    PYTHONPATH=src python tools/golden.py

runs the four default ``sweep`` CSVs and the eight default ``verify`` reports
in-process, prints every value that moved from the files under
``tests/golden/`` with its relative drift, and rewrites the files.  With
``--check`` it only compares and prints: it writes nothing, and exits 1 when
a value is past the gate.  ``tests/test_golden.py`` runs the same outputs and
fails on a drift past the gate.

The gate (:func:`compare`): text, stderr and exit codes exactly; a check
whose value measures round-off (:data:`ROUND_OFF`) by its power of ten, its
pass flag exactly; every other number to :data:`RTOL` relative.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
RUNS = {f"sweep_{q}.csv": ["sweep", q] for q in ("wp", "ttnorm", "divergence", "conformal")}
RUNS.update({f"verify_{s}.json": ["verify", s] for s in (
    "cylinder", "weitzenboeck", "l2norms", "green", "barrier", "parametrix",
    "projection", "uniformization")})
META = "runs.json"  # each run's exit code and stderr
RTOL = 1e-12
# checks whose value is round-off below its bound: its decade is what a
# refactor keeps, not its digits
ROUND_OFF = {"idempotency", "divergence_free", "neumann_residual", "residual",
             "curvature_after"}


class Drift(NamedTuple):
    where: str
    old: object
    new: object
    ok: bool  # within the gate

    def __str__(self):
        rel = ""
        if isinstance(self.old, float) and isinstance(self.new, float) and self.old:
            rel = f"  (rel {abs(self.new - self.old) / abs(self.old):.2g})"
        return f"{'' if self.ok else 'FAIL '}{self.where}: {self.old!r} -> {self.new!r}{rel}"


def regenerate() -> dict[str, dict]:
    """{file name: {"exit", "stderr", "stdout"}} of each default run, in-process.

    A config named by the environment is not read: the runs are the defaults.
    """
    from wpneck.cli import main
    from wpneck.config import CONFIG_ENV_VAR

    if os.environ.get(CONFIG_ENV_VAR):
        raise RuntimeError(f"unset {CONFIG_ENV_VAR}: the golden runs use no config")
    runs = {}
    for name, argv in RUNS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        runs[name] = {"exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}
    return runs


def load() -> dict[str, dict]:
    """The runs as kept under ``tests/golden/``."""
    meta = json.loads((GOLDEN / META).read_text(encoding="utf-8"))
    return {name: {**meta[name],
                   "stdout": (GOLDEN / name).read_bytes().decode("utf-8")}
            for name in RUNS}


def write(runs: dict[str, dict]) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, run in runs.items():
        (GOLDEN / name).write_bytes(run["stdout"].encode("utf-8"))
    meta = {name: {"exit": run["exit"], "stderr": run["stderr"]} for name, run in runs.items()}
    (GOLDEN / META).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")


def _decade(x: float):
    return math.floor(math.log10(abs(x))) if x else None


def _value(where: str, old, new, round_off: bool = False):
    """The :class:`Drift` of one value, or None when it did not move."""
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                  for x in (old, new))
    if not numbers:
        return None if old == new else Drift(where, old, new, False)
    old, new = float(old), float(new)
    if old == new or (math.isnan(old) and math.isnan(new)):
        return None
    if round_off:
        ok = _decade(old) == _decade(new)
    else:
        ok = abs(new - old) <= RTOL * max(abs(old), abs(new))
    return Drift(where, old, new, ok)


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _csv(name: str, old: str, new: str):
    a, b = (list(csv.reader(io.StringIO(text))) for text in (old, new))
    if [len(r) for r in a] != [len(r) for r in b] or a[:1] != b[:1]:
        yield Drift(f"{name} shape", old, new, False)
        return
    header = a[0]
    for i, (ra, rb) in enumerate(zip(a[1:], b[1:]), 1):
        for col, x, y in zip(header, ra, rb):
            yield _value(f"{name} row {i} {col}", _float(x), _float(y))


def _report(name: str, old: str, new: str):
    a, b = json.loads(old), json.loads(new)
    names = [[c["name"] for c in r["checks"]] for r in (a, b)]
    if names[0] != names[1] or set(a) != set(b):
        yield Drift(f"{name} checks", names[0], names[1], False)
        return
    for key in sorted(set(a) - {"checks"}):
        yield _value(f"{name} {key}", a[key], b[key])
    for ca, cb in zip(a["checks"], b["checks"]):
        if set(ca) != set(cb):
            yield Drift(f"{name} {ca['name']}", ca, cb, False)
            continue
        round_off = ca["name"].split("(")[0] in ROUND_OFF
        for key in sorted(ca):
            yield _value(f"{name} {ca['name']} {key}", ca[key], cb[key],
                         round_off and key == "value")


def compare(old: dict[str, dict], new: dict[str, dict]) -> list[Drift]:
    """Every value of ``new``'s runs that moved from ``old``'s, in file order."""
    drifts = []
    for name in RUNS:
        a, b = old[name], new[name]
        drifts += [_value(f"{name} {key}", a[key], b[key]) for key in ("exit", "stderr")]
        values = _csv if name.endswith(".csv") else _report
        drifts += values(name, a["stdout"], b["stdout"])
    return [d for d in drifts if d is not None]


def main(argv: list[str]) -> int:
    """Compare and print; rewrite the files unless ``argv`` is ``["--check"]``.

    Returns 1 when ``--check`` finds a value past the gate, else 0.
    """
    if argv not in ([], ["--check"]):
        raise SystemExit("usage: golden.py [--check]")
    new = regenerate()
    drifts = compare(load(), new) if (GOLDEN / META).exists() else []
    for d in drifts:
        print(d)
    failed = sum(not d.ok for d in drifts)
    print(f"{len(drifts)} values moved, {failed} past the gate")
    if argv:
        return 1 if failed else 0
    write(new)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
