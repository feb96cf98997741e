"""The refactor gate: the twelve default outputs against ``tests/golden/``.

A change that moves an output regenerates the files with ``tools/golden.py``
and states the drift it prints.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_default_outputs_match_the_golden_files(monkeypatch):
    monkeypatch.delenv("WPNECK_CONFIG", raising=False)
    drifts = golden.compare(golden.load(), golden.regenerate())
    assert [str(d) for d in drifts if not d.ok] == []


def test_the_gate_refuses_a_drift_past_its_bound():
    runs = golden.load()
    csv = runs["sweep_wp.csv"]["stdout"]
    cell = csv.splitlines()[3].split(",")[3]
    moved = {**runs, "sweep_wp.csv": {**runs["sweep_wp.csv"], "stdout": csv.replace(
        cell, repr(float(cell) * (1 + 1e-11)))}}
    assert [d.ok for d in golden.compare(runs, moved)] == [False]
    report = json.loads(runs["verify_projection.json"]["stdout"])
    check = report["checks"][0]  # idempotency(l=0.1), a round-off
    decade = golden._decade(check["value"])
    for shift, ok in ((0, True), (3, False)):  # its digits may move, its decade not
        check["value"] = 1.5 * 10.0 ** (decade + shift)
        moved = {**runs, "verify_projection.json": {**runs["verify_projection.json"],
                                                    "stdout": json.dumps(report)}}
        assert [d.ok for d in golden.compare(runs, moved)] == [ok]


def test_check_writes_nothing_and_fails_on_a_drift(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("WPNECK_CONFIG", raising=False)
    for f in golden.GOLDEN.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    name = "sweep_ttnorm.csv"
    text = (tmp_path / name).read_text(encoding="utf-8")
    cell = text.splitlines()[1].split(",")[2]
    (tmp_path / name).write_text(text.replace(cell, repr(float(cell) * (1 + 1e-9)), 1),
                                 encoding="utf-8")
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    monkeypatch.setattr(golden, "GOLDEN", tmp_path)
    assert golden.main(["--check"]) == 1
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
    assert capsys.readouterr().out.splitlines()[-1] == "1 values moved, 1 past the gate"


def test_sweep_divergence_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long dot product across its threads, and the sum's
    # last bit with it
    outs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "WPNECK_CONFIG"}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env else [])))
        outs.append(subprocess.run([sys.executable, "-m", "wpneck.cli", "sweep", "divergence"],
                                   env=env, check=True, capture_output=True).stdout)
    assert outs[0] == outs[1]
