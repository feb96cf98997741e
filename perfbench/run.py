"""wpneck benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; wpneck is imported from its ``src``.
NAME is one of the workloads in ``perfbench/workloads.py``, or ``all``.

The run starts one single-threaded batch process after another (BLAS pinned
to one thread), as many as fit S seconds at the workload's nominal batch
time, and at least one.  Each batch imports
wpneck, builds the workload's shared state, runs the workload's fixed,
seed-generated item list and checks every item.  The batch cuts its timed
phase into segments at each item and at a few calls inside it (a sweep row,
an application of S; see ``marks`` in ``perfbench/workloads.py``), and
``items_per_s`` takes each segment at the least time the run saw for the
same work (see ``items_per_s`` below).  ``peak_rss_mb`` is the median over
the batches and ``setup_s`` the median over them and over set-up-only
processes run between them, so that set-up is sampled across the run.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``items_per_s``
and ``peak_rss_mb``; ``fail_ratio`` is printed with them.  ``--trace 1``
alternates untraced and traced batches and reports the per-layer metrics of
the traced ones (``perfbench/spans.py``), the traced ``items_per_s`` and the
tracing overhead ``trace.overhead_ratio`` (untraced over traced
``items_per_s``); the spans of the last traced batch are written to
``perfbench/out/``.  A layer the workload never calls reports 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every item of every batch passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BATCH = HERE / "batch.py"

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7     # set-ups per untraced run, so setup_s is a median
WALL_LIMIT_S = 170.0  # the whole command, every workload, ends within 180 s

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))


class BatchError(RuntimeError):
    pass


def run_batch(workload: str, seed: int, traced: bool, timeout: float,
              setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BATCH), "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--trace", "--spans", str(OUT / f"spans_{workload}_seed{seed}.json")]
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BatchError(f"{workload} batch exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BatchError(f"{workload} batch exited {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        raise BatchError(f"{workload} batch printed no result") from exc
    if Path(result["wpneck_path"]) != SRC / "wpneck":
        raise BatchError(f"imported wpneck from {result['wpneck_path']}, not {SRC}")
    return result


def items_per_s(batches: list[dict]) -> float:
    """Completed items per second of one batch, with each of its segments
    taken at the least time that any of ``batches`` saw for its key.

    Segments of one key do the same work (see ``segments`` in
    ``perfbench/workloads.py``).  The shared host runs this code up to twice
    as slowly for seconds to minutes at a time, so a batch's own time mostly
    measures its neighbours; the fastest run of each piece of work is the
    program's cost.
    """
    fastest: dict[str, float] = {}
    for b in batches:
        for key, dt in b["segments"]:
            fastest[key] = min(dt, fastest.get(key, dt))
    first = batches[0]
    return ((first["attempted"] - first["failed"])
            / sum(fastest[key] for key, _ in first["segments"]))


def item_batches(batches: list[dict]) -> list[dict]:
    return [b for b in batches if b["attempted"]]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    """Run as many batches as fit ``seconds`` at the workload's nominal
    ``batch_s``, and at least one; traced, half of them traced, alternating.

    The count does not depend on how fast the host runs, so every run takes
    the fastest of the same number of repeats.  Untraced, each batch is
    followed by a set-up-only process until there are SETUP_SAMPLES set-up
    samples, which are topped up at the end.  No batch starts that would
    likely run past ``deadline`` (a ``time.monotonic()`` value).  Returns
    every batch result, keyed by whether it was traced.
    """
    count = max(1, int(seconds // WORKLOADS[workload].batch_s))
    kinds = [False] * count if not trace else [False, True] * max(1, count // 2)
    batches: dict[bool, list[dict]] = {False: [], True: []}

    def left() -> float:
        return deadline - time.monotonic()

    last = 0.0
    for traced in kinds:
        if left() <= last:
            if not batches[traced]:
                raise BatchError(f"no time left for {workload} within "
                                 f"{WALL_LIMIT_S:.0f} s")
            break
        t = time.monotonic()
        batches[traced].append(run_batch(workload, seed, traced, left()))
        if not trace and len(batches[False]) < SETUP_SAMPLES:
            batches[False].append(run_batch(workload, seed, False, left(), True))
        last = time.monotonic() - t
    while not trace and len(batches[False]) < SETUP_SAMPLES and left() > 0:
        batches[False].append(run_batch(workload, seed, False, left(), True))
    return batches


def summarize(batches: dict[bool, list[dict]], trace: bool) -> dict:
    untraced, traced = batches[False], batches[True]
    every = untraced + traced
    attempted = sum(b["attempted"] for b in every)
    failed = sum(b["failed"] for b in every)
    if trace:
        metrics = {}
        for name, unit in LAYER_METRICS:
            metrics[name] = {"value": statistics.median(b["layers"][name]
                                                        for b in traced),
                             "unit": unit}
        ips_traced = items_per_s(traced)
        ips_plain = items_per_s(item_batches(untraced))
        metrics["trace.items_per_s"] = {"value": ips_traced, "unit": "1/s"}
        metrics["trace.overhead_ratio"] = {
            "value": ips_plain / ips_traced if ips_traced else 0.0, "unit": "1"}
    else:
        runs = item_batches(untraced)
        metrics = {
            "setup_s": statistics.median(b["setup_s"] for b in untraced),
            "items_per_s": items_per_s(runs),
            "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in runs),
        }
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record(args, workload: str, batches: dict[bool, list[dict]]) -> dict:
    first = item_batches(batches[False] + batches[True])[0]
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), **first["versions"],
        "git_commit": git_commit(), "blas_threads": BLAS_ENV, "jobs": 1,
        "grid_n": first["grid_n"], "items_per_batch": first["attempted"],
        "batches_untraced": len(item_batches(batches[False])),
        "setup_samples": len(batches[False]),
        "batches_traced": len(batches[True]),
        "reference_checked": first["reference_checked"],
        "span_count": batches[True][0]["span_count"] if batches[True] else 0,
    }


def print_report(workload: str, summary: dict, rec: dict, failures: list[str]):
    print(f"== {workload}  seed {rec['seed']}  grid_n {rec['grid_n']}  "
          f"{rec['items_per_batch']} items x {rec['batches_untraced']} untraced"
          f" + {rec['batches_traced']} traced batches")
    for name, m in summary["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    ratio = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    print(f"  {'fail_ratio':32s} {ratio:.6g} 1  "
          f"({summary['failed']} of {summary['attempted']} items failed)")
    for note in failures[:20]:
        print(f"  FAILED {note}")
    print("record " + json.dumps(rec))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "wpneck" / "__init__.py").is_file():
        print(f"run.py: no wpneck sources at {SRC}; run from a wpneck checkout",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + WALL_LIMIT_S
    summaries = {}
    for name in names:
        try:
            batches = measure(name, args.seed, args.seconds, bool(args.trace),
                              deadline)
        except BatchError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        summaries[name] = summarize(batches, bool(args.trace))
        failures = [n for b in batches[False] + batches[True] for n in b["notes"]]
        print_report(name, summaries[name], record(args, name, batches), failures)

    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {"correct": all(s["correct"] for s in summaries.values()),
                 "attempted": sum(s["attempted"] for s in summaries.values()),
                 "failed": sum(s["failed"] for s in summaries.values()),
                 "metrics": {f"{n}.{k}": v for n, s in summaries.items()
                             for k, v in s["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
