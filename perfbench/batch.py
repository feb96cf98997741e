"""Run one batch of a workload in this process and print its result as JSON.

    python3 perfbench/batch.py --workload NAME --seed N [--setup-only]
                               [--trace] [--spans FILE]

``perfbench/run.py`` starts one such process per batch, so that every batch
pays its own import and set-up and its peak RSS is that of the workload
alone.  The last line of standard output is the batch result.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports, then state

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, instrument, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Tally, segments  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def load_reference(workload: str):
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up; run no items")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", type=Path, help="write the spans here (with --trace)")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)

    import numpy
    import scipy
    import wpneck

    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
    state = wl.setup(inputs)
    t1 = time.perf_counter()

    if tracer is not None:
        tracer.phase = "timed"
    tally = Tally()
    tally.events.append((t1, "start", "", None))
    reference = None
    if not args.setup_only:
        reference = load_reference(wl.name) if args.seed == DEFAULT_SEED else None
        wl.run(state, inputs, tally, reference)
    t2 = time.perf_counter()

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": t1 - T0,
        "timed_s": t2 - t1,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "segments": segments(tally.events, t2),
        "reference_checked": reference is not None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "grid_n": wl.grid_n,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "wpneck": wpneck.__version__},
        "wpneck_path": str(Path(wpneck.__file__).resolve().parent),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, tracer.counters)
        result["span_count"] = len(tracer.spans)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
