"""Regenerate perfbench/reference.json: the outputs of every workload at the
default seed, against which run.py checks that seed's outputs.

    python3 perfbench/make_reference.py

Run it from the root of a source checkout, only when a change is meant to
move the numbers, and say so with the change.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, WORKLOADS, Tally  # noqa: E402


def main() -> int:
    reference = {}
    for name, wl in WORKLOADS.items():
        inputs = wl.inputs(DEFAULT_SEED)
        tally = Tally()
        reference[name] = wl.run(wl.setup(inputs), inputs, tally)
        print(f"{name}: {tally.attempted} items, {tally.failed} failed")
        if tally.failed:
            print("\n".join(tally.notes), file=sys.stderr)
            return 1
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
