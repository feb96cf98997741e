"""A/B timing of the seeded WP sweep: the working tree against a git revision.

    python tools/ab_time.py [REV] [--rounds N]

The working tree's ``src/wpneck`` and REV's (default HEAD, by ``git archive``)
are imported side by side as two packages, and run ``sweep_wp_coefficients``
in turn on perfbench's seed-0 wp_sweep inputs.  Each side's fastest sweep and
their ratio are printed; both share one process, so host load moves both.
"""
import argparse
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def load(name: str, src: Path):
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
ap.add_argument("rev", nargs="?", default="HEAD")
ap.add_argument("--rounds", type=int, default=20)
args = ap.parse_args()
work = WORKLOADS["wp_sweep"]
ells = work.inputs(DEFAULT_SEED)["ells"]
tar = subprocess.run(["git", "archive", args.rev, "src/wpneck"], cwd=ROOT,
                     check=True, capture_output=True).stdout
with tempfile.TemporaryDirectory() as tmp:
    tarfile.open(fileobj=io.BytesIO(tar)).extractall(tmp, filter="data")
    sides = {args.rev: load("wpneck_rev", Path(tmp, "src", "wpneck")),
             "tree": load("wpneck_tree", ROOT / "src" / "wpneck")}
    best = dict.fromkeys(sides, float("inf"))
    for _ in range(args.rounds):
        for name, package in sides.items():
            start = time.perf_counter()
            package.sweep_wp_coefficients(ells, grid_n=work.grid_n)
            best[name] = min(best[name], time.perf_counter() - start)
for name, seconds in best.items():
    print(f"{name}: {1e3 * seconds:.2f} ms per {len(ells)}-row sweep")
print(f"tree speed-up over {args.rev}: x{best[args.rev] / best['tree']:.3f}")
