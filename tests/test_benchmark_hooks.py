"""The benchmark's hooks into wpneck stay callable.

``perfbench/`` names wpneck functions, methods and properties by string
(``spans.LAYER_TABLE``) and drives each workload through the public API.
These tests run both in this process, so that a deletion or rename that
would break a traced or an untraced benchmark run fails here first.
``perfbench/`` itself is only read.
"""

import sys
from pathlib import Path

import pytest

import wpneck  # noqa: F401  (loads every module the layer table names)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import batch  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Tally  # noqa: E402


def _bindings():
    """Every attribute of each wpneck module, and of each class the layer
    table names, as {(owner, name): value}."""
    modules = {n: m for n, m in sys.modules.items()
               if n == "wpneck" or n.startswith("wpneck.")}
    owners = list(modules.values())
    for modname, names in spans.LAYER_TABLE.values():
        owners += [getattr(modules[modname], name.split(".")[0])
                   for name in names if "." in name]
    return {(id(o), a): v for o in owners for a, v in vars(o).items()}


def test_every_traced_name_resolves_and_is_restored():
    before = _bindings()
    restore = spans.instrument(spans.Tracer())
    try:
        wrapped = {key for key, v in _bindings().items() if before.get(key) is not v}
    finally:
        restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is v for key, v in before.items())
    # at least one binding per listed function or method; "Class.*" may
    # match none
    listed = sum(len([n for n in names if not n.endswith(".*")])
                 for _, names in spans.LAYER_TABLE.values())
    assert len(wrapped) >= listed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_passes_its_reference_at_the_default_seed(name):
    wl = WORKLOADS[name]
    inputs = wl.inputs(DEFAULT_SEED)
    tally = Tally()
    wl.run(wl.setup(inputs), inputs, tally, batch.load_reference(name))
    assert tally.attempted > 0, name
    assert tally.failed == 0, tally.notes
