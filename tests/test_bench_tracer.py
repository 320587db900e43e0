"""The functions the benchmark tracer wraps, checked in Tier-1.

`perfbench/tracer.py` names each traced function as (layer, qualified name)
and looks it up in `spposet.<layer>` when a traced run starts, so a rename
or a deletion would crash that run.  This test reads the tracer's list,
without installing it, and resolves every name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH_DIR / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("layer, name", _traced(), ids=lambda part: part)
def test_every_traced_name_resolves(layer, name):
    owner = importlib.import_module(f"spposet.{layer}")
    *classes, attr = name.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # the tracer reads a method from its class's own namespace, not a base's
    assert callable(vars(owner)[attr])
