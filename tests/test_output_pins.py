"""The `verify`/`hunt` output that the benchmark pins, checked in Tier-1.

The benchmark's `sweep` workload compares each command's exit code and
stdout digest (elapsed time masked) with `perfbench/expected.json` and
refuses a run whose output drifted.  This test replays the benchmark's own
recorder for all 17 claims at `--max-n` 3 and 5 and compares it with the
pinned file, which it only reads, so drift fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import spposet
import spposet.cli  # noqa: F401  (the recorder runs the commands through cli.main)

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_sweep_output_matches_the_benchmark_pins():
    pinned = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))["sweep"]
    sweep = _workloads().Sweep(spposet, seed=0, quick=False, expected={"sweep": pinned})
    recorded = sweep.record()
    assert len(recorded) == 34
    assert recorded == pinned
