"""The `verify`/`hunt` output and the extension streams that the benchmark
pins, checked in Tier-1.

The benchmark's `sweep` workload compares each command's exit code and
stdout digest (elapsed time masked) with `perfbench/expected.json`, and its
`generate` workload compares each extension stream's table count and digest;
both refuse a run whose output drifted.  These tests replay the benchmark's
own recorders (all 17 claims at `--max-n` 3 and 5, all 18 streams at caps 300
and 15000) and compare them with the pinned file, which they only read, so
drift fails here first.
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


def test_stream_output_matches_the_benchmark_pins():
    # the `generate` workload's extension streams: count and digest of the
    # first 300 and the first 15000 tables of each of its 18 streams
    pinned = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))["stream"]
    generate = _workloads().Generate(spposet, seed=0, quick=False, expected={"stream": pinned})
    recorded = generate.record()
    assert len(recorded) == 36
    assert recorded == pinned
