"""The benchmark's own tests, at quick sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    res = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                         cwd=cwd, capture_output=True, text=True, timeout=170)
    return res


def result_of(res):
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_names_the_workloads():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_schema(workload, trace):
    record, result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace), "--quick"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert record["seed"] == 3 and record["machine"]["nproc"] >= 1
    assert record["failed_ratio"] == 0
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


# Layers each workload is predicted never to call.
ZERO_CALLS = {
    "sweep": ("enumeration.canonical_key", "fileformat.parse"),
    "generate": ("cli.main", "axioms.check_system", "enumeration.verify_theorem"),
    "documents": ("enumeration.canonical_key", "enumeration.enumerate_posets",
                  "enumeration.system_column_solutions"),
}
# Layers each workload must reach.
SOME_CALLS = {
    "sweep": ("enumeration.enumerate_posets", "pseudo.star_table", "poset.Poset.classify",
              "enumeration.system_column_solutions", "axioms.is_normal"),
    "generate": ("enumeration.canonical_key", "enumeration.are_isomorphic",
                 "enumeration.enumerate_extensions"),
    "documents": ("cli.main", "fileformat.parse", "fileformat.emit", "axioms.check_system",
                  "axioms.verify_lemma_suite"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_match_predictions(workload):
    _, result = result_of(bench("--workload", workload, "--seed", "4", "--seconds", "1",
                                "--trace", "1", "--quick"))
    calls = {k[:-len(".calls")]: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    for name in ZERO_CALLS[workload]:
        assert calls[name] == 0, name
    for name in SOME_CALLS[workload]:
        assert calls[name] > 0, name


def corrupt(expected, workload, sp_workload, rng):
    """Alter the expected value of one operation the next pass will run."""
    if workload == "sweep":
        expected["sweep"]["verify T-GLB 3"]["stdout"] = "0" * 16
        return "verify T-GLB 3"
    if workload == "generate":
        key = f"q ESP - {workloads.STREAM_CAP_QUICK}"
        expected["stream"][key]["count"] += 1
        return f"stream {key}"
    peek = random.Random()
    peek.setstate(rng.getstate())
    key = sp_workload.pass_ops(peek)[0].key
    expected["documents"][key]["rc"] += 1
    return key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_value_is_caught(workload, tmp_path):
    expected = run.load_expected()
    _, wl = run.setup(workload, 5, True, expected, tmp_path)
    rng = random.Random(5)
    key = corrupt(expected, workload, wl, rng)
    phase = run.Phase().run(wl, rng, 0.0, min_passes=1)
    assert phase.failures and all(f.startswith(key) for f in phase.failures), phase.failures


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "work-*"))
    res = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert not res.stdout.strip()
