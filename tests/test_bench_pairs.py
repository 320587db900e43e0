import importlib.util
import json
import statistics
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# A stand-in for perfbench/run.py: work_per_s is RATE + seed, FAILED of its 5
# operations fail, and every run appends "<label> <workload> <seed> <seconds>"
# to runs.log beside the checkouts.
FAKE_RUN = '''
import json, sys
from pathlib import Path
RATE = {rate}
arg = lambda name: sys.argv[sys.argv.index(name) + 1]
seed = int(arg("--seed"))
with open(Path.cwd().parent / "runs.log", "a") as fh:
    fh.write(f"{{Path.cwd().name}} {{arg('--workload')}} {{seed}} {{arg('--seconds')}}\\n")
metrics = {{"work_per_s": RATE + seed, "op_ms_p50": 100.0 / RATE}}
print("progress")
print(json.dumps({{"git_commit": "{commit}", "machine": {{"nproc": 2}},
                  "named": {{"classes_per_s": 2 * RATE, "label": "x"}}}}))
print(json.dumps({{"correct": {failed} == 0, "attempted": 5, "failed": {failed},
                  "metrics": {{k: {{"value": v, "unit": "-"}} for k, v in metrics.items()}}}}))
'''

BENCHMARK = {"command": ["python3", "perfbench/run.py"], "paths": ["perfbench"], "run_seconds": 40,
             "workloads": [{"name": "w", "why": "-"}],
             "end_to_end": [{"name": "work_per_s", "better": "higher", "bound": 0.15},
                            {"name": "op_ms_p50", "better": "lower", "bound": 0.15}]}


def _checkout(root, name, rate, commit, failed=0):
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(rate=rate, commit=commit, failed=failed))
    (root / name / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return root / name


def test_pairs_alternate_and_summarize(tmp_path):
    parent = _checkout(tmp_path, "parent", 100, "a" * 40)
    change = _checkout(tmp_path, "change", 200, "b" * 40)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                             "--claim", "c", "--seeds", "1-3,6", "--out", str(tmp_path)]) == 0
    # pairs may run side by side, but within a pair the sides run in turn
    log = (tmp_path / "runs.log").read_text().splitlines()
    assert sorted(log) == sorted(f"{side} w {seed} 40" for side in ("parent", "change")
                                 for seed in (1, 2, 3, 6))
    for seed, first in [(1, "parent"), (2, "change"), (3, "parent"), (6, "change")]:
        other = "change" if first == "parent" else "parent"
        assert log.index(f"{first} w {seed} 40") < log.index(f"{other} w {seed} 40")
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (out["parent_commit"], out["change_commit"]) == ("aaaaaaa", "bbbbbbb")
    w = out["workloads"]["w"]
    assert [p["first"] for p in w["pairs"]] == ["parent", "change", "parent", "change"]
    assert [p["parent"]["work_per_s"] for p in w["pairs"]] == [101, 102, 103, 106]
    rate = w["metrics"]["work_per_s"]
    assert rate["parent_quartiles"] == statistics.quantiles([101, 102, 103, 106], n=4,
                                                            method="inclusive")[::2]
    assert (rate["parent_median"], rate["change_median"]) == (102.5, 202.5)
    assert (rate["change_wins"], rate["gain_shown"], rate["bound_verdict"]) == (4, True, "within")
    # op_ms_p50 is lower-is-better and halves, with no spread
    ms = w["metrics"]["op_ms_p50"]
    assert (ms["change_wins"], ms["median_change_rel"], ms["gain_shown"]) == (4, -0.5, True)
    # named figures that are numbers are summarized as well
    assert w["named"]["classes_per_s"]["change_median"] == 400
    assert "label" not in w["named"]
    assert w["pairs"][0]["attempted"] == {"parent": 5, "change": 5}
    assert w["failed_ratio"] == {"parent": 0, "change": 0}


def test_failures_are_kept_per_side(tmp_path, capsys):
    # only the change fails operations: 2 of the 5 in every run
    parent = _checkout(tmp_path, "parent", 100, "a" * 40)
    change = _checkout(tmp_path, "change", 100, "b" * 40, failed=2)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                             "--claim", "c", "--seeds", "1-2", "--out", str(tmp_path)]) == 0
    w = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["w"]
    for pair in w["pairs"]:
        assert pair["failed"] == {"parent": 0, "change": 2}
        assert pair["attempted"] == {"parent": 5, "change": 5}
        assert pair["correct"] is False
    assert w["failed_ratio"] == {"parent": 0, "change": 0.4}
    assert "w          failed ratio 0 -> 0.4" in capsys.readouterr().out.splitlines()


def test_summary_bound_and_gain_verdicts():
    flat = bench_pairs.summarize([10, 11, 12, 13], [9.8, 10.3, 10.8, 11.3], "higher", 0.15)
    assert (flat["change_wins"], flat["gain_shown"], flat["bound_verdict"]) == (0, False, "within")
    worse = bench_pairs.summarize([10, 11, 12, 13], [5, 5, 5, 5], "higher", 0.15)
    assert worse["bound_verdict"] == "worse"
    # lower is better: a median 20 % higher breaks a 15 % bound
    slower = bench_pairs.summarize([10, 10.1, 10.2, 10.3], [12, 12.1, 12.2, 12.3], "lower", 0.15)
    assert slower["bound_verdict"] == "worse"
    # the parent's quartile spread (3) is wider than the bound (0.15 * 13), so
    # a change that wins every pair by less than that spread is unresolved ...
    close = bench_pairs.summarize([10, 12, 14, 16], [10.5, 12.5, 14.5, 16.5], "higher", 0.15)
    assert (close["change_wins"], close["gain_shown"], close["bound_verdict"]) == (
        4, False, "unresolved")
    noisy_worse = bench_pairs.summarize([10, 12, 14, 16], [5, 5, 5, 5], "higher", 0.15)
    assert noisy_worse["bound_verdict"] == "unresolved"
    # ... unless every run of the change is better than every run of the parent
    apart = bench_pairs.summarize([10, 12, 14, 16], [16.5, 17, 18, 19], "higher", 0.15)
    assert apart["bound_verdict"] == "within"
    apart_lower = bench_pairs.summarize([10, 12, 14, 16], [9, 9.5, 9.6, 9.9], "lower", 0.15)
    assert apart_lower["bound_verdict"] == "within"


def test_failed_run_is_reported(tmp_path):
    parent = _checkout(tmp_path, "parent", 100, "a" * 40)
    (parent / "perfbench" / "run.py").write_text("import sys; sys.exit('boom')")
    change = _checkout(tmp_path, "change", 200, "b" * 40)
    with pytest.raises(RuntimeError, match="boom"):
        bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                          "--claim", "c", "--seeds", "1-2", "--out", str(tmp_path)])


def _bench_file(root, label, rels):
    """A BENCH file whose workload w has these median_change_rel per metric."""
    out = {"label": label, "parent_commit": f"p-{label}", "change_commit": f"c-{label}",
           "workloads": {"w": {"metrics": {m: {"median_change_rel": r} for m, r in rels.items()}}}}
    (root / f"BENCH_{label}.json").write_text(json.dumps(out))
    return root / f"BENCH_{label}.json"


def test_history_chains_the_median_ratios(tmp_path, capsys):
    # pr9 sorts before pr10 as a number, not as text
    first = _bench_file(tmp_path, "pr9_a", {"work_per_s": 0.10, "op_ms_p50": -0.5})
    second = _bench_file(tmp_path, "pr10_b", {"work_per_s": -0.10})
    lines = bench_pairs.history(first)
    assert lines[0] == "history from BENCH_pr9_a.json (parent p-pr9_a) to BENCH_pr10_b.json (change c-pr10_b)"
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[2:]}
    assert rows[("w", "work_per_s")] == ["+10.0%", "-10.0%", "-1.0%"]  # 1.1 * 0.9
    assert rows[("w", "op_ms_p50")] == ["-50.0%", "-", "-50.0%"]
    # from the newest file on, only its own ratios are left
    assert bench_pairs.history(second)[2].split()[2:] == ["-10.0%", "-10.0%"]
    assert bench_pairs.main(["--history", str(first)]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_comparing_needs_both_checkouts(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--label", "t", "--claim", "c", "--out", str(tmp_path)])
