import importlib.util
import json
import py_compile
import statistics
import sys
import sysconfig
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
print(json.dumps({{"git_commit": {commit!r}, "machine": {{"nproc": 2}},
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


def test_a_side_without_a_commit_is_named_by_its_tree(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 100, None)
    change = _checkout(tmp_path, "change", 200, "b" * 40)
    for side in (parent, change):
        (side / "src" / "pkg" / "__pycache__").mkdir(parents=True)
        (side / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    digest = bench_pairs.tree_digest(parent)
    assert digest == bench_pairs.tree_digest(change) and len(digest) == 12
    # compiled files do not count; a changed source file, or a renamed one, does
    (parent / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    assert bench_pairs.tree_digest(parent) == digest
    (change / "src" / "pkg" / "mod.py").write_text("x = 2\n")
    edited = bench_pairs.tree_digest(change)
    (change / "src" / "pkg" / "mod.py").rename(change / "src" / "pkg" / "other.py")
    assert len({digest, edited, bench_pairs.tree_digest(change)}) == 3
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                             "--claim", "c", "--seeds", "1-2", "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (out["parent_commit"], out["change_commit"], out["parent_tree"]) == (None, "bbbbbbb", digest)
    assert "change_tree" not in out
    capsys.readouterr()
    assert bench_pairs.main(["--history", str(tmp_path / "BENCH_t.json")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"history from BENCH_t.json (parent {digest}) to BENCH_t.json (change bbbbbbb)")


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


def test_a_missing_out_directory_is_made(tmp_path):
    parent = _checkout(tmp_path, "parent", 100, "a" * 40)
    change = _checkout(tmp_path, "change", 200, "b" * 40)
    out = tmp_path / "new" / "dir"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                             "--claim", "c", "--seeds", "1-2", "--out", str(out)]) == 0
    assert json.loads((out / "BENCH_t.json").read_text())["pairs_run"] == "2 of 2"


def test_the_file_is_rewritten_after_every_pair(tmp_path, monkeypatch):
    # one lane, so pairs start in seed order; the parent's run of seed 3
    # fails, and the file keeps the pairs measured around it
    parent = _checkout(tmp_path, "parent", 100, "a" * 40)
    run = parent / "perfbench" / "run.py"
    run.write_text("import sys\nif sys.argv[sys.argv.index('--seed') + 1] == '3': sys.exit('boom')\n"
                   + run.read_text())
    change = _checkout(tmp_path, "change", 200, "b" * 40)
    written = []  # the seeds in the file, each time it is written
    result = bench_pairs.result

    def watching(args, bench, jobs, done, checkouts):
        written.append([jobs[i][1] for i in sorted(done)])
        return result(args, bench, jobs, done, checkouts)

    monkeypatch.setattr(bench_pairs, "LANES", 1)
    monkeypatch.setattr(bench_pairs, "result", watching)
    with pytest.raises(RuntimeError, match="boom"):
        bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                          "--claim", "c", "--seeds", "1-5", "--out", str(tmp_path)])
    # seed 4 is kept if it started before the failure was read; seed 5 is cancelled
    assert written[:2] == [[1], [1, 2]] and written[2:] in ([], [[1, 2, 4]])
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["pairs_run"] == f"{len(written[-1])} of 5"
    w = out["workloads"]["w"]
    assert [p["parent"]["work_per_s"] for p in w["pairs"]] == [100 + s for s in written[-1]]
    assert w["metrics"]["work_per_s"]["change_wins"] == len(written[-1])


# Prepended to a fake run.py: logs the run's bytecode settings, the files in
# its bytecode prefix, and the values it imported from perfbench/stale.py and
# from src/pkg/mod.py.
BYTECODE_LOG = """import json, os, sys
from pathlib import Path
sys.path.insert(0, "src")
import stale
from pkg import mod
with open(Path.cwd().parent / "bytecode.log", "a") as fh:
    fh.write(json.dumps([Path.cwd().name, sys.flags.dont_write_bytecode, sys.pycache_prefix,
                         [str(f) for f in Path(sys.pycache_prefix).rglob("*") if f.is_file()],
                         stale.VALUE, mod.VALUE]) + "\\n")
"""


def _bytecode_checkouts(tmp_path):
    """Two checkouts whose fake run logs what BYTECODE_LOG logs; the parent
    holds a stale __pycache__ for perfbench/stale.py, whose bytecode Python
    would load without checking the source."""
    checkouts = [_checkout(tmp_path, side, 100, side * 40) for side in ("parent", "change")]
    for checkout in checkouts:
        run = checkout / "perfbench" / "run.py"
        run.write_text(BYTECODE_LOG + run.read_text())
        (checkout / "src" / "pkg").mkdir(parents=True)
        (checkout / "src" / "pkg" / "__init__.py").write_text("")
        (checkout / "src" / "pkg" / "mod.py").write_text(f"import statistics\nVALUE = {checkout.name!r}\n")
    stale = checkouts[0] / "perfbench" / "stale.py"
    stale.write_text('VALUE = "stale"\n')
    cached = Path(py_compile.compile(
        str(stale), invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH))
    for checkout in checkouts:
        (checkout / "perfbench" / "stale.py").write_text('VALUE = "source"\n')
    assert bench_pairs.main(["--parent", str(checkouts[0]), "--change", str(checkouts[1]),
                             "--label", "t", "--claim", "c", "--seeds", "1-2",
                             "--out", str(tmp_path)]) == 0
    runs = [json.loads(line) for line in (tmp_path / "bytecode.log").read_text().splitlines()]
    return checkouts, cached, runs


def test_both_sides_run_without_the_checkouts_bytecode(tmp_path):
    # neither side may read the stale bytecode or write its own
    checkouts, cached, runs = _bytecode_checkouts(tmp_path)
    assert sorted(side for side, *_ in runs) == ["change", "change", "parent", "parent"]
    assert all(settings[:3] == runs[0][1:4] for _, *settings in runs)
    _, flag, prefix, _, value, _ = runs[0]
    assert (flag, value) == (1, "source")
    assert [mod for side, *_, mod in runs] == [side for side, *_ in runs]
    assert prefix and not Path(prefix).is_relative_to(tmp_path)
    assert not (checkouts[1] / "perfbench" / "__pycache__").exists()
    assert not any((checkout / "src" / "pkg" / "__pycache__").exists() for checkout in checkouts)
    assert list(cached.parent.iterdir()) == [cached]


def test_the_prefix_holds_standard_library_bytecode_and_nothing_of_the_checkouts(tmp_path):
    _, _, runs = _bytecode_checkouts(tmp_path)
    stdlib = Path(sysconfig.get_path("stdlib")).resolve()
    for _, _, prefix, files, *_ in runs:
        assert files
        for f in files:
            source = Path("/", Path(f).relative_to(prefix))
            assert not source.is_relative_to(tmp_path), f
            assert source.resolve().parent.is_relative_to(stdlib), f
    # json, imported by run.py, and statistics, imported by src/pkg/mod.py
    names = {Path(f).name.partition(".")[0] for f in runs[0][3]}
    assert {"decoder", "statistics"} <= names


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
