"""Compare two checkouts with the benchmark's alternating-pairs protocol.

    python3 tools/bench_pairs.py --parent DIR --change DIR --label NAME \
        --claim TEXT [--seeds 1-10] [--out DIR]
    python3 tools/bench_pairs.py --history BENCH_<label>.json

The benchmark command, its workloads, its run length and its end-to-end
metrics (direction and bound) are read from the change checkout's
BENCHMARK.json.  For every workload and seed, the command runs with
`--workload W --seed S --seconds <run_seconds>` once in each checkout, one
after the other: on odd seeds the parent goes first, on even seeds the
change.  Two pairs run side by side (one on a one-CPU machine): the harness
reports CPU times scaled by its calibration kernel, so a second lane moves
them little, and it halves the wall time of a full comparison (three
workloads of ten pairs of 40 s runs take about 20 min instead of 40).
Every run has PYTHONDONTWRITEBYTECODE=1 and PYTHONPYCACHEPREFIX set to one
temporary directory that holds standard-library bytecode only, so neither
side reads or writes bytecode for its checkout, and set-up time and peak
RSS include the same compiling on both sides whatever bytecode either
checkout holds.  The directory is filled once per process, before the
first pair, by an isolated interpreter (`python -I`, so no checkout is on
its path) that imports every standard-library module that the command's
script directory or `src/` of either checkout imports by name.

The result is written to BENCH_<label>.json in --out, which is made if it
is missing, and rewritten after every pair, so a comparison that dies keeps
the pairs it measured ("pairs_run" says how many of the planned ones; a
workload is summarized once it has two).  A pair that fails cancels the
pairs not yet started, keeps those already running, and is raised last.
Per pair, the file holds both sides' metrics, operations attempted and
failed, and the record's named figures (such as `classes_per_s`); the commit of each side, or, for a side whose run record
names no git commit (a checkout without .git), a digest of its src/ files
as `parent_tree` / `change_tree`; per workload, each side's failed share of
the operations it attempted, so the change's can be set against the
parent's; per metric,
each side's median and quartiles (statistics.quantiles, method
'inclusive'), the change's wins, the median's relative change, the parent's
quartile spread, whether it shows a gain (wins in at least nine tenths of
the pairs and a median better by more than the parent's quartile spread),
and its bound verdict: "within" or "worse" than the parent by the metric's
bound, or "unresolved" when the parent's quartile spread is wider than the
bound, unless every run of the change is better than every run of the
parent (then "within").  The file's "notes" are left empty, for remarks added by hand,
such as a traced pair or a metric that moved for a reason outside the
change.

With --history, nothing runs: the BENCH_*.json files beside the given one,
taken in name order with numbers compared as numbers (pr9 before pr10), are
chained from the given file to the newest.  Per workload and metric it
prints each file's own parent-to-change median ratio and their product, the
cumulative change from the given file's parent to the newest file's change.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import functools
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path

LANES = min(2, os.cpu_count() or 1)


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def tree_digest(checkout: Path) -> str:
    """The first 12 hex digits of a SHA-256 over the checkout's src/ files, each
    as its path, its length and its bytes, in path order; compiled files are
    left out.  It names the tree a run measured when no commit does."""
    h = hashlib.sha256()
    files = sorted(f for f in (checkout / "src").rglob("*")
                   if f.is_file() and "__pycache__" not in f.parts and f.suffix != ".pyc")
    for f in files:
        data = f.read_bytes()
        h.update(f"{f.relative_to(checkout).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()[:12]


def stdlib_imports(checkouts, command: list[str]) -> tuple[str, ...]:
    """The standard-library modules that the Python files of the command's
    script directory and of `src/`, in any of the checkouts, import by name."""
    names = set()
    for checkout in checkouts:
        for top in {checkout / Path(command[1]).parent, checkout / "src"}:
            for f in sorted(top.rglob("*.py")):
                try:
                    tree = ast.parse(f.read_bytes())
                except (SyntaxError, ValueError):
                    continue
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        names.update(alias.name for alias in node.names)
                    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                        names.add(node.module)
    return tuple(sorted(n for n in names if n.partition(".")[0] in sys.stdlib_module_names))


@functools.cache
def stdlib_bytecode(modules: tuple[str, ...]) -> tempfile.TemporaryDirectory:
    """A directory holding the bytecode of the standard-library `modules` and
    of what they import, written by an isolated interpreter, whose path
    holds no checkout, so no checkout's bytecode is written.  Made once per
    process for the same modules, and removed when the process exits."""
    prefix = tempfile.TemporaryDirectory()
    code = "".join(f"try:\n import {m}\nexcept ImportError:\n pass\n" for m in modules)
    subprocess.run([sys.executable, "-I", "-X", f"pycache_prefix={prefix.name}", "-c", code],
                   cwd=prefix.name, capture_output=True, check=True)
    return prefix


def run_side(checkout: Path, command: list[str], workload: str, seed: int, seconds: float,
             pycache: Path):
    """(record, result) of one benchmark run in `checkout`.  Python looks for
    bytecode only in `pycache`, which holds standard-library bytecode and
    nothing else, and writes none, so no bytecode of the checkout is read
    and each run compiles what it imports from the checkout."""
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(pycache))
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_pair(checkouts: dict, command, workload: str, seed: int, seconds: float, pycache: Path):
    """The pair's entry, and the commits and machine its records name."""
    first = "parent" if seed % 2 else "change"
    order = [first, "change" if first == "parent" else "parent"]
    runs = {side: run_side(checkouts[side], command, workload, seed, seconds, pycache)
            for side in order}
    pair = {"seed": seed, "first": first}
    for side in ("parent", "change"):
        pair[side] = {k: v["value"] for k, v in runs[side][1]["metrics"].items()}
    pair["named"] = {side: runs[side][0].get("named", {}) for side in ("parent", "change")}
    pair["correct"] = all(runs[side][1]["correct"] for side in order)
    for key in ("attempted", "failed"):
        pair[key] = {side: runs[side][1][key] for side in ("parent", "change")}
    commits = {side: runs[side][0].get("git_commit") for side in ("parent", "change")}
    return pair, commits, runs["change"][0].get("machine", {})


def summarize(parent: list[float], change: list[float], better: str, bound: float | None) -> dict:
    """Medians, quartiles, wins and the gain and bound verdicts of one metric."""
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    spread = p_q3 - p_q1
    out = {"better": better, "bound": bound,
           "parent_median": p_med, "parent_quartiles": [p_q1, p_q3],
           "change_median": c_med, "change_quartiles": [c_q1, c_q3],
           "change_wins": wins, "pairs": len(parent),
           "median_change_rel": c_med / p_med - 1,
           "parent_quartile_spread": spread,
           "gain_shown": 10 * wins >= 9 * len(parent) and sign * (c_med - p_med) > spread}
    if bound is not None:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            out["bound_verdict"] = "within"
        elif spread > bound * abs(p_med):
            out["bound_verdict"] = "unresolved"
        elif sign * (c_med - p_med) >= -bound * abs(p_med):
            out["bound_verdict"] = "within"
        else:
            out["bound_verdict"] = "worse"
    return out


def summarize_workload(pairs: list[dict], end_to_end: list[dict]) -> dict:
    metrics = {}
    for m in end_to_end:
        name = m["name"]
        metrics[name] = summarize([p["parent"][name] for p in pairs],
                                  [p["change"][name] for p in pairs], m["better"], m["bound"])
    named = {}
    for name in pairs[0]["named"]["parent"]:
        sides = [[p["named"][s].get(name) for p in pairs] for s in ("parent", "change")]
        if all(isinstance(v, (int, float)) for side in sides for v in side):
            better = "higher" if name.endswith("_per_s") else "lower"
            named[name] = summarize(*sides, better, None)
    failed_ratio = {}
    for side in ("parent", "change"):
        attempted = sum(p["attempted"][side] for p in pairs)
        failed_ratio[side] = sum(p["failed"][side] for p in pairs) / attempted if attempted else 0.0
    return {"pairs": pairs, "failed_ratio": failed_ratio, "metrics": metrics, "named": named}


def _name_order(path: Path) -> list:
    return [int(part) if part.isdigit() else part for part in re.split(r"(\d+)", path.name)]


def history(start: Path) -> list[str]:
    """The chained median ratios from `start` to the newest BENCH file beside it."""
    files = sorted(start.resolve().parent.glob("BENCH_*.json"), key=_name_order)
    chain = files[files.index(start.resolve()):]
    runs = [json.loads(f.read_text(encoding="utf-8")) for f in chain]
    labels = [run.get("label") or f.stem[len("BENCH_"):] for run, f in zip(runs, chain)]
    first = runs[0].get("parent_commit") or runs[0].get("parent_tree")
    last = runs[-1].get("change_commit") or runs[-1].get("change_tree")
    lines = [f"history from {chain[0].name} (parent {first}) to {chain[-1].name} (change {last})",
             f"{'workload':10} {'metric':12} " + " ".join(f"{label:>12}" for label in labels)
             + f" {'cumulative':>12}"]
    workloads = dict.fromkeys(w for run in runs for w in run["workloads"])
    for w in workloads:
        metrics = dict.fromkeys(m for run in runs for m in run["workloads"].get(w, {}).get("metrics", {}))
        for m in metrics:
            steps = [run["workloads"].get(w, {}).get("metrics", {}).get(m) for run in runs]
            ratios = [None if step is None else 1 + step["median_change_rel"] for step in steps]
            total = math.prod(r for r in ratios if r is not None)
            lines.append(f"{w:10} {m:12} " + " ".join(
                f"{'-':>12}" if r is None else f"{r - 1:>+12.1%}" for r in ratios) + f" {total - 1:>+12.1%}")
    return lines


def result(args, bench, jobs: list, done: dict, checkouts: dict) -> dict:
    """The BENCH file's content for the pairs in `done` (job index -> run_pair's
    result); a workload is summarized once it has two pairs."""
    seconds = bench["run_seconds"]
    _, commits, machine = done[min(done)]
    pairs: dict[str, list] = {}
    for i in sorted(done):
        pairs.setdefault(jobs[i][0], []).append(done[i][0])
    return {
        "label": args.label,
        "claim": args.claim,
        "parent_commit": (commits["parent"] or "")[:7] or None,
        "change_commit": (commits["change"] or "")[:7] or None,
        **{f"{side}_tree": tree_digest(checkouts[side]) for side in ("parent", "change")
           if not commits[side]},
        "command": " ".join(bench["command"]) + f" --workload W --seed S --seconds {seconds:g}",
        "protocol": (f"{len(args.seeds)} alternating parent/change pairs per workload, seeds "
                     f"{','.join(map(str, args.seeds))}; odd seeds run the parent first, even "
                     f"seeds the change first; {LANES} pair(s) ran side by side. Quartiles "
                     "are statistics.quantiles(method='inclusive'); a win means the change's "
                     "value is better than the parent's in that pair; a gain is shown when the "
                     "change wins at least 9/10 of the pairs and its median is better by more "
                     "than the parent's quartile spread. A metric is within or worse than its "
                     "bound by its median, and unresolved when the parent's quartile spread is "
                     "wider than the bound, unless every change run is better than every parent "
                     "run."),
        "pairs_run": f"{len(done)} of {len(jobs)}",
        "machine": {"cpus": machine.get("nproc"), "cpu": machine.get("cpu_model"),
                    "python": machine.get("python"),
                    "metrics": "CPU times scaled by the harness's calibration kernel"},
        "workloads": {w: summarize_workload(ps, bench["end_to_end"]) if len(ps) > 1 else {"pairs": ps}
                      for w, ps in pairs.items()},
        "notes": {},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--label", help="the output is BENCH_<label>.json")
    ap.add_argument("--claim", help="the claimed gain, in words")
    ap.add_argument("--seeds", default="1-10", type=parse_seeds)
    ap.add_argument("--out", type=Path, default=Path("."))
    ap.add_argument("--history", type=Path, metavar="BENCH_FILE",
                    help="print the change chained from this file to the newest one, and run nothing")
    args = ap.parse_args(argv)
    if args.history is not None:
        print("\n".join(history(args.history)))
        return 0
    if None in (args.parent, args.change, args.label, args.claim):
        ap.error("--parent, --change, --label and --claim are required without --history")
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    jobs = [(w, s) for w in workloads for s in args.seeds]
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    done: dict[int, tuple] = {}  # job index -> run_pair's result
    failure = None  # the first pair that raised
    pycache = Path(stdlib_bytecode(stdlib_imports(checkouts.values(), bench["command"])).name)
    with ThreadPoolExecutor(max_workers=LANES) as pool:
        futures = {pool.submit(run_pair, checkouts, bench["command"], w, s, seconds, pycache): i
                   for i, (w, s) in enumerate(jobs)}
        for future in as_completed(futures):
            if future.cancelled():
                continue
            try:
                done[futures[future]] = future.result()
            except Exception as exc:
                failure = failure or exc
                for other in futures:
                    other.cancel()
                continue
            out = result(args, bench, jobs, done, checkouts)
            path.write_text(json.dumps(out, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    if failure is not None:
        raise failure
    for w, summary in out["workloads"].items():
        ratio = summary["failed_ratio"]
        print(f"{w:10} failed ratio {ratio['parent']:.4g} -> {ratio['change']:.4g}")
        for name, m in summary["metrics"].items():
            print(f"{w:10} {name:12} {m['parent_median']:12.4g} -> {m['change_median']:12.4g} "
                  f"({m['median_change_rel']:+.1%}, wins {m['change_wins']}/{m['pairs']}, "
                  f"gain {m['gain_shown']}, bound {m['bound_verdict']})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
