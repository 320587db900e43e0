"""Time each corpus extension stream, as declared and declared in reverse.

    python3 tools/stream_tables.py [--checkout DIR] [--tables 15000] [--runs 21] [--only TEXT]

The streams are the `generate` workload's (perfbench/workloads.py STREAMS):
a corpus poset, a total system and a selection.  Each is streamed by
enumerate_extensions from the poset's star table, once on the poset as
declared and once on the same poset with its elements declared in reverse
order, so that the last column belongs to a minimal element.  A run takes
the first --tables tables (or all, if the stream is shorter); the figure is
the least of --runs runs, in microseconds per table.  Runs of all streams
alternate in one process, so a slow moment of the machine touches every
stream alike.  --only keeps the streams whose name holds TEXT.  The package
and the stream list are loaded from src/ and perfbench/ of the checkout at
--checkout (by default the one that holds this script), so that another
checkout, such as the parent of a change, can be timed the same way.
Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import sys
import time
from pathlib import Path

sp = workloads = None  # the package and perfbench/workloads.py of the timed checkout


def load(checkout: Path) -> None:
    """Import the package and the workload list from the checkout."""
    global sp, workloads
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    sp, workloads = importlib.import_module("spposet"), importlib.import_module("workloads")


def reversed_poset(p):
    """p with its elements declared in reverse order."""
    pairs = [(x, y) for x in p.elements for y in p.elements if x != y and p.leq(x, y)]
    return sp.build_poset(p.name, p.elements[::-1], pairs)


def streams():
    """(name, star table, system, selection) per stream, as declared and reversed."""
    docs = {f: sp.parse_path(workloads.CORPUS / f) for f in {s[0] for s in workloads.STREAMS}}
    for order in ("declared", "reversed"):
        for f, pname, system, sel in workloads.STREAMS:
            p = docs[f].poset(pname)
            if order == "reversed":
                p = reversed_poset(p)
            make = {"frink": sp.selection_frink, "union": sp.selection_union, None: lambda _p: None}[sel]
            yield f"{pname} {system} {sel or '-'} {order}", sp.star_table(p), system, make(p)


def timed(star, system, sel, tables: int) -> tuple[float, int]:
    """Seconds to stream the first `tables` tables, and how many there were."""
    start = time.perf_counter()
    count = sum(1 for _ in itertools.islice(sp.enumerate_extensions(star, system, sel=sel), tables))
    return time.perf_counter() - start, count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--tables", type=int, default=15000)
    ap.add_argument("--runs", type=int, default=21)
    ap.add_argument("--only", default="")
    args = ap.parse_args(argv)
    load(args.checkout.resolve())
    chosen = [s for s in streams() if args.only in s[0]]
    best = {name: (float("inf"), 0) for name, *_ in chosen}
    for _ in range(args.runs):
        for name, star, system, sel in chosen:
            seconds, count = timed(star, system, sel, args.tables)
            best[name] = min(best[name], (seconds, count))
    width = max(map(len, best), default=0)
    print(f"{'stream':<{width}}  tables  us/table")
    for name, (seconds, count) in best.items():
        print(f"{name:<{width}}  {count:6d}  {1e6 * seconds / max(count, 1):8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
